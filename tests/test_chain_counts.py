"""`gauge._chain_sums` counts the closed chains by weight in numpy.  The
Python Gray walk over the kernel that it replaced is kept here verbatim as
the reference, with the elimination it walked: every chain sum must come
out the same, compared by repr, and Wilson loops must agree with the walk's
ratio wherever that was finite."""

import math

import numpy as np
import pytest

from isinglab import gauge, gf2
from isinglab.gauge import (CHAIN_CAP, PlaquetteComplex, SizeError,
                            _cosh_sinh, _plaquette_mask, lgm_partition,
                            rectangular_loop, wilson_expectation)

CELLS = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3)]
BETAS = (-0.4, 0.05, 0.45, 0.9, 2.5)


# ---------------------------------------------------------------------------
# reference: the Gray walk


def _kernel_basis(cx):
    """Basis of plaquette subsets with empty GF(2) edge boundary."""
    pivots = {}   # leading edge bit -> (edge_vec, plaquette_combo)
    basis = []
    for p in range(cx.n_plaquettes):
        vec = cx.edge_mask([p])
        combo = 1 << p
        while vec:
            lead = vec.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (vec, combo)
                break
            pv, pc = pivots[lead]
            vec ^= pv
            combo ^= pc
        else:
            basis.append(combo)
    return basis


def _ref_chain_sums(cx, beta, shift_masks, cap=CHAIN_CAP):
    """For each plaquette mask S in shift_masks, sum over the closed-chain
    kernel of cosh^(|P|-|S^k|) sinh^(|S^k|)."""
    P = cx.n_plaquettes
    basis = _kernel_basis(cx)
    if len(basis) > cap:
        raise SizeError("kernel dimension %d exceeds the cap" % len(basis))
    c, s = _cosh_sinh(beta)
    sums = [[] for _ in shift_masks]
    gray = 0
    for i in range(1 << len(basis)):
        if i:
            bit = (i & -i).bit_length() - 1
            gray ^= basis[bit]
        for out, S in zip(sums, shift_masks):
            w = (S ^ gray).bit_count()
            try:
                out.append(c ** (P - w) * s ** w)
            except OverflowError:
                out.append(-math.inf if s < 0 and w % 2 else math.inf)
    return [_sum_terms(out) for out in sums]


def _sum_terms(terms):
    """math.fsum, or the plain float sum (an inf) where fsum raises because
    finite terms add up past the float range.  The terms of one sum share a
    sign, since closed chains have even size, so inf - inf cannot occur."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return sum(terms)


# ---------------------------------------------------------------------------


def _shifts(cx):
    """A 1x1 loop's spanning set, and one of two disjoint loops."""
    one = rectangular_loop(cx, (0, 1), (0, 0, 0), (1, 1))
    top = [0, 0, cx.cells[2]]
    two = rectangular_loop(cx, (0, 1), tuple(top), (1, 1))
    return [_plaquette_mask(one.spanning),
            _plaquette_mask(one.spanning | two.spanning)]


@pytest.mark.parametrize("cells", CELLS)
def test_chain_sums_equal_the_gray_walk(cells):
    cx = PlaquetteComplex(3, cells)
    shifts = _shifts(cx)
    for beta in BETAS:
        # each mask of the walk is summed on its own: one walk for all
        *shifted, plain = _ref_chain_sums(cx, beta, shifts + [0])
        for S, want in zip(shifts, shifted):
            assert repr(gauge._chain_sums(cx, beta, [S, 0])) == repr(
                [want, plain])
        assert repr(gauge._chain_sums(cx, beta, [0])) == repr([plain])
        assert repr(lgm_partition(cx, beta)) == repr(plain)


@pytest.mark.parametrize("beta", [20.3, 80.0, 800.0, -80.0])
def test_overflowing_chain_sums_equal_the_gray_walk(beta):
    # terms or their sum past the float range give the same signed inf
    cx = PlaquetteComplex(3, (2, 2, 2))
    S = _shifts(cx)[0]
    got = gauge._chain_sums(cx, beta, [S, 0])
    assert repr(got) == repr(_ref_chain_sums(cx, beta, [S, 0]))
    assert all(math.isinf(x) for x in got)


def test_two_dimensional_kernel_is_trivial():
    cx = PlaquetteComplex(2, (3, 3))
    loop = rectangular_loop(cx, (0, 1), (0, 0), (2, 2))
    S = _plaquette_mask(loop.spanning)
    for beta in BETAS:
        assert repr(gauge._chain_sums(cx, beta, [S, 0])) == repr(
            _ref_chain_sums(cx, beta, [S, 0]))


def test_weight_counts_cover_the_kernel():
    cx = PlaquetteComplex(3, (2, 3, 3))   # dimension 18: four chunks
    dim = len(_kernel_basis(cx))
    S = _shifts(cx)[0]
    plain, shifted = gauge._weight_counts(cx, [0, S])
    assert plain.sum() == shifted.sum() == 1 << dim
    assert plain[0] == 1 and not plain[1::2].any()
    assert not shifted[0::2].any()   # |S| = 1 is odd


@pytest.mark.parametrize("cells", CELLS)
def test_gf2_basis_spans_the_walked_kernel(cells):
    # the same dimension, and every gf2 basis vector is a closed chain
    # that the walk's basis reaches
    cx = PlaquetteComplex(3, cells)
    P = cx.n_plaquettes
    basis, x0 = gf2.solve({p: cx.edge_mask([p]) for p in range(P)}, 0)
    ref = _kernel_basis(cx)
    assert x0 == 0 and len(basis) == len(ref)
    for b in basis:
        assert cx.edge_mask([p for p in range(P) if b >> p & 1]) == 0
    rank = {}
    for b in ref + basis:
        while b and b.bit_length() in rank:
            b ^= rank[b.bit_length()]
        if b:
            rank[b.bit_length()] = b
    assert len(rank) == len(ref)


@pytest.mark.parametrize("n_words", [0, 1, 2, 3])
def test_popcount_matches_bit_count_per_row(n_words):
    # rows of no words count 0 (an edgeless graph's odd sets); the top bit
    # of every word is set, so a signed or truncated count shows
    rng = np.random.default_rng(n_words)
    rows = rng.integers(0, 1 << 63, size=(300, n_words), dtype=np.uint64)
    rows |= np.uint64(1 << 63)
    rows[0] = np.uint64((1 << 64) - 1)
    got = gf2.popcount(rows)
    assert got.dtype == np.intp and got.shape == (300,)
    assert got.tolist() == [sum(int(w).bit_count() for w in row)
                            for row in rows]


def test_chain_cap_is_kept(monkeypatch):
    monkeypatch.setattr(gauge, "CHAIN_CAP", 7)
    with pytest.raises(SizeError):
        lgm_partition(PlaquetteComplex(3, (2, 2, 2)), 0.5)


@pytest.mark.parametrize("cells", CELLS[:5])
def test_wilson_agrees_with_the_walk_ratio(cells):
    cx = PlaquetteComplex(3, cells)
    loop = rectangular_loop(cx, (0, 1), (0, 0, 0), (1, 1))
    S = _plaquette_mask(loop.spanning)
    for beta in BETAS + (0.3, 1.5, 6.0):
        num, den = _ref_chain_sums(cx, beta, [S, 0])
        assert math.isfinite(num / den)
        assert wilson_expectation(cx, beta, loop) == pytest.approx(
            num / den, rel=1e-14, abs=0.0)
