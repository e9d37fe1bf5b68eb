import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from isinglab.graphs import BoundarySpec, BoxGraph, Couplings, FieldSpec, Graph
from isinglab import spins


def _enumerate(g, c, A, fields=None, boundary=None, mp=None):
    """(<sigma_A>, Z) by a plain loop over configurations; math floats
    and math.fsum, or mpmath numbers when `mp` is the mpmath module."""
    exp, fsum, num = ((math.exp, math.fsum, float) if mp is None
                      else (mp.exp, mp.fsum, mp.mpf))
    clamp = boundary.clamped() if boundary is not None else {}
    free = [v for v in g.vertices if v not in clamp]
    beta = num(c.beta)
    obs, weights = [], []
    for bits in itertools.product((-1, 1), repeat=len(free)):
        s = dict(clamp)
        s.update(zip(free, bits))
        e = fsum(beta * num(j) * s[u] * s[v]
                 for (u, v), j in zip(g.edges, c.J))
        if fields is not None:
            e += fsum(beta * num(fields.total(v)) * s[v] for v in g.vertices)
        w = exp(e)
        weights.append(w)
        obs.append(w * math.prod(s[x] for x in A))
    return fsum(obs) / fsum(weights), fsum(weights) / 2 ** len(free)


def test_single_edge_closed_forms():
    g = Graph(2, [(0, 1)])
    for K in (0.0, 0.3, 1.2):
        c = Couplings(g, 1.0, K)
        assert spins.partition_function(g, c) == pytest.approx(math.cosh(K))
        assert spins.expectation(g, c, [0, 1]) == pytest.approx(math.tanh(K))


def test_triangle_landmark():
    # at tanh(K) = 1/2 the two-point function is (t + t^2)/(1 + t^3) = 2/3
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    c = Couplings(g, 1.0, math.atanh(0.5))
    assert spins.expectation(g, c, [0, 1]) == pytest.approx(2.0 / 3.0,
                                                           abs=1e-14)


def test_odd_correlator_vanishes_without_field():
    g = Graph(3, [(0, 1), (1, 2)])
    c = Couplings(g, [0.7, 0.4], 1.0)
    assert spins.expectation(g, c, [0]) == 0.0
    assert spins.expectation(g, c, [0, 1, 2]) == 0.0


def test_multiset_reduction():
    g = Graph(2, [(0, 1)])
    c = Couplings(g, 1.0, 0.8)
    # sigma^2 = 1: a repeated site drops out
    assert spins.expectation(g, c, [0, 0]) == pytest.approx(1.0)
    assert spins.expectation(g, c, [0, 0, 1, 1]) == pytest.approx(1.0)


def test_field_breaks_symmetry():
    g = Graph(2, [(0, 1)])
    c = Couplings(g, 1.0, 0.5)
    f = FieldSpec(2, h=[0.3, 0.0])
    m = spins.expectation(g, c, [0], fields=f)
    assert m > 0.0


def test_clamped_boundary():
    g = Graph(3, [(0, 1), (1, 2)])
    c = Couplings(g, 1.0, 0.6)
    b = BoundarySpec({0: BoundarySpec.PLUS, 2: BoundarySpec.PLUS})
    m = spins.expectation(g, c, [1], boundary=b)
    # chain with both ends +: <s_1> = 2 sinh cosh / (cosh^2 + sinh^2) ... just
    # compare against the direct two-configuration sum
    K = 0.6
    num = math.exp(2 * K) - math.exp(-2 * K)
    den = math.exp(2 * K) + 2.0 + math.exp(-2 * K) - 2.0  # s1 = +1/-1 weights
    w_plus = math.exp(2 * K)
    w_minus = math.exp(-2 * K)
    assert m == pytest.approx((w_plus - w_minus) / (w_plus + w_minus))


def test_ursell4_gaussian_cancellation():
    # on a 4-cycle U4 must be <= 0 (GHS regime) and match its definition
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    c = Couplings(g, 1.0, 0.5)
    u4 = spins.ursell4(g, c, 0, 1, 2, 3)
    s = lambda A: spins.expectation(g, c, A)
    expect = (s([0, 1, 2, 3]) - s([0, 1]) * s([2, 3])
              - s([0, 2]) * s([1, 3]) - s([0, 3]) * s([1, 2]))
    assert u4 == pytest.approx(expect, abs=1e-14)
    assert u4 <= 0.0


def test_size_cap():
    g = Graph(30, [(i, i + 1) for i in range(29)])
    c = Couplings(g, 1.0, 0.1)
    with pytest.raises(spins.SizeError):
        spins.partition_function(g, c)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_partition_function_positive_and_symmetric(seed):
    import numpy as np
    from conftest import random_instance
    rng = np.random.default_rng(seed)
    g, c = random_instance(rng, ferro=False)
    z = spins.partition_function(g, c)
    assert z > 0.0
    # global spin flip: Z is even in all couplings' joint sign only through
    # frustration; but Z(J) = Z(J) under relabeling, and <s_x> = 0
    for v in g.vertices:
        assert spins.expectation(g, c, [v]) == pytest.approx(0.0, abs=1e-14)


def test_matches_plain_enumeration_3x3():
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, [0.9, -0.4, 0.7, 0.5, -1.1, 0.3, 0.8, 0.6, -0.2,
                        1.0, 0.4, 0.75], 0.8)
    f = FieldSpec(box.n, h={1: 0.3, 5: 0.2}, g={0: -0.5, 7: 0.25})
    for fields, boundary in ((None, None), (f, None),
                             (None, box.dobrushin_boundary()),
                             (f, box.plus_boundary())):
        for A in ([0, 8], [4], [0, 2, 6, 8], [1, 4, 4], []):
            ref, z = _enumerate(box, c, A, fields, boundary)
            assert spins.expectation(box, c, A, fields, boundary) == (
                pytest.approx(ref, rel=0, abs=1e-14))
        assert spins.partition_function(box, c, fields, boundary) == (
            pytest.approx(z, rel=1e-14))


def test_large_beta_weights_stay_finite():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        _check_large_beta(mpmath)


def _check_large_beta(mpmath):
    box = BoxGraph(2, (3, 3))
    # beta = 80 puts the largest exponent at 960, past float64's e^709
    c = Couplings(box, 1.0, 80.0)
    value = spins.expectation(box, c, [0, 4])
    assert math.isfinite(value)
    ref, _ = _enumerate(box, c, [0, 4], mp=mpmath)
    assert value == pytest.approx(float(ref), rel=0, abs=1e-14)
    # frustrated couplings, a field and a Dobrushin boundary: degenerate
    # ground states give correlations such as 0 and 1/3
    frus = Couplings(box, [1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0,
                           1.0, 1.0, 1.0], 80.0)
    f = FieldSpec(box.n, g={4: -0.5})
    for fields, boundary in ((None, None), (f, None),
                             (None, box.dobrushin_boundary())):
        for A in ([0, 4], [4], [1, 7]):
            value = spins.expectation(box, frus, A, fields, boundary)
            ref, _ = _enumerate(box, frus, A, fields, boundary, mp=mpmath)
            assert value == pytest.approx(float(ref), rel=0, abs=1e-12)
    # Z = cosh(710) fits in float64 although e^710 does not; cosh(800)
    # does not fit and comes back as inf
    edge = Graph(2, [(0, 1)])
    z = spins.partition_function(edge, Couplings(edge, 1.0, 710.0))
    assert z == pytest.approx(float(mpmath.cosh(710)), rel=1e-12)
    assert spins.partition_function(edge, Couplings(edge, 1.0, 800.0)) == (
        math.inf)
    # every exponent below -745: each weight underflows to 0 unshifted
    edge = Graph(3, [(0, 1)])
    anti = Couplings(edge, -1.0, 800.0)
    plus = BoundarySpec({0: BoundarySpec.PLUS, 1: BoundarySpec.PLUS})
    assert spins.expectation(edge, anti, [2], boundary=plus) == 0.0
    assert spins.expectation(edge, anti, [0, 1], boundary=plus) == 1.0
    assert spins.partition_function(edge, anti, boundary=plus) == 0.0
    # 17 spins stream as two chunks (s_16 = -1, then +1) with exponent
    # shifts 109.5 and 110.5; only the bond (0, 16) and the field at 16 act
    pair = Graph(17, [(0, 16)])
    c = Couplings(pair, 1.0, 800.0)
    f = FieldSpec(pair.n, h={16: 0.5 / 800.0})
    K, H = mpmath.mpf(800), mpmath.mpf(800) * (0.5 / 800.0)
    w = {(a, b): mpmath.exp(K * a * b + H * b)
         for a in (-1, 1) for b in (-1, 1)}
    ref = mpmath.fsum(b * x for (_, b), x in w.items()) / mpmath.fsum(
        w.values())
    assert spins.expectation(pair, c, [16], fields=f) == pytest.approx(
        float(ref), rel=1e-14)


def test_bad_sites_raise_value_error():
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 0.5)
    for A in ([0, -1], [0, 99], [0, 1.0]):
        with pytest.raises(ValueError):
            spins.expectation(box, c, A)
    # a one-shot iterable is read once, not used up by the site check
    assert spins.expectation(box, c, (v for v in [0, 4])) == (
        spins.expectation(box, c, [0, 4]))
    with pytest.raises(ValueError):
        spins.moments(box, c, [[0, 9], [0], [9]])
    with pytest.raises(ValueError):
        spins.ursell4(box, c, 0, 1, 2, -1)


def test_table_never_stale(monkeypatch):
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, [0.5 + 0.05 * e for e in range(box.n_edges)], 0.6)
    f = FieldSpec(box.n, h={0: 0.2}, g={3: -0.4})
    b = BoundarySpec({0: BoundarySpec.PLUS, 8: BoundarySpec.MINUS})

    def agrees(A):
        got = (spins.expectation(box, c, A, f, b),
               spins.partition_function(box, c, f, b))
        ref = _enumerate(box, c, A, f, b)
        assert got[0] == pytest.approx(ref[0], rel=0, abs=1e-14)
        assert got[1] == pytest.approx(ref[1], rel=1e-14)
        return got

    seen = [agrees([4])]
    c.J[3] = -0.9
    seen.append(agrees([4]))
    f.h[0] = 0.7
    seen.append(agrees([4]))
    f.g[3] = 0.4
    seen.append(agrees([4]))
    c.beta = 0.3
    seen.append(agrees([4]))
    b.designation[8] = BoundarySpec.PLUS
    seen.append(agrees([4]))
    b.designation[2] = BoundarySpec.MINUS
    seen.append(agrees([4]))
    # every change moved Z, so a stale table could not have agreed
    assert len(set(seen)) == 7
    # a stored table (6 free spins) still honours a smaller cap
    monkeypatch.setattr(spins, "DEFAULT_CAP", 5)
    with pytest.raises(spins.SizeError):
        spins.expectation(box, c, [4], f, b)
    with pytest.raises(spins.SizeError):
        spins.partition_function(box, c, f, b)


def test_repeated_calls_identical():
    box = BoxGraph(2, (3, 4))
    c = Couplings(box, [0.3 + 0.1 * (e % 7) for e in range(box.n_edges)], 0.7)
    b = box.dobrushin_boundary()
    first = [spins.expectation(box, c, [1, 10], boundary=b),
             spins.partition_function(box, c, boundary=b),
             spins.ursell4(box, c, 4, 5, 6, 7),
             spins.moments(box, c, [[5, 6], [5], [6]], boundary=b)]
    again = [spins.expectation(box, c, [1, 10], boundary=b),
             spins.partition_function(box, c, boundary=b),
             spins.ursell4(box, c, 4, 5, 6, 7),
             spins.moments(box, c, [[5, 6], [5], [6]], boundary=b)]
    assert list(map(repr, first)) == list(map(repr, again))


def test_each_call_weighs_what_it_is_asked(work):
    # no call reads another's weighing: X, Y, X is three weighings, X
    # asked once more a fourth, and X's answers do not depend on what was
    # asked before
    g12 = Graph(12, [(i, i + 1) for i in range(11)])
    x, y = Couplings(g12, 1.0, 0.4), Couplings(g12, 1.0, 0.3)
    first = repr(spins.moments(g12, x, [[0, 11], [3]]))
    spins.moments(g12, y, [[0, 11]])
    assert repr(spins.moments(g12, x, [[0, 11], [3]])) == first
    assert [beta for _, _, _, beta, _ in work["weighed"]] == [0.4, 0.3, 0.4]
    assert repr(spins.moments(g12, x, [[0, 11], [3]])) == first
    assert len(work["weighed"]) == 4


def test_held_key_holds_the_clamped_spins():
    # the same couplings under two boundaries with the same free spins:
    # each is weighed with its own clamped spins
    import ref_spins
    box = BoxGraph(2, (3, 4))
    c = Couplings(box, [0.3 + 0.1 * (e % 7) for e in range(box.n_edges)], 0.7)
    pm = box.dobrushin_boundary()
    sets = [[5], [6], [5, 6], [1, 5]]
    for b in (pm, pm.all_plus(), pm):
        assert list(map(repr, spins.moments(box, c, sets, boundary=b))) == (
            list(map(repr, ref_spins.moments(box, c, sets, boundary=b))))
        assert repr(spins.partition_function(box, c, boundary=b)) == repr(
            ref_spins.partition_function(box, c, boundary=b))


def _ratio_cases():
    """(graph, couplings_a, couplings_b, boundary_a, boundary_b): the pairs
    the package divides: signed J over |J|, flipped over plain couplings
    and Dobrushin over all-plus boundaries."""
    out = []
    for sides in ((3, 3), (3, 4), (4, 4)):
        box = BoxGraph(2, sides)
        c = Couplings(box, [(-1) ** (e % 3) * (0.4 + 0.07 * e)
                            for e in range(box.n_edges)], 0.45)
        ferro = c.with_abs()
        pm = box.dobrushin_boundary()
        out += [(box, c, ferro, None, None),
                (box, ferro.with_flipped([0, 2, 5]), ferro, None, None),
                (box, ferro, ferro, pm, pm.all_plus()),
                (box, c, c, pm, pm.all_plus())]
    return out


@pytest.mark.parametrize("g, ca, cb, ba, bb", _ratio_cases())
def test_partition_ratio_is_the_plain_quotient(g, ca, cb, ba, bb):
    assert spins.partition_ratio(g, ca, cb, ba, bb) == (
        spins.partition_function(g, ca, boundary=ba)
        / spins.partition_function(g, cb, boundary=bb))


def test_partition_ratio_finite_past_the_float_range():
    mpmath = pytest.importorskip("mpmath")
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 80.0)
    pm = box.dobrushin_boundary()
    flipped = c.with_flipped([0, 5])
    # both partition functions are inf at beta 80, so the quotient is nan
    assert math.isnan(spins.partition_function(box, flipped)
                      / spins.partition_function(box, c))
    with mpmath.workdps(50):
        for ca, cb, ba, bb in ((flipped, c, None, None),
                               (c, c, pm, pm.all_plus())):
            _, za = _enumerate(box, ca, [], boundary=ba, mp=mpmath)
            _, zb = _enumerate(box, cb, [], boundary=bb, mp=mpmath)
            got = spins.partition_ratio(box, ca, cb, ba, bb)
            assert 0.0 < got < 1e-60
            assert got == pytest.approx(float(za / zb), rel=1e-12)


def test_surface_tension_finite_at_large_beta():
    from isinglab.doubled import surface_tension_ratio
    box = BoxGraph(2, (3, 4))
    # three bonds cross the interface, each costs 2 beta
    assert surface_tension_ratio(box, Couplings(box, 1.0, 80.0)) == 160.0
