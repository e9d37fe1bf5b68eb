import inspect
import math

import pytest

from isinglab.gauge import (PlaquetteComplex, WilsonLoop, build_dual_complex,
                            convexity_rate, deconfinement_bound_report,
                            dual_beta, gauge_oracle_partition,
                            lgm_partition, rectangular_loop, verify_duality,
                            verify_wilson_disorder_duality,
                            wilson_expectation)
from isinglab.graphs import BoxGraph, Couplings
from isinglab import gauge, gf2, spins


def gauge_transform_mask(cx, vertex):
    """Edge mask flipped by the gauge transformation at one vertex."""
    m = 0
    for e, (u, v) in enumerate(cx.edges):
        if vertex in (u, v):
            m ^= 1 << e
    return m


def test_partition_matches_oracle_2d():
    cx = PlaquetteComplex(2, (2, 2))
    for beta in (0.3, 0.8):
        assert lgm_partition(cx, beta) == pytest.approx(
            gauge_oracle_partition(cx, beta), abs=1e-12)


def test_partition_matches_oracle_3d():
    cx = PlaquetteComplex(3, (1, 1, 2))
    z = lgm_partition(cx, 0.5)
    assert z == pytest.approx(gauge_oracle_partition(cx, 0.5), abs=1e-12)


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("ell", [1, 2])
def test_2d_wilson_area_law_exact(beta, ell):
    cx = PlaquetteComplex(2, (3, 3))
    loop = rectangular_loop(cx, (0, 1), (0, 0), (ell, ell))
    w = wilson_expectation(cx, beta, loop)
    assert w == pytest.approx(math.tanh(beta) ** (ell * ell), abs=1e-12)


def test_wilson_via_oracle_3d():
    cx = PlaquetteComplex(3, (2, 1, 1))
    loop = rectangular_loop(cx, (0, 1), (0, 0, 0), (1, 1))
    w = wilson_expectation(cx, 0.6, loop)
    oracle = (gauge_oracle_partition(cx, 0.6, edge_signs=loop.edge_mask)
              / gauge_oracle_partition(cx, 0.6))
    assert w == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("beta", [0.3, 100.0])
def test_wilson_matches_oracle_ratio_on_the_cube(beta):
    # at beta 100 both chain sums still fit the float range here, and the
    # tanh ratio must keep matching the oracle's ratio of field sums
    cx = PlaquetteComplex(3, (1, 1, 1))
    loop = rectangular_loop(cx, (0, 1), (0, 0, 0), (1, 1))
    oracle = (gauge_oracle_partition(cx, beta, edge_signs=loop.edge_mask)
              / gauge_oracle_partition(cx, beta))
    assert math.isfinite(oracle)
    assert wilson_expectation(cx, beta, loop) == pytest.approx(
        oracle, rel=1e-13, abs=0.0)


def _oracle_by_field(cx, beta, edge_signs=None):
    """The oracle as one Python term per gauge field, summed by fsum."""
    E = cx.n_edges
    terms = []
    for mask in range(1 << E):
        energy = 0.0
        for eids in cx.plaquettes:
            prod = 1
            for e in eids:
                if mask & (1 << e):
                    prod = -prod
            energy += prod
        w = math.exp(beta * energy)
        if edge_signs is not None:
            sgn = 1
            for e in range(E):
                if (edge_signs >> e) & 1 and (mask >> e) & 1:
                    sgn = -sgn
            w *= sgn
        terms.append(w)
    return math.fsum(terms) / (1 << E)


def _insertions(cx):
    loop = rectangular_loop(cx, (0, 1), (0,) * cx.d, (1, 1))
    return {"none": None, "loop": loop.edge_mask,
            "star": gauge_transform_mask(cx, 1)}


@pytest.mark.parametrize("cells", [(2, 2), (1, 1, 1)])
def test_oracle_counts_equal_per_field_sum(cells):
    # class counts plus one exact rounding give the per-field fsum bit for
    # bit, on 2^12 fields each
    cx = PlaquetteComplex(len(cells), cells)
    for beta in (0.05, 0.7, 2.5):
        for signs in _insertions(cx).values():
            got = gauge_oracle_partition(cx, beta, edge_signs=signs)
            assert repr(got) == repr(_oracle_by_field(cx, beta, signs))


def test_oracle_shares_no_chain_code(monkeypatch):
    cx = PlaquetteComplex(3, (1, 1, 1))
    cases = [(beta, signs) for beta in (0.3, 1.1)
             for signs in _insertions(cx).values()]
    expected = [gauge_oracle_partition(cx, b, edge_signs=s) for b, s in cases]

    def boom(*args, **kwargs):
        raise AssertionError("the oracle used chain-sum code")

    monkeypatch.setattr(gauge, "_weight_counts", boom)
    for name, fn in vars(gf2).items():
        if inspect.isfunction(fn) and fn.__module__ == gf2.__name__:
            monkeypatch.setattr(gf2, name, boom)
    monkeypatch.setattr(gauge, "_chain_sums", boom)
    monkeypatch.setattr(gauge, "_plaquette_mask", boom)
    monkeypatch.setattr(PlaquetteComplex, "edge_mask", boom)
    assert [gauge_oracle_partition(cx, b, edge_signs=s)
            for b, s in cases] == expected


@pytest.mark.parametrize("cells, beta", [((1, 1, 3), 0.45), ((4, 4), 0.8),
                                         ((1, 19), -0.3)])
def test_oracle_past_twenty_edges_matches_chain_sum(cells, beta):
    # 28, 40 and 58 edges: the oracle counts 2^(|P|+1) syndromes, not
    # 2^|E| fields, and the 2D 1x19 strip is the most edges under its cap
    cx = PlaquetteComplex(len(cells), cells)
    assert cx.n_edges > 20
    assert gauge_oracle_partition(cx, beta) == pytest.approx(
        lgm_partition(cx, beta), rel=1e-13, abs=0.0)
    if cx.d == 3:
        loop = rectangular_loop(cx, (0, 2), (0, 0, 1), (1, 2))
        oracle = (gauge_oracle_partition(cx, beta, edge_signs=loop.edge_mask)
                  / gauge_oracle_partition(cx, beta))
        assert wilson_expectation(cx, beta, loop) == pytest.approx(
            oracle, rel=1e-13, abs=0.0)


def test_oracle_cap_counts_syndrome_bits():
    # the 2D 1x20 strip has 20 plaquettes, so 21 syndrome bits: one past
    # the cap that the 1x19 strip is at
    with pytest.raises(spins.SizeError):
        gauge_oracle_partition(PlaquetteComplex(2, (1, 20)), 0.3)


def test_oracle_refuses_counts_past_int64(monkeypatch):
    # a 2D 1x21 strip has 22 syndrome bits and 64 edges: with the cap
    # raised to let the syndromes in, 2^64 fields would overflow a count
    monkeypatch.setattr(gauge, "GAUGE_ORACLE_CAP", 22)
    cx = PlaquetteComplex(2, (1, 21))
    assert cx.n_edges == 64
    with pytest.raises(spins.SizeError):
        gauge_oracle_partition(cx, 0.3)


@pytest.mark.parametrize("signs", [1 << 12, -1, 2.0])
def test_oracle_rejects_bad_edge_signs(signs):
    cx = PlaquetteComplex(2, (2, 2))   # 12 edges
    with pytest.raises(ValueError):
        gauge_oracle_partition(cx, 0.7, edge_signs=signs)


def test_oracle_overflow_is_non_finite():
    # exp(6 beta) is past the float range on the 6-plaquette cube: the
    # oracle gives inf like the chain sum instead of raising OverflowError
    cx = PlaquetteComplex(3, (1, 1, 1))
    for beta in (200.0, -200.0):
        assert gauge_oracle_partition(cx, beta) == math.inf
        assert lgm_partition(cx, beta) == math.inf
    # a gauge-star insertion puts +inf and -inf classes in one sum
    star = gauge_transform_mask(cx, 1)
    assert math.isnan(gauge_oracle_partition(cx, 200.0, edge_signs=star))
    # the exact sum of the largest finite classes is exceeded: signed inf
    assert gauge_oracle_partition(cx, 118.0) == math.inf
    assert gauge_oracle_partition(cx, -118.0) == math.inf
    # below the range the exact sum is kept bit for bit
    assert repr(gauge_oracle_partition(cx, 100.0)) == repr(
        _oracle_by_field(cx, 100.0))


def test_dual_beta_involution():
    for beta in (0.2, 0.5, 1.1):
        assert dual_beta(dual_beta(beta)) == pytest.approx(beta, abs=1e-14)


@pytest.mark.parametrize("beta", [0.3, 0.6, 1.0])
def test_single_cube_identity(beta):
    # cosh^6 b + sinh^6 b = 2 (cosh b sinh b)^3 cosh(6 b*)
    bstar = dual_beta(beta)
    lhs = math.cosh(beta) ** 6 + math.sinh(beta) ** 6
    rhs = 2.0 * (math.cosh(beta) * math.sinh(beta)) ** 3 * math.cosh(6 * bstar)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    cx = PlaquetteComplex(3, (1, 1, 1))
    assert lgm_partition(cx, beta) == pytest.approx(lhs, abs=1e-12)


@pytest.mark.parametrize("cells", [(1, 1, 1), (1, 1, 2), (1, 2, 2)])
def test_duality_on_small_boxes(cells):
    cx = PlaquetteComplex(3, cells)
    lhs, rhs, diff = verify_duality(cx, 0.45)
    assert diff <= 1e-10 * max(1.0, abs(lhs))


def test_wilson_disorder_duality():
    cx = PlaquetteComplex(3, (1, 1, 2))
    loop = rectangular_loop(cx, (0, 1), (0, 0, 0), (1, 1))
    lhs, rhs, diff = verify_wilson_disorder_duality(cx, 0.5, loop)
    assert diff <= 1e-10


def test_open_insertions_vanish():
    # the insertion of a single vertex star has odd overlap with a
    # neighboring star, so Elitzur-style averaging kills it exactly; only
    # closed loops (even overlap with every star) survive
    cx = PlaquetteComplex(2, (2, 2))
    for v in (0, 1, 4):
        mask = gauge_transform_mask(cx, v)
        assert gauge_oracle_partition(cx, 0.7, edge_signs=mask) == \
            pytest.approx(0.0, abs=1e-12)
    loop = rectangular_loop(cx, (0, 1), (0, 0), (1, 1))
    assert gauge_oracle_partition(cx, 0.7, edge_signs=loop.edge_mask) > 0.0


def test_convexity_rate_landmarks():
    assert convexity_rate(0.0) == pytest.approx(1.0, abs=1e-10)
    assert convexity_rate(0.5) == pytest.approx(2.0 * math.log(2.0),
                                                abs=1e-10)
    with pytest.raises(ValueError):
        convexity_rate(1.0)


@pytest.mark.parametrize("R", [1e-9, 1e-4, 0.05])
def test_convexity_rate_is_exact_at_small_R(R):
    # g = -log(1 - R) / R = sum_k R^k / (k + 1); a bisection to 1e-13 in g
    # was 8.4e-8 relative off at R = 1e-9 and 6.9e-13 at R = 1e-4
    series = math.fsum(R ** k / (k + 1) for k in range(40))
    assert convexity_rate(R) == pytest.approx(series, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("beta", [0.3, 0.5])
def test_deconfinement_chain(beta):
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, beta)
    rep = deconfinement_bound_report(box, c, 0, 0.5, window={1: (0, 1)})
    assert rep["chain_ok"]
    # W comes from double currents and B1 from FK, which share the support
    # kernel; the spin oracle gives W = Z(T_F J)/Z(J) independently
    z_flip = spins.partition_function(box, c.with_flipped(rep["flip_edges"]))
    assert rep["disorder"] == pytest.approx(
        z_flip / spins.partition_function(box, c), abs=1e-10)
    assert rep["disorder"] >= rep["fk_disconnect"] - 1e-12
    assert rep["fk_disconnect"] >= rep["product_bound"] - 1e-12
    assert rep["product_bound"] >= rep["exp_bound"] - 1e-12


def test_full_cut_is_trivial():
    # a full plane cut is a gauge transformation: <T_F> = 1
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 0.5)
    rep = deconfinement_bound_report(box, c, 0, 0.5)
    assert rep["disorder"] == pytest.approx(1.0, abs=1e-12)
