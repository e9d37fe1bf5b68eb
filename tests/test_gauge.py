import math

import pytest

from isinglab.gauge import (PlaquetteComplex, WilsonLoop, build_dual_complex,
                            convexity_rate, deconfinement_bound_report,
                            dual_beta, gauge_oracle_partition,
                            gauge_transform_mask, lgm_partition,
                            rectangular_loop, verify_duality,
                            verify_wilson_disorder_duality,
                            wilson_expectation)
from isinglab.graphs import BoxGraph, Couplings
from isinglab import spins


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
    signs = {e: -1.0 for e in range(cx.n_edges)
             if loop.edge_mask & (1 << e)}
    oracle = (gauge_oracle_partition(cx, 0.6, edge_signs=loop.edge_mask)
              / gauge_oracle_partition(cx, 0.6))
    assert w == pytest.approx(oracle, abs=1e-12)


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
