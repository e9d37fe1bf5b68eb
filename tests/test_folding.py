import math

import pytest

from isinglab.graphs import BoxGraph, Couplings, Graph, reflection_for_axis
from isinglab.folding import (FoldedCurrentMeasure, dobrushin_identities,
                              folded_correlation_identity,
                              reflection_monotonicity_report)
from isinglab.doubled import DoubleSupportMeasure
from isinglab import fk, spins


def _chain_reflection(n, beta):
    """Path graph 0-1-...-(n-1) with an odd length, reflected about its
    middle vertex."""
    g = BoxGraph(2, (n, 1)) if False else Graph(n, [(i, i + 1)
                                                    for i in range(n - 1)])
    c = Couplings(g, 1.0, beta)
    from isinglab.graphs import ReflectionSymmetry, _build_reflection
    invol = {i: n - 1 - i for i in range(n)}
    return _build_reflection(g, c, invol)


def test_chain_fold_identity():
    # 3-chain about the middle vertex: the mirror of 0 is 2 and the hit
    # probability is 1 (both sources sit next to the plane), so the identity
    # reduces to <s_1 s_2> = <s_1 s_0>
    r = _chain_reflection(3, 0.8)
    lhs, rhs = folded_correlation_identity(r, 1, 0)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert lhs == pytest.approx(math.tanh(0.8), abs=1e-12)


def test_five_chain_fold_landmark():
    # <s_1 s_4> = <s_1 s_0> * P(0 <-> middle): t^3 = t * t^2
    r = _chain_reflection(5, 0.6)
    lhs, rhs = folded_correlation_identity(r, 1, 0)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    t = math.tanh(0.6)
    assert lhs == pytest.approx(t ** 3, abs=1e-12)


def _raw_total_and_spin_value(kind, box, c):
    """(raw '_total' of a support measure, its value from spin sums)."""
    z = spins.partition_function(box, c)
    e_sum = math.exp(-c.beta * sum(abs(j) for j in c.J))
    if kind == "folded":
        r = reflection_for_axis(box, c, 0, 1)
        return FoldedCurrentMeasure(r, sources=()).expectations({})[
            "_total"], z
    if kind == "double":
        m = DoubleSupportMeasure(box, c, list(box.vertices), (), ())
        return m.expectations({})["_total"], z * z
    if kind == "fk_free":
        return (fk.fk_measure_expectation(box, c, {})["_total"],
                z * 2.0 ** box.n * e_sum)
    bdry = box.boundary_vertices()
    z_plus = spins.partition_function(box, c, boundary=box.plus_boundary())
    return (fk.fk_measure_expectation(box, c, {}, boundary=bdry)["_total"],
            z_plus * 2.0 ** (box.n - len(bdry)) * e_sum)


@pytest.mark.parametrize("kind", ["folded", "double", "fk_free", "fk_wired"])
def test_folded_total_matches_partition_ratio(kind):
    # the raw weight sums of the support-pattern measures against the spin
    # oracle: folded Z, double support Z^2, FK 2^{free spins} e^{-beta sum J}
    # times Z (free) or Z^+ (wired)
    box = BoxGraph(2, (3, 3))
    J = [0.6 + 0.1 * (e % 3) for e in range(box.n_edges)]
    r0 = reflection_for_axis(box, Couplings(box, 1.0, 0.5), 0, 1)
    for e in range(box.n_edges):
        J[e] = J[r0.edge_map[e]] = max(J[e], J[r0.edge_map[e]])
    c = Couplings(box, J, 0.5)
    total, oracle = _raw_total_and_spin_value(kind, box, c)
    assert total / oracle == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("beta", [0.3, 0.7])
def test_reflection_monotonicity(beta):
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, beta)
    r = reflection_for_axis(box, c, 0, 1)
    rep = reflection_monotonicity_report(r, 0, 1)
    assert rep["monotone"]
    assert rep["remainder_lhs"] == pytest.approx(rep["miss_prob"], abs=1e-10)
    assert rep["corr_near"] >= rep["corr_far"]


def test_monotonicity_with_varied_couplings():
    box = BoxGraph(2, (3, 3))
    J = [0.5 + 0.1 * (e % 4) for e in range(box.n_edges)]
    c = Couplings(box, J, 0.6)
    # couplings must be reflection-symmetric for the fold; symmetrize
    r0 = reflection_for_axis(box, Couplings(box, 1.0, 0.6), 0, 1)
    sym = list(J)
    for e in range(box.n_edges):
        m = r0.edge_map[e]
        sym[e] = sym[m] = 0.5 * (J[e] + J[m])
    c = Couplings(box, sym, 0.6)
    r = reflection_for_axis(box, c, 0, 1)
    rep = reflection_monotonicity_report(r, 0, 1)
    assert rep["monotone"]
    assert rep["remainder_lhs"] == pytest.approx(rep["miss_prob"], abs=1e-10)


@pytest.mark.parametrize("sides", [(3, 3), (3, 5)])
def test_dobrushin_identities(sides):
    box = BoxGraph(2, sides)
    c = Couplings(box, 1.0, 0.55)
    rep = dobrushin_identities(box, c, axis=0)
    assert rep["ratio_folded"] == pytest.approx(rep["ratio_spin"], abs=1e-10)
    assert rep["mag_folded"] == pytest.approx(rep["mag_spin"], abs=1e-10)
    assert rep["van_beijeren_ok"]


def test_dobrushin_needs_odd_side():
    box = BoxGraph(2, (4, 3))
    c = Couplings(box, 1.0, 0.5)
    with pytest.raises(ValueError):
        dobrushin_identities(box, c, axis=0)


def test_dobrushin_weighs_each_box_instance_once(work):
    # the ratio and <s_x>^pm read one weighing of the pm and one of the
    # all-plus box
    box = BoxGraph(2, (3, 5))
    pm = box.dobrushin_boundary()
    dobrushin_identities(box, Couplings(box, 1.0, 0.5))
    assert sorted(clamp for g, clamp, *_ in work["weighed"] if g is box) == (
        sorted(tuple(sorted(b.clamped().items()))
               for b in (pm, pm.all_plus())))


def test_dobrushin_magnetization_sandwich():
    # <s_x>^{pm} on the plane sits between the plane-system bound and the
    # all-plus value
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 0.6)
    rep = dobrushin_identities(box, c, axis=0)
    assert rep["mag_plane_lower"] <= rep["mag_spin"] + 1e-12
