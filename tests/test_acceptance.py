"""End-to-end acceptance checks: every identity, duality and inequality the
package certifies, exercised at its stated tolerance over seeded fuzz
corpora plus closed-form landmark values.
"""

import math

import numpy as np
import pytest

from conftest import random_instance
from isinglab.graphs import (BoundarySpec, BoxGraph, Couplings, FieldSpec,
                             Graph, reflection_for_axis)
from isinglab import (backbone, doubled, fk, folding, gauge, inequalities,
                      samplers, spins)
from isinglab.currents import current_sum
from ref_flux import truncated_flux_sum


# -- 1: the odd-set current sums agree with integer flux sums --------------

def test_trichotomy_exactness():
    rng = np.random.default_rng(101)
    for _ in range(100):
        g, c = random_instance(rng, max_vertices=4, max_edges=5, ferro=False)
        V = list(g.vertices)
        A = frozenset() if rng.random() < 0.5 else \
            frozenset(rng.choice(V, 2, replace=False).tolist())
        # the flux sum weighs by |J| with no sign
        lhs = current_sum(g, c.with_abs(), A)
        rhs = truncated_flux_sum(g, c, A)
        assert abs(lhs - rhs) <= 1e-10


# -- 2: squared two-point function = double-current connection probability --

def test_correlation_squared_identity():
    rng = np.random.default_rng(102)
    for _ in range(200):
        g, c = random_instance(rng, max_vertices=5, max_edges=7)
        x, y = rng.choice(g.n, 2, replace=False).tolist()
        corr = spins.expectation(g, c, [x, y])
        p = doubled.double_event_probability(
            g, c, frozenset(), frozenset(),
            lambda labels: labels.connected(x, y))
        assert abs(corr * corr - p) <= 1e-10
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    c = Couplings(tri, 1.0, math.atanh(0.5))
    p = doubled.double_event_probability(
        tri, c, frozenset(), frozenset(),
        lambda labels: labels.connected(0, 1))
    assert abs(p - 4.0 / 9.0) <= 1e-12


# -- 3: source-switching identity ------------------------------------------

def test_switching_identity():
    rng = np.random.default_rng(103)
    for i in range(500):
        g, c = random_instance(rng, max_vertices=5, max_edges=6, ferro=False)
        V = list(g.vertices)
        pick = lambda: frozenset(rng.choice(V, 2, replace=False).tolist())
        A1, A2, B = pick(), pick(), pick()
        edges2 = None
        if i % 3 == 0 and g.n_edges > 1:
            # second current confined to a subgraph that still carries A2
            keep = [e for e in range(g.n_edges) if rng.random() < 0.7]
            touched = {v for e in keep for v in g.edges[e]}
            if keep and A2 <= touched and (A2 ^ B) <= touched:
                edges2 = keep
        lhs, rhs, diff = doubled.verify_switching(g, c, A1, A2, B,
                                                  edges2=edges2)
        assert diff <= 1e-10


# -- 4: both double-current forms of the fourth Ursell function -------------

def test_ursell_identities():
    rng = np.random.default_rng(104)
    done = 0
    while done < 100:
        g, c = random_instance(rng, max_vertices=5, max_edges=6)
        if g.n < 4:
            continue
        done += 1
        ids = rng.choice(g.n, 4, replace=False).tolist()
        u4 = spins.ursell4(g, c, *ids)
        va, vb = doubled.ursell4_via_currents(g, c, *ids)
        assert abs(va - u4) <= 1e-10
        assert abs(vb - u4) <= 1e-10


# -- 5: frustration-adjusted identities (currents and clusters) -------------

def test_frustration_adjusted_identities():
    rng = np.random.default_rng(105)
    for _ in range(200):
        g, c = random_instance(rng, max_vertices=5, max_edges=6, ferro=False)
        u, v = rng.choice(g.n, 2, replace=False).tolist()
        # double-current versions
        z_ratio = (spins.partition_function(g, c)
                   / spins.partition_function(g, c.with_abs()))
        assert abs(doubled.frustrated_partition_ratio(g, c) - z_ratio) <= 1e-10
        lhs = (spins.expectation(g, c, [u, v])
               * spins.expectation(g, c.with_abs(), [u, v]))
        assert abs(doubled.frustration_identities(g, c, u, v)[1]
                   - lhs) <= 1e-10
        # cluster versions
        rep = fk.fk_frustration_adjusted(g, c, u, v)
        assert rep["z_match"] <= 1e-10
        assert rep["corr_match"] <= 1e-10
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    c = Couplings(tri, [1.0, 1.0, -1.0], math.atanh(0.5))
    assert abs(doubled.frustrated_partition_ratio(tri, c) - 7.0 / 9.0) <= 1e-12


# -- 6: clamped-boundary formulas on small boxes ----------------------------

@pytest.mark.parametrize("sides", [(3, 3), (3, 4)])
def test_boundary_formulas(sides):
    box = BoxGraph(2, sides)
    c = Couplings(box, 1.0, 0.5)
    bdry = box.boundary_vertices()
    mid = (sides[0] - 1) / 2.0
    bspec = BoundarySpec({v: (BoundarySpec.MINUS if box.coords[v][0] < mid
                              else BoundarySpec.PLUS) for v in bdry})
    z_pm = spins.partition_function(box, c, boundary=bspec)
    z_p = spins.partition_function(box, c, boundary=bspec.all_plus())
    # current form of the partition ratio
    assert abs(doubled.boundary_identities(box, c, bspec)[0]
               - z_pm / z_p) <= 1e-10
    x = sorted(bspec.interior(box))[0]
    m_plus = spins.expectation(box, c, [x], boundary=bspec.all_plus())
    m_pm = spins.expectation(box, c, [x], boundary=bspec)
    _, plus_prob, pm_expr = doubled.boundary_identities(box, c, bspec, x)
    # one-point function: current probabilities give m_pm * m_plus and
    # m_plus^2 (connection probabilities pair two current copies)
    assert abs(pm_expr - m_pm * m_plus) <= 1e-10
    assert abs(plus_prob - m_plus * m_plus) <= 1e-10
    # cluster forms: a single wired q=2 configuration needs no squares
    rep = fk.fk_boundary_report(box, c, bspec, x)
    assert abs(rep["ratio_fk"] - z_pm / z_p) <= 1e-10
    assert abs(rep["mag_pm_fk"] - m_pm) <= 1e-10
    assert abs(rep["mag_plus_fk"] - m_plus) <= 1e-10


# -- 7: disorder-operator expectation = partition ratio ---------------------

def test_disorder_identity():
    rng = np.random.default_rng(107)
    for _ in range(50):
        g, c = random_instance(rng, max_vertices=5, max_edges=6)
        nflip = int(rng.integers(0, g.n_edges + 1))
        flip = rng.choice(g.n_edges, nflip, replace=False).tolist()
        lhs = (spins.partition_function(g, c.with_flipped(flip))
               / spins.partition_function(g, c))
        assert abs(doubled.disorder_expectation(g, c, flip) - lhs) <= 1e-10


# -- 8: backbone expansion: completeness, walk properties, tree bound -------

def test_backbone_completeness_and_properties():
    rng = np.random.default_rng(108)
    for _ in range(40):
        g, c = random_instance(rng, max_vertices=5, max_edges=8)
        x, y = rng.choice(g.n, 2, replace=False).tolist()
        rep = backbone.check_path_properties(g, c, {x, y})
        assert rep["completeness"] <= 1e-10
        assert rep["rho_vs_grouping"] <= 1e-10
        assert rep["zeta_bounded"]
        assert rep["zeta_supermultiplicative_slack"] >= -1e-12
        assert rep["resummation"] <= 1e-10
        # dichotomy: rho vanishes exactly on inconsistent path tuples
        groups = backbone.backbone_grouping(g, c, {x, y})
        for paths in groups:
            assert backbone.walk_consistent(g, paths)


def test_tree_diagram_bound_never_violated():
    rng = np.random.default_rng(1080)
    done = 0
    while done < 50:
        g, c = random_instance(rng, max_vertices=6, max_edges=9)
        if g.n < 4:
            continue
        done += 1
        ids = rng.choice(g.n, 4, replace=False).tolist()
        lhs, rhs, ok = backbone.tree_diagram_check(g, c, *ids)
        assert rhs - lhs >= -1e-12


# -- 9: 2D Wilson loops follow the exact area law ---------------------------

@pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("ell", [1, 2])
def test_2d_wilson_loops(beta, ell):
    cx = gauge.PlaquetteComplex(2, (3, 3))
    loop = gauge.rectangular_loop(cx, (0, 1), (0, 0), (ell, ell))
    w = gauge.wilson_expectation(cx, beta, loop)
    assert abs(w - math.tanh(beta) ** (ell * ell)) <= 1e-12


# -- 10: 3D plaquette/bond duality ------------------------------------------

def test_3d_duality():
    for beta in (0.3, 0.6, 1.0):
        bstar = gauge.dual_beta(beta)
        lhs = math.cosh(beta) ** 6 + math.sinh(beta) ** 6
        rhs = (2.0 * (math.cosh(beta) * math.sinh(beta)) ** 3
               * math.cosh(6.0 * bstar))
        assert abs(lhs - rhs) <= 1e-12
        assert abs(gauge.dual_beta(bstar) - beta) <= 1e-14
    for cells in ((1, 1, 1), (1, 1, 2), (1, 2, 2)):
        cx = gauge.PlaquetteComplex(3, cells)
        lhs, rhs, diff = gauge.verify_duality(cx, 0.45)
        assert diff <= 1e-10 * max(1.0, abs(lhs))


# -- 11: deconfinement bound chain ------------------------------------------

def test_deconfinement_chain():
    assert abs(gauge.convexity_rate(0.5) - 2.0 * math.log(2.0)) <= 1e-12
    for beta in (0.3, 0.5, 0.8):
        box = BoxGraph(2, (3, 3))
        c = Couplings(box, 1.0, beta)
        rep = gauge.deconfinement_bound_report(box, c, 0, 0.5,
                                               window={1: (0, 1)})
        assert rep["disorder"] - rep["fk_disconnect"] >= -1e-12
        assert rep["fk_disconnect"] - rep["product_bound"] >= -1e-12
        assert rep["product_bound"] - rep["exp_bound"] >= -1e-12


# -- 12: correlation inequality suites over the fuzz corpus -----------------

def test_inequality_suites_zero_violations():
    reports, worst = inequalities.fuzz_inequalities(n_trials=60, seed=112)
    assert reports
    bad = [r for r in reports if not r.ok]
    assert not bad, bad[:3]
    # tree saturation of the cut bound
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    c = Couplings(g, [0.8, 0.5, 0.9], 1.0)
    reps = inequalities.simon_lieb_suite(g, c, 0, 3, {1})
    site = next(r for r in reps if r.ineq_id == "simon_lieb_site")
    assert abs(site.lhs - site.rhs) <= 1e-12


def test_reflection_suites():
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 0.55)
    r = reflection_for_axis(box, c, 0, 1)
    assert all(rep.ok for rep in inequalities.smms_suite(r, 0, 1))
    assert all(rep.ok for rep in inequalities.van_beijeren_suite(box, c))


# -- 13: folding and antisymmetric-boundary identities ----------------------

def test_folding_identity_boxes():
    for sides in ((3, 3), (3, 5)):
        box = BoxGraph(2, sides)
        c = Couplings(box, 1.0, 0.5)
        refl = reflection_for_axis(box, c, 0, (sides[0] - 1) // 2)
        x, y = sorted(refl.lambda1)[:2]
        lhs, rhs = folding.folded_correlation_identity(refl, x, y)
        assert abs(lhs - rhs) <= 1e-10
        rep = folding.dobrushin_identities(box, c, axis=0)
        assert abs(rep["ratio_folded"] - rep["ratio_spin"]) <= 1e-10
        assert abs(rep["mag_folded"] - rep["mag_spin"]) <= 1e-10
        assert rep["van_beijeren_ok"]


def test_chain_fold_landmark():
    from isinglab.graphs import _build_reflection
    g = Graph(5, [(i, i + 1) for i in range(4)])
    c = Couplings(g, 1.0, 0.6)
    refl = _build_reflection(g, c, {i: 4 - i for i in range(5)})
    lhs, rhs = folding.folded_correlation_identity(refl, 1, 0)
    t = math.tanh(0.6)
    assert abs(lhs - rhs) <= 1e-14
    assert abs(lhs - t ** 3) <= 1e-14     # t * t^2 = t^3


# -- 14: seeded samplers: coverage and bit-identical reruns -----------------

def test_sampler_coverage_and_determinism():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    c = Couplings(g, 1.0, 0.45)
    exact = spins.expectation(g, c, [0, 2])
    hits = 0
    for seed in range(100):
        spec = samplers.ChainSpec(seed=seed, burn_in=100, sweeps=800)
        r = samplers.metropolis_spin(
            g, c, {"c": lambda s: float(s[0] * s[2])}, spec=spec)["c"]
        if abs(r.mean - exact) <= 4.0 * r.stderr:
            hits += 1
    assert hits >= 95
    spec = samplers.ChainSpec(seed=42, burn_in=100, sweeps=500)
    runs = [samplers.metropolis_spin(
        g, c, {"c": lambda s: float(s[0] * s[2])}, spec=spec)["c"]
        for _ in range(2)]
    assert runs[0].mean == runs[1].mean
    assert runs[0].stderr == runs[1].stderr
    sw = [samplers.swendsen_wang(
        g, c, {"c": lambda s, oe: float(s[0] * s[2])}, spec=spec)["c"]
        for _ in range(2)]
    assert sw[0].mean == sw[1].mean


def test_cluster_and_rejection_coverage():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    c = Couplings(g, 1.0, 0.45)
    exact = spins.expectation(g, c, [0, 2])
    hits = 0
    for seed in range(100):
        spec = samplers.ChainSpec(seed=seed, burn_in=50, sweeps=600)
        r = samplers.swendsen_wang(
            g, c, {"c": lambda s, oe: float(s[0] * s[2])}, spec=spec)["c"]
        if abs(r.mean - exact) <= 4.0 * r.stderr:
            hits += 1
    assert hits >= 95


# -- 15: what is deliberately out of reach ----------------------------------

def test_asymptotics_replaced_by_finite_volume_monotonicity():
    """Infinite-volume statements (sharp phase transition, critical
    exponents, area/perimeter laws as the box grows, surface-tension
    limits) are not reproducible at enumeration scale.  The suite instead
    certifies their finite-volume shadows: the surface tension per unit
    area grows with the coupling, and the deconfinement bound chain holds
    at every tested size.
    """
    box = BoxGraph(2, (3, 3))
    taus = [doubled.surface_tension_ratio(box, Couplings(box, 1.0, b))
            for b in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(t > 0.0 for t in taus)
    assert taus == sorted(taus)
    # Wilson expectation decreases with loop area at fixed beta (the
    # finite-size reflection of the area law)
    cx = gauge.PlaquetteComplex(2, (3, 3))
    ws = []
    for ell in (1, 2, 3):
        loop = gauge.rectangular_loop(cx, (0, 1), (0, 0), (ell, ell))
        ws.append(gauge.wilson_expectation(cx, 0.5, loop))
    assert ws == sorted(ws, reverse=True)
