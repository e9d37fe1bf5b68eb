import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_instance
from isinglab.graphs import BoundarySpec, BoxGraph, Couplings, Graph
from isinglab import currents, doubled, fk, spins
from ref_double import double_sum_direct, ref_switching


def test_two_point_squared_is_connection_probability(triangle):
    c = Couplings(triangle, 1.0, math.atanh(0.5))
    corr = spins.expectation(triangle, c, [0, 1])
    p = doubled.double_event_probability(
        triangle, c, frozenset(), frozenset(),
        lambda labels: labels.connected(0, 1))
    assert p == pytest.approx(corr * corr, abs=1e-12)
    # landmark: (2/3)^2 = 4/9 at t = 1/2
    assert p == pytest.approx(4.0 / 9.0, abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_xtoy_fuzz(seed):
    rng = np.random.default_rng(seed)
    g, c = random_instance(rng, max_vertices=5, max_edges=7)
    x, y = rng.choice(g.n, 2, replace=False).tolist()
    corr = spins.expectation(g, c, [x, y])
    p = doubled.double_event_probability(
        g, c, frozenset(), frozenset(),
        lambda labels: labels.connected(x, y))
    assert p == pytest.approx(corr * corr, abs=1e-10)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_switching_fuzz(seed):
    rng = np.random.default_rng(seed)
    g, c = random_instance(rng, max_vertices=5, max_edges=6)
    V = list(g.vertices)
    pick = lambda: frozenset(rng.choice(V, 2, replace=False).tolist())
    A1, A2, B = pick(), pick(), pick()
    lhs, rhs, diff = doubled.verify_switching(g, c, A1, A2, B)
    assert diff <= 1e-10 * max(1.0, abs(lhs))


def test_switching_with_event(triangle):
    c = Couplings(triangle, [0.9, 0.4, 0.7], 1.0)
    F = lambda labels: labels.connected(0, 2)
    lhs, rhs, diff = doubled.verify_switching(
        triangle, c, frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 1}),
        F=F)
    assert diff <= 1e-12
    direct = lambda A1, A2: double_sum_direct(
        triangle, c, A1, A2, lambda st_: float(
            st_.view().pairable({0, 1}) and st_.view().connected(0, 2)))
    assert lhs == pytest.approx(direct({0, 1}, {1, 2}), rel=1e-12)
    assert rhs == pytest.approx(direct(set(), {0, 2}), rel=1e-12)


def _nested_instances(seed, count):
    """Random graphs with sources A1, A2, a switching set B and, for every
    other instance, a proper edge subset E2 carrying n2 (None: all edges)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        g, c = random_instance(rng, max_vertices=5, max_edges=7, ferro=False)
        V = list(g.vertices)
        pick = lambda: frozenset(rng.choice(V, 2, replace=False).tolist())
        A1, A2, B = pick(), pick(), pick()
        r = rng.random()
        if r < 0.4:
            A1 = frozenset()
        if r < 0.2:
            A2 = frozenset()
        edges2 = None
        if len(out) % 2:
            keep = [e for e in range(g.n_edges) if rng.random() < 0.6]
            touched = {v for e in keep for v in g.edges[e]}
            if not (keep and len(keep) < g.n_edges and A2 <= touched
                    and (A2 ^ B) <= touched):
                continue
            edges2 = keep
        out.append((g, c, A1, A2, B, edges2))
    return out


def _close(got, want):
    # an exact zero stays exactly 0; everything else to 1e-12 relative
    return got == want if want == 0.0 else abs(got - want) <= 1e-12 * abs(
        want)


def test_support_measure_matches_direct():
    # totals, an event and both switching sides, on full and nested edge
    # sets with and without sources, against the per-class recursion
    nested = 0
    for g, c, A1, A2, B, edges2 in _nested_instances(0, 80):
        nested += edges2 is not None
        m = doubled.DoubleSupportMeasure(g, c, list(g.vertices), A1, A2,
                                         edges2)
        got = currents._support_sums(
            g, m._bit_edges, m._W,
            {"c": lambda labels: labels.connected(0, 1)})
        assert _close(got["_total"], double_sum_direct(
            g, c, A1, A2, lambda st_: 1.0, edges2))
        assert _close(got["c"], double_sum_direct(
            g, c, A1, A2, lambda st_: float(st_.view().connected(0, 1)),
            edges2))
        lhs, rhs, _ = doubled.verify_switching(g, c, A1, A2, B,
                                               edges2=edges2)
        want_lhs, want_rhs = ref_switching(g, c, A1, A2, B, edges2)
        assert _close(lhs, want_lhs) and _close(rhs, want_rhs)
    assert nested == 40


# two draws of the benchmark's switching generator (bench/battery.py
# _switching_instance, seed 1, batteries 0 and 2), copied as literals
_OFF_EDGE_SOURCE = (
    Graph(5, [(0, 1), (0, 3), (1, 2), (1, 3)]),
    [0.63539014830243778, 1.3717656643043701, 1.2771037128364071,
     0.55414299583181592], 0.77427685674733371, {3, 4}, {1, 3}, {3, 4})
_UNPAIRABLE_DIFFERENCE = (
    Graph(5, [(0, 1), (0, 2), (0, 4), (2, 4)]),
    [1.020944865607623, 0.94164970682685434, 1.1020104316627959,
     1.4649592454097653], 0.61650375601815521, {3, 4}, {2, 4}, {1, 4})


def test_switching_side_without_currents_is_zero():
    # vertex 4 sits off every edge, so no current pair has the sources of
    # either side: both raw sums are 0, not a division by a zero total
    g, J, beta, A1, A2, B = _OFF_EDGE_SOURCE
    c = Couplings(g, J, beta)
    assert doubled.verify_switching(g, c, A1, A2, B) == (0.0, 0.0, 0.0)
    assert ref_switching(g, c, A1, A2, B) == (0.0, 0.0)


def test_unpairable_source_difference_weighs_exactly_zero():
    # A1 xor A2 = {2, 3} pairs in no support (vertex 3 is isolated); G has
    # no subgraph with that boundary, so every weight is the direct
    # engine's exact 0 (a signed sigma sum left residues of order 1e-18)
    g, J, beta, A1, A2, B = _UNPAIRABLE_DIFFERENCE
    c = Couplings(g, J, beta)
    assert ref_switching(g, c, A1, A2, B) == (0.0, 0.0)
    assert doubled.verify_switching(g, c, A1, A2, B) == (0.0, 0.0, 0.0)
    m = doubled.DoubleSupportMeasure(g, c, list(g.vertices), A1, A2)
    assert not np.any(m._W)
    assert currents._support_sums(g, m._bit_edges, m._W,
                                  {})["_total"] == 0.0


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_ursell_identities_fuzz(seed):
    rng = np.random.default_rng(seed)
    g, c = random_instance(rng, max_vertices=5, max_edges=6)
    if g.n < 4:
        return
    x1, x2, x3, x4 = rng.choice(g.n, 4, replace=False).tolist()
    u4 = spins.ursell4(g, c, x1, x2, x3, x4)
    va, vb = doubled.ursell4_via_currents(g, c, x1, x2, x3, x4)
    assert va == pytest.approx(u4, abs=1e-10)
    assert vb == pytest.approx(u4, abs=1e-10)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_frustration_identities_fuzz(seed):
    rng = np.random.default_rng(seed)
    g, c = random_instance(rng, max_vertices=5, max_edges=6, ferro=False)
    z_ratio = (spins.partition_function(g, c)
               / spins.partition_function(g, c.with_abs()))
    assert doubled.frustrated_partition_ratio(g, c) == pytest.approx(
        z_ratio, abs=1e-10)
    u, v = rng.choice(g.n, 2, replace=False).tolist()
    lhs = (spins.expectation(g, c, [u, v])
           * spins.expectation(g, c.with_abs(), [u, v]))
    assert doubled.frustration_identities(g, c, u, v)[1] == pytest.approx(
        lhs, abs=1e-10)


def test_frustrated_triangle_landmark():
    # one negative edge at tanh K = 1/2: Z(J)/Z(|J|) = (1 - t^3)/(1 + t^3)
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    c = Couplings(g, [1.0, 1.0, -1.0], math.atanh(0.5))
    assert doubled.frustrated_partition_ratio(g, c) == pytest.approx(
        7.0 / 9.0, abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_disorder_identity_fuzz(seed):
    rng = np.random.default_rng(seed)
    g, c = random_instance(rng, max_vertices=5, max_edges=6)
    nflip = int(rng.integers(0, g.n_edges + 1))
    flip = rng.choice(g.n_edges, nflip, replace=False).tolist()
    lhs = (spins.partition_function(g, c.with_flipped(flip))
           / spins.partition_function(g, c))
    assert doubled.disorder_expectation(g, c, flip) == pytest.approx(
        lhs, abs=1e-10)


def test_disorder_with_zero_couplings_in_the_flip_set():
    # a flipped J = 0 edge is -0.0, not negative, and never in a support
    box = BoxGraph(2, (3, 3))
    rng = np.random.default_rng(4)
    J = [float(j) for j in rng.uniform(0.5, 1.5, box.n_edges)]
    J[2] = J[7] = 0.0
    c = Couplings(box, J, 0.6)
    for flip in ([2], [0, 2, 7], [1, 4, 9]):
        want = spins.partition_ratio(box, c.with_flipped(flip), c)
        assert doubled.disorder_expectation(box, c, flip) == pytest.approx(
            want, rel=1e-12)


def _pm_box(sides, beta):
    box = BoxGraph(2, sides)
    c = Couplings(box, 1.0, beta)
    bdry = box.boundary_vertices()
    axis = 0
    mid = (sides[0] - 1) / 2.0
    desig = {v: (BoundarySpec.MINUS if box.coords[v][axis] < mid
                 else BoundarySpec.PLUS) for v in bdry}
    return box, c, BoundarySpec(desig)


@pytest.mark.parametrize("sides", [(3, 3), (3, 4)])
def test_boundary_partition_ratio(sides):
    box, c, bspec = _pm_box(sides, 0.45)
    ratio = doubled.boundary_identities(box, c, bspec)[0]
    z_pm = spins.partition_function(box, c, boundary=bspec)
    z_p = spins.partition_function(box, c, boundary=bspec.all_plus())
    assert ratio == pytest.approx(z_pm / z_p, abs=1e-10)


def test_boundary_magnetization_formulas():
    box, c, bspec = _pm_box((3, 3), 0.5)
    x = sorted(bspec.interior(box))[0]
    _, plus_prob, pm_expr = doubled.boundary_identities(box, c, bspec, x)
    m_plus = spins.expectation(box, c, [x], boundary=bspec.all_plus())
    m_pm = spins.expectation(box, c, [x], boundary=bspec)
    # the plus-connection probability is the SQUARE of the + magnetization
    assert plus_prob == pytest.approx(m_plus * m_plus, abs=1e-10)
    assert pm_expr == pytest.approx(m_pm * m_plus, abs=1e-10)


def test_free_boundary_designation_is_refused():
    # the spin side clamps a designated vertex +, while the law would leave
    # it unconstrained: z_ratio_boundary read 0.569 against 0.611 here
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 3), (5, 6)])
    c = Couplings(g, [0.7, 0.8, 0.9, 1.0, 0.75, 0.85, 0.95], 0.7)
    bspec = BoundarySpec({0: BoundarySpec.MINUS, 4: BoundarySpec.PLUS,
                          6: BoundarySpec.FREE})
    for call in (lambda: doubled.boundary_identities(g, c, bspec),
                 lambda: doubled.boundary_identities(g, c, bspec, 2),
                 lambda: fk.fk_boundary_report(g, c, bspec),
                 lambda: fk.fk_boundary_report(g, c, bspec, 2)):
        with pytest.raises(ValueError, match="free"):
            call()


def test_surface_tension_positive_and_increasing():
    box = BoxGraph(2, (3, 3))
    taus = [doubled.surface_tension_ratio(box, Couplings(box, 1.0, b))
            for b in (0.3, 0.6, 0.9)]
    assert all(t > 0 for t in taus)
    assert taus == sorted(taus)


def source_overlap_ratio(graph, couplings, A, B):
    """E^{A xor B, 0}(1_A[n1+n2]) for a pair A, where 1_A says that A's two
    vertices are connected; equals <s_A><s_B>/<s_A s_B>."""
    A, B = frozenset(A), frozenset(B)
    return doubled.double_event_probability(
        graph, couplings, A ^ B, frozenset(),
        lambda labels: labels.connected(*A))


def test_source_overlap_ratio(triangle):
    c = Couplings(triangle, [0.6, 0.9, 0.4], 1.0)
    A, B = frozenset({0, 1}), frozenset({1, 2})
    val = source_overlap_ratio(triangle, c, A, B)
    s = lambda S: spins.expectation(triangle, c, sorted(S))
    assert val == pytest.approx(s(A) * s(B) / s(A ^ B), abs=1e-12)
    pair_a = lambda st_: 1.0 if st_.view().pairable(A) else 0.0
    direct = (double_sum_direct(triangle, c, A ^ B, (), pair_a)
              / double_sum_direct(triangle, c, A ^ B, (), lambda st_: 1.0))
    assert val == pytest.approx(direct, rel=1e-12)


def test_double_law_at_twenty_pattern_bits():
    # 3x4 plus three chords: 20 edges, the largest law under the cap
    box = BoxGraph(2, [3, 4])
    g = Graph(12, list(box.edges) + [(0, 5), (6, 11), (2, 9)])
    assert g.n_edges == 20
    c = Couplings(g, 1.0, 0.3)
    p = doubled.double_event_probability(
        g, c, frozenset(), frozenset(), lambda labels: labels.connected(0, 11))
    assert p == pytest.approx(spins.expectation(g, c, [0, 11]) ** 2,
                              rel=1e-12)


def test_frustrated_ratio_at_nineteen_pattern_bits():
    box = BoxGraph(2, [2, 7])
    assert box.n_edges == 19
    J = np.random.default_rng(7).uniform(-1.0, 1.0, box.n_edges)
    c = Couplings(box, J.tolist(), 0.6)
    assert doubled.frustrated_partition_ratio(box, c) == pytest.approx(
        spins.partition_ratio(box, c, c.with_abs()), rel=1e-12)
