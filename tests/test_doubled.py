import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_instance
from isinglab.graphs import BoundarySpec, BoxGraph, Couplings, Graph
from isinglab import doubled, spins


def test_two_point_squared_is_connection_probability(triangle):
    c = Couplings(triangle, 1.0, math.atanh(0.5))
    corr = spins.expectation(triangle, c, [0, 1])
    p = doubled.double_event_probability(
        triangle, c, frozenset(), frozenset(),
        lambda st_: 1.0 if st_.view().connected(0, 1) else 0.0)
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
        lambda st_: 1.0 if st_.view().connected(x, y) else 0.0)
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
    F = lambda st_: 1.0 if st_.view().connected(0, 2) else 0.0
    lhs, rhs, diff = doubled.verify_switching(
        triangle, c, frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 1}),
        F=F)
    assert diff <= 1e-12


def test_support_measure_matches_direct(triangle):
    c = Couplings(triangle, [0.8, 0.5, 0.3], 1.0)
    direct = doubled.double_event_probability(
        triangle, c, frozenset({0, 1}), frozenset(),
        lambda st_: 1.0 if st_.view().connected(0, 2) else 0.0)
    fast = doubled.double_support_expectations(
        triangle, c, list(triangle.vertices), frozenset({0, 1}), frozenset(),
        {"e": lambda labels: labels.connected(0, 2)})["e"]
    assert fast == pytest.approx(direct, abs=1e-12)


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
    assert doubled.frustrated_correlation(g, c, u, v) == pytest.approx(
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
    ratio = doubled.boundary_partition_ratio(box, c, bspec)
    z_pm = spins.partition_function(box, c, boundary=bspec)
    z_p = spins.partition_function(box, c, boundary=bspec.all_plus())
    assert ratio == pytest.approx(z_pm / z_p, abs=1e-10)


def test_boundary_magnetization_formulas():
    box, c, bspec = _pm_box((3, 3), 0.5)
    x = sorted(bspec.interior(box))[0]
    bm = doubled.boundary_magnetization(box, c, bspec, x)
    m_plus = spins.expectation(box, c, [x], boundary=bspec.all_plus())
    m_pm = spins.expectation(box, c, [x], boundary=bspec)
    # the plus-connection probability is the SQUARE of the + magnetization
    assert bm.plus_prob == pytest.approx(m_plus * m_plus, abs=1e-10)
    assert bm.pm_expr == pytest.approx(m_pm * m_plus, abs=1e-10)


def test_surface_tension_positive_and_increasing():
    box = BoxGraph(2, (3, 3))
    taus = [doubled.surface_tension_ratio(box, Couplings(box, 1.0, b))
            for b in (0.3, 0.6, 0.9)]
    assert all(t > 0 for t in taus)
    assert taus == sorted(taus)


def test_source_overlap_ratio(triangle):
    c = Couplings(triangle, [0.6, 0.9, 0.4], 1.0)
    A, B = frozenset({0, 1}), frozenset({1, 2})
    val = doubled.source_overlap_ratio(triangle, c, A, B)
    s = lambda S: spins.expectation(triangle, c, sorted(S))
    assert val == pytest.approx(s(A) * s(B) / s(A ^ B), abs=1e-12)
