import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_instance
from isinglab.graphs import BoxGraph, Couplings, Graph
from isinglab import spins
from isinglab.currents import (ConstraintError, _fsum,
                               correlation_via_currents, current_sum,
                               edge_weight_table,
                               single_support_expectations)
from isinglab.spins import SizeError
from ref_flux import truncated_flux_sum
from ref_support import RefSupportView


def test_single_edge_partition():
    g = Graph(2, [(0, 1)])
    c = Couplings(g, 1.0, 0.7)
    z = current_sum(g, c, ())
    assert z == pytest.approx(math.cosh(0.7))
    z2 = current_sum(g, c, {0, 1})
    assert z2 == pytest.approx(math.sinh(0.7))


def test_correlation_matches_spin_oracle(triangle):
    c = Couplings(triangle, [0.8, 0.3, 0.5], 1.0)
    for A in ([0, 1], [0, 2], [1, 2]):
        assert correlation_via_currents(triangle, c, A) == pytest.approx(
            spins.expectation(triangle, c, A), abs=1e-12)


def test_odd_sources_rejected(triangle):
    c = Couplings(triangle, 1.0, 0.5)
    with pytest.raises(ConstraintError):
        current_sum(triangle, c, {0})


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_trichotomy_vs_truncated_flux(seed):
    """The 3-state pushforward equals the integer-flux sum (cutoff 40)."""
    rng = np.random.default_rng(seed)
    g, c = random_instance(rng, max_vertices=4, max_edges=5)
    V = list(g.vertices)
    A = frozenset() if rng.random() < 0.5 else \
        frozenset(rng.choice(V, 2, replace=False).tolist())
    lhs = current_sum(g, c, A)
    rhs = truncated_flux_sum(g, c, A)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_event_weighting_is_support_measurable(triangle):
    c = Couplings(triangle, 1.0, 0.5)
    z = current_sum(triangle, c, ())
    out = single_support_expectations(
        triangle, c, {"c": lambda labels: labels.connected(0, 1)})
    assert 0.0 < out["c"] < 1.0
    assert out["_total"] == pytest.approx(z, rel=1e-12)


@pytest.mark.parametrize("sides", [(2, 3), (3, 2), (3, 3), (2, 4), (3, 4)])
def test_single_law_total_matches_spin_oracle(sides):
    # sum_S W(S) = Z(|J|) / 2^n: the spin oracle shares no code with the
    # subgraph sums
    box = BoxGraph(2, sides)
    rng = np.random.default_rng(sum(sides))
    c = Couplings(box, [float(j) for j in rng.uniform(-1.5, 1.5,
                                                      box.n_edges)], 0.7)
    got = single_support_expectations(box, c, {})["_total"]
    want = spins.partition_function(box, c.with_abs())
    assert got == pytest.approx(want, rel=1e-12)


def test_single_law_size_caps(monkeypatch):
    from isinglab import currents

    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError("allocated past the cap")

    # the check comes first in `_subgraph_sums`, before any table
    monkeypatch.setattr(currents, "np", NoArrays())
    path21 = Graph(22, [(i, i + 1) for i in range(21)])     # 21 edges
    with pytest.raises(SizeError):
        single_support_expectations(path21, Couplings(path21, 1.0, 0.5), {})
    monkeypatch.undo()
    # 21 spins on 2 edges: the spins count for nothing
    spread = Graph(21, [(0, 1), (19, 20)])
    c = Couplings(spread, [0.9, -0.4], 0.5)
    got = single_support_expectations(
        spread, c, {"c": lambda labels: labels.connected(19, 20)})
    assert got["c"] == pytest.approx(1.0 - 1.0 / math.cosh(0.2), rel=1e-14)
    assert got["_total"] == pytest.approx(math.cosh(0.45) * math.cosh(0.2),
                                          rel=1e-14)


def test_single_law_is_accurate_at_small_K():
    # a 15-edge path: S is all of it with weight (cosh K - 1)^15, against a
    # total cosh(K)^15; a cancelling spin sum gave 3.3e-9 relative here
    g = Graph(16, [(i, i + 1) for i in range(15)])
    got = single_support_expectations(
        g, Couplings(g, 1.0, 0.5),
        {"c": lambda labels: labels.connected(0, 15)})["c"]
    c = math.cosh(0.5)
    assert got == pytest.approx(((c - 1.0) / c) ** 15, rel=1e-14, abs=0)


def test_support_view_connectivity():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    sv = RefSupportView(g, [0, 2])
    assert sv.connected(0, 1)
    assert not sv.connected(1, 2)
    assert sv.connects_sets({0}, {1})
    assert not sv.connects_sets({0}, {3})


def test_support_view_sign_and_ff():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    # negative edge on (0,1); the open triangle 0-1, 1-2 has sgn(0,2) = -1
    sv = RefSupportView(g, [0, 1])
    assert sv.is_ff(frozenset({0}))
    assert sv.sgn(0, 2, frozenset({0})) == -1.0
    assert sv.sgn(0, 2, frozenset()) == 1.0
    # closing the triangle with one negative edge frustrates it
    sv_all = RefSupportView(g, [0, 1, 2])
    assert not sv_all.is_ff(frozenset({0}))


def test_pairable_predicate(triangle):
    sv = RefSupportView(triangle, [0])  # edge 0 = (0,1)
    assert sv.pairable(frozenset({0, 1}))
    assert not sv.pairable(frozenset({0, 2}))
    assert sv.pairable(frozenset())


@pytest.mark.parametrize("sides,sources", [
    ((4, 4), [(0, 15), (0, 3, 12, 15)]),
    ((4, 5), [(0, 19)]),
])
def test_signed_boxes_past_twenty_edges_match_spin_oracle(sides, sources):
    # 24 and 31 edges, but cosets of dimension 9 and 12: the cap counts
    # the cycle space, not the edges
    g = BoxGraph(2, sides)
    rng = np.random.default_rng(sum(sides))
    c = Couplings(g, [float(j) for j in rng.uniform(-1.5, 1.5, g.n_edges)],
                  0.6)
    for A in sources:
        assert correlation_via_currents(g, c, A) == pytest.approx(
            spins.expectation(g, c, A), rel=0, abs=1e-12)


@pytest.mark.parametrize("beta", [709.9, 800.0])
def test_overflowing_weight_table_names_the_edge(beta):
    # at K = 709.9 sinh K is finite but the total e^K is not
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="edge 1: K = %r" % beta):
        edge_weight_table(Couplings(g, [1e-3, 1.0], beta))


def test_fsum_of_both_infinities_is_nan():
    # inf - inf has no sum: nan, so the row fails; finite terms whose sum
    # leaves the float range still raise
    terms = np.array([1.0, math.inf, -math.inf])
    assert math.isnan(_fsum([terms[:1], terms[1:]]))
    assert _fsum([terms[:2]]) == math.inf
    with pytest.raises(OverflowError):
        _fsum([np.array([1e308, 1e308])])
