"""`current_sum` and `backbone_grouping` enumerate the 3^E trichotomy states
in numpy chunks.  The per-state recursions they replaced are kept here as
the reference: every sum and every backbone group must come out the same,
compared by repr.  The recursion also keeps its per-state event, the
reference for the connection probability of the single-current support
law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_instance
from isinglab import backbone, currents
from isinglab.backbone import _walk, extract_backbone
from isinglab.currents import (EVENPOS, ODD, ZERO, EdgeStateConfig,
                               SourceConstraint, SupportView,
                               correlation_via_currents, current_sum,
                               edge_weight_table, single_support_expectations)
from isinglab.graphs import BoxGraph, Couplings, Graph
from ref_support import satisfied_by


# ---------------------------------------------------------------------------
# reference: the per-state recursions


def _ref_current_sum(graph, couplings, constraint, signed=False, event=None):
    E = graph.n_edges
    weights = edge_weight_table(couplings)
    sign_edges = couplings.negative_edges()
    ends = graph.edges
    terms = []
    states = [ZERO] * E

    def rec(e, w, parity, neg_parity):
        if e == E:
            odd = frozenset(v for v in range(graph.n) if parity & (1 << v))
            if not satisfied_by(constraint, odd):
                return
            t = w
            if signed and (neg_parity & 1):
                t = -t
            if event is not None:
                cfg = EdgeStateConfig(graph, tuple(states))
                ev = event(cfg)
                if ev is False or ev == 0:
                    return
                if ev is not True:
                    t *= ev
            terms.append(t)
            return
        w0, wo, we = weights[e]
        u, v = ends[e]
        states[e] = ZERO
        rec(e + 1, w * w0, parity, neg_parity)
        if wo:
            states[e] = ODD
            rec(e + 1, w * wo, parity ^ (1 << u) ^ (1 << v),
                neg_parity + (1 if e in sign_edges else 0))
        if we:
            states[e] = EVENPOS
            rec(e + 1, w * we, parity, neg_parity)
        states[e] = ZERO

    rec(0, 1.0, 0, 0)
    return math.fsum(terms)


def _ref_backbone_grouping(graph, couplings, A):
    E = graph.n_edges
    A = frozenset(A)
    weights = edge_weight_table(couplings)
    neg = couplings.negative_edges()
    terms = {}

    def rec(e, w, states):
        if e == E:
            cfg = EdgeStateConfig(graph, tuple(states))
            if cfg.odd_vertices() != A:
                return
            paths = tuple(extract_backbone(cfg, A))
            odd = cfg.odd_edges
            for p in paths:
                assert not (p.blocked - frozenset(p.edges)) & odd
            if len(odd & neg) % 2:
                w = -w
            terms.setdefault(paths, []).append(w)
            return
        for s, wgt in enumerate(weights[e]):
            if wgt == 0.0 and s != 0:
                continue
            states.append(s)
            rec(e + 1, w * wgt, states)
            states.pop()

    rec(0, 1.0, [])
    z = _ref_current_sum(graph, couplings,
                         SourceConstraint.exact(frozenset()),
                         signed=bool(neg))
    return {paths: math.fsum(ws) / z for paths, ws in terms.items()}


# ---------------------------------------------------------------------------
# instances


def _box(sides, signed, seed):
    g = BoxGraph(2, sides)
    rng = np.random.default_rng(seed)
    lo = -1.5 if signed else 0.5
    J = [float(j) for j in rng.uniform(lo, 1.5, size=g.n_edges)]
    return g, Couplings(g, J, 0.6)


def _constraints(g):
    last = g.n - 1
    return [SourceConstraint.exact(frozenset()),
            SourceConstraint.exact({0, last}),
            SourceConstraint.exact({0, 1, last - 1, last}),
            SourceConstraint.relaxed_on_boundary(frozenset(), {0, last}),
            SourceConstraint.relaxed_on_boundary({1}, {0, last})]


def _assert_sums_match(g, c, constraint):
    for signed in (False, True):
        got = current_sum(g, c, constraint, signed=signed)
        want = _ref_current_sum(g, c, constraint, signed=signed)
        assert repr(got) == repr(want)


def _assert_groupings_match(g, c, A):
    got = backbone.backbone_grouping(g, c, A)
    want = _ref_backbone_grouping(g, c, A)
    assert repr(list(got.items())) == repr(list(want.items()))


@pytest.mark.parametrize("sides", [(2, 3), (3, 2), (2, 4)])
@pytest.mark.parametrize("signed", [False, True])
def test_box_sums_and_groupings_match_recursion(sides, signed):
    g, c = _box(sides, signed, seed=sum(sides) + signed)
    for constraint in _constraints(g):
        _assert_sums_match(g, c, constraint)
    last = g.n - 1
    for A in ({0, last}, {0, 1, last - 1, last}, {0, 1, 2}):
        _assert_groupings_match(g, c, A)
    assert repr(correlation_via_currents(g, c, {0, last})) == repr(
        _ref_current_sum(g, c, SourceConstraint.exact({0, last}),
                         signed=signed)
        / _ref_current_sum(g, c, SourceConstraint.exact(frozenset()),
                           signed=signed))


@pytest.mark.parametrize("signed", [False, True])
def test_3x3_matches_recursion_across_chunks(signed):
    # 12 edges: nine chunks, each one prefix state over the last 10 edges
    g, c = _box((3, 3), signed, seed=33 + signed)
    got = current_sum(g, c, SourceConstraint.exact({0, 8}), signed=signed)
    want = _ref_current_sum(g, c, SourceConstraint.exact({0, 8}),
                            signed=signed)
    assert repr(got) == repr(want)
    if signed:
        _assert_groupings_match(g, c, {0, 8})


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 1, 3, 10]))
@settings(max_examples=60, deadline=None)
def test_fuzz_signed_graphs_match_recursion(seed, suffix_edges):
    """Random signed graphs of at most 8 edges; a short suffix forces many
    chunks and a long prefix table, so the split is exercised too."""
    rng = np.random.default_rng(seed)
    g, c = random_instance(rng, max_vertices=5, max_edges=8, ferro=False)
    V = list(g.vertices)
    A = frozenset(rng.choice(V, 2, replace=False).tolist())
    B = frozenset(rng.choice(V, 2, replace=False).tolist())
    saved = currents._SUFFIX_EDGES
    currents._SUFFIX_EDGES = suffix_edges
    try:
        for constraint in (SourceConstraint.exact(frozenset()),
                           SourceConstraint.exact(A),
                           SourceConstraint.relaxed_on_boundary(A - B, B)):
            _assert_sums_match(g, c, constraint)
        _assert_groupings_match(g, c, A)
    finally:
        currents._SUFFIX_EDGES = saved


def test_high_vertex_ids_isolated_vertices_and_zero_weight_edge():
    # ids past 63 and isolated vertices: parity bits number touched
    # vertices only; J = 0 leaves Odd and EvenPos out of that edge
    g = Graph(70, [(0, 1), (1, 65), (65, 66), (0, 66), (1, 66), (3, 65)])
    c = Couplings(g, [0.7, -0.4, 0.9, 0.0, 0.5, 1.1], 0.8)
    for constraint in (SourceConstraint.exact(frozenset()),
                       SourceConstraint.exact({0, 65}),
                       SourceConstraint.exact({3, 66}),
                       SourceConstraint.exact({2, 65}),     # 2 is isolated
                       SourceConstraint.relaxed_on_boundary({0}, {65, 69}),
                       SourceConstraint.relaxed_on_boundary({69}, {65})):
        _assert_sums_match(g, c, constraint)
    for A in ({0, 65}, {1, 3, 65, 66}, {2, 65}, {69, 0}):
        _assert_groupings_match(g, c, A)
    assert current_sum(g, c, SourceConstraint.exact({2, 65})) == 0.0


def test_zero_beta_and_edgeless_graphs():
    g = Graph(3, [(0, 1), (1, 2)])
    c = Couplings(g, 1.0, 0.0)
    _assert_sums_match(g, c, SourceConstraint.exact(frozenset()))
    _assert_sums_match(g, c, SourceConstraint.exact({0, 2}))
    _assert_groupings_match(g, c, {0, 2})
    empty = Graph(2, [])
    c0 = Couplings(empty, 1.0, 0.5)
    assert current_sum(empty, c0, SourceConstraint.exact(frozenset())) == 1.0
    _assert_sums_match(empty, c0, SourceConstraint.exact({0, 1}))


@pytest.mark.parametrize("beta", [0.2, 0.35, 0.9])
@pytest.mark.parametrize("sides,sites", [((2, 3), (0, 4)), ((3, 3), (0, 4)),
                                         ((2, 4), (0, 7))])
def test_single_law_connection_matches_recursion(sides, sites, beta):
    # the exact side of `sample currents`: the weight of the sourceless
    # states whose support connects the two sites, over their total; the
    # sigma sum cancels, so it agrees to rounding, not bit for bit
    g = BoxGraph(2, sides)
    rng = np.random.default_rng(7)
    c = Couplings(g, [float(j) for j in rng.uniform(-1.5, 1.5, g.n_edges)],
                  beta)
    x, y = sites
    got = single_support_expectations(
        g, c, {"c": lambda labels: labels.connected(x, y)})["c"]
    constraint = SourceConstraint.exact(frozenset())
    num = _ref_current_sum(g, c, constraint, event=lambda cfg: SupportView(
        g, cfg.support).connected(x, y))
    assert got == pytest.approx(num / _ref_current_sum(g, c, constraint),
                                rel=1e-12, abs=0)


def test_chunks_visit_states_in_recursion_order():
    g, c = _box((2, 2), True, seed=3)
    E = g.n_edges
    weights = edge_weight_table(c)
    seen = []
    _ref_current_sum(g, c, SourceConstraint.relaxed_on_boundary(
        frozenset(), set(g.vertices)), event=lambda cfg: seen.append(cfg)
        or True)
    saved = currents._SUFFIX_EDGES
    currents._SUFFIX_EDGES = 2
    try:
        chunks = list(currents._trichotomy_chunks(g, c))
    finally:
        currents._SUFFIX_EDGES = saved
    assert len(chunks) == 3 ** (E - 2)
    w = np.concatenate([ch[0] for ch in chunks])
    odd = np.concatenate([ch[2] for ch in chunks])
    assert len(w) == len(seen) == 3 ** E
    for i, cfg in enumerate(seen):
        assert odd[i] == sum(1 << e for e in cfg.odd_edges)
        want = 1.0
        for e, s in enumerate(cfg.states):
            want *= weights[e][s]
        assert float(w[i]) == want


def test_grouping_walks_each_odd_set_once(monkeypatch):
    g, c = _box((2, 3), False, seed=5)
    calls = []

    def counting_walk(graph, odd_edges, sources):
        calls.append(frozenset(odd_edges))
        return _walk(graph, odd_edges, sources)

    monkeypatch.setattr(backbone, "_walk", counting_walk)
    backbone.backbone_grouping(g, c, {0, 5})
    assert len(calls) == len(set(calls)) > 1
