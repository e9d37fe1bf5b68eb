"""`current_sum` and `backbone_grouping` enumerate the 3^E trichotomy states
in numpy chunks.  The per-state recursions they replaced are kept here as
the reference: every sum, every event call and every backbone group must
come out the same, compared by repr."""

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
                               edge_weight_table)
from isinglab.graphs import BoxGraph, Couplings, Graph


# ---------------------------------------------------------------------------
# reference: the per-state recursions


def _ref_current_sum(graph, couplings, constraint, signed=False, event=None,
                     sign_edges=None):
    E = graph.n_edges
    weights = edge_weight_table(couplings)
    if sign_edges is None:
        sign_edges = couplings.negative_edges()
    sign_edges = frozenset(sign_edges)
    ends = graph.edges
    terms = []
    states = [ZERO] * E

    def rec(e, w, parity, neg_parity):
        if e == E:
            odd = frozenset(v for v in range(graph.n) if parity & (1 << v))
            if not constraint.satisfied_by(odd):
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
        sign_edges = frozenset(e for e in range(g.n_edges) if e % 2)
        assert repr(current_sum(g, c, SourceConstraint.exact(A), signed=True,
                                sign_edges=sign_edges)) == repr(
            _ref_current_sum(g, c, SourceConstraint.exact(A), signed=True,
                             sign_edges=sign_edges))
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


def _recording(event):
    seen = []

    def fn(cfg):
        seen.append(cfg.states)
        return event(cfg)
    return fn, seen


@pytest.mark.parametrize("sides,sites", [((2, 3), (0, 4)), ((3, 3), (0, 4))])
def test_connection_event_matches_recursion(sides, sites):
    # the exact side of `sample currents`: weight of states whose support
    # connects the two sites, with the same event calls in the same order
    g, c = _box(sides, False, seed=7)
    x, y = sites

    def connected(cfg):
        return 1.0 if SupportView(g, cfg.support).connected(x, y) else 0.0

    fn, seen = _recording(connected)
    ref_fn, ref_seen = _recording(connected)
    constraint = SourceConstraint.exact(frozenset())
    got = current_sum(g, c, constraint, event=fn)
    want = _ref_current_sum(g, c, constraint, event=ref_fn)
    assert repr(got) == repr(want)
    assert seen == ref_seen


def test_event_return_values_match_recursion():
    # False and 0 drop a state, True keeps it, anything else scales it
    g, c = _box((2, 3), True, seed=11)
    events = [
        lambda cfg: cfg.states[0] == ODD,
        lambda cfg: len(cfg.support) % 3,
        lambda cfg: 0.5 * len(cfg.odd_edges) - 1.0,
        lambda cfg: np.bool_(EVENPOS in cfg.states),
        lambda cfg: True,
    ]
    for event in events:
        for constraint in (SourceConstraint.exact({0, 5}),
                           SourceConstraint.relaxed_on_boundary({1}, {5})):
            for signed in (False, True):
                got = current_sum(g, c, constraint, signed=signed,
                                  event=event)
                want = _ref_current_sum(g, c, constraint, signed=signed,
                                        event=event)
                assert repr(got) == repr(want)


def test_chunks_visit_states_in_recursion_order():
    g, c = _box((2, 2), True, seed=3)
    E = g.n_edges
    seen = []
    _ref_current_sum(g, c, SourceConstraint.relaxed_on_boundary(
        frozenset(), set(g.vertices)), event=lambda cfg: seen.append(cfg)
        or True)
    saved = currents._SUFFIX_EDGES
    currents._SUFFIX_EDGES = 2
    try:
        chunks = list(currents._trichotomy_chunks(g, c, c.negative_edges()))
    finally:
        currents._SUFFIX_EDGES = saved
    assert len(chunks) == 3 ** (E - 2)
    w = np.concatenate([ch[0] for ch in chunks])
    odd = np.concatenate([ch[2] for ch in chunks])
    even = np.concatenate([ch[3] for ch in chunks])
    assert len(w) == len(seen) == 3 ** E
    for i, cfg in enumerate(seen):
        assert odd[i] == sum(1 << e for e in cfg.odd_edges)
        assert even[i] == sum(1 << e for e, s in enumerate(cfg.states)
                              if s == EVENPOS)


def test_grouping_walks_each_odd_set_once(monkeypatch):
    g, c = _box((2, 3), False, seed=5)
    calls = []

    def counting_walk(graph, odd_edges, sources):
        calls.append(frozenset(odd_edges))
        return _walk(graph, odd_edges, sources)

    monkeypatch.setattr(backbone, "_walk", counting_walk)
    backbone.backbone_grouping(g, c, {0, 5})
    assert len(calls) == len(set(calls)) > 1
