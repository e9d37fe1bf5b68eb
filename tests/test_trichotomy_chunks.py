"""`current_sum` and `backbone_grouping` enumerate the odd sets with odd
vertices A, one coset of the cycle space, in numpy chunks (`gf2`).  Two
per-state recursions over all odd sets are kept here as references:

- the two-state recursion (even: cosh K, odd: sinh K) forms the same
  left-to-right products, so every sum and every backbone group must come
  out the same, compared by repr;
- the three-state recursion (Zero, Odd, EvenPos) is the trichotomy
  pushforward the odd sets sum up; its sums agree to rounding, and its
  grouping has the same backbones in the same order.  It also keeps its
  per-state event, the reference for the connection probability of the
  single-current support law.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_instance
from isinglab import backbone, currents, gf2
from isinglab.backbone import _walk, extract_backbone
from isinglab.currents import (EVENPOS, ODD, ZERO, ConstraintError,
                               EdgeStateConfig, SupportView,
                               correlation_via_currents,
                               current_sum, edge_weight_table,
                               single_support_expectations)
from isinglab.graphs import BoxGraph, Couplings, Graph


# ---------------------------------------------------------------------------
# reference: the two-state recursion over odd sets


def _odd_sets(graph, couplings):
    """(odd edges, signed weight) of every odd set of nonzero weight, in
    depth-first order: even before odd at each edge."""
    E = graph.n_edges
    neg = couplings.negative_edges()
    out = []

    def rec(e, w, odd):
        if e == E:
            out.append((frozenset(odd), -w if len(neg & set(odd)) % 2 else w))
            return
        K = couplings.K_abs(e)
        rec(e + 1, w * math.cosh(K), odd)
        if math.sinh(K):
            rec(e + 1, w * math.sinh(K), odd + [e])

    rec(0, 1.0, [])
    return out


def _odd_vertices(graph, odd):
    deg = [0] * graph.n
    for e in odd:
        for v in graph.edges[e]:
            deg[v] ^= 1
    return frozenset(v for v in range(graph.n) if deg[v])


def _two_state_sum(graph, couplings, A):
    A = frozenset(A)
    return math.fsum(w for odd, w in _odd_sets(graph, couplings)
                     if _odd_vertices(graph, odd) == A)


def _two_state_grouping(graph, couplings, A):
    A = frozenset(A)
    terms = {}
    for odd, w in _odd_sets(graph, couplings):
        if _odd_vertices(graph, odd) == A:
            terms.setdefault(tuple(_walk(graph, odd, A)), []).append(w)
    z = _two_state_sum(graph, couplings, ())
    return {paths: math.fsum(ws) / z for paths, ws in terms.items()}


# ---------------------------------------------------------------------------
# reference: the three-state recursion over trichotomy states


def _three_state_terms(graph, couplings, A, event=None):
    A = frozenset(A)
    E = graph.n_edges
    weights = edge_weight_table(couplings)
    sign_edges = couplings.negative_edges()
    ends = graph.edges
    terms = []
    states = [ZERO] * E

    def rec(e, w, parity, neg_parity):
        if e == E:
            odd = frozenset(v for v in range(graph.n) if parity & (1 << v))
            if odd != A:
                return
            t = -w if neg_parity & 1 else w
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
    return terms


def _three_state_sum(graph, couplings, A, event=None):
    return math.fsum(_three_state_terms(graph, couplings, A, event))


def _three_state_grouping(graph, couplings, A):
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
    z = _three_state_sum(graph, couplings, ())
    return {paths: math.fsum(ws) / z for paths, ws in terms.items()}


# ---------------------------------------------------------------------------
# instances and comparisons


def _box(sides, signed, seed):
    g = BoxGraph(2, sides)
    rng = np.random.default_rng(seed)
    lo = -1.5 if signed else 0.5
    J = [float(j) for j in rng.uniform(lo, 1.5, size=g.n_edges)]
    return g, Couplings(g, J, 0.6)


def _source_sets(g):
    last = g.n - 1
    return [(), (0, last), (0, 1, last - 1, last)]


def _assert_sum_matches(g, c, A):
    got = current_sum(g, c, A)
    assert repr(got) == repr(_two_state_sum(g, c, A))
    # relative to sum |t|: a signed sum may cancel to near zero
    terms = _three_state_terms(g, c, A)
    scale = math.fsum(abs(t) for t in terms)
    assert abs(got - math.fsum(terms)) <= 1e-13 * scale


def _assert_grouping_matches(g, c, A):
    got = backbone.backbone_grouping(g, c, A)
    assert repr(list(got.items())) == repr(
        list(_two_state_grouping(g, c, A).items()))
    pushed = _three_state_grouping(g, c, A)
    assert list(got) == list(pushed)
    for paths, w in got.items():
        assert w == pytest.approx(pushed[paths], rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("sides", [(2, 3), (3, 2), (2, 4)])
@pytest.mark.parametrize("signed", [False, True])
def test_box_sums_and_groupings_match_recursion(sides, signed):
    g, c = _box(sides, signed, seed=sum(sides) + signed)
    for A in _source_sets(g):
        _assert_sum_matches(g, c, A)
    last = g.n - 1
    for A in ({0, last}, {0, 1, last - 1, last}):
        _assert_grouping_matches(g, c, A)
    with pytest.raises(ConstraintError):
        backbone.backbone_grouping(g, c, {0, 1, 2})
    assert repr(correlation_via_currents(g, c, {0, last})) == repr(
        _two_state_sum(g, c, {0, last}) / _two_state_sum(g, c, ()))


@pytest.mark.parametrize("signed", [False, True])
def test_3x3_matches_recursion_across_chunks(monkeypatch, signed):
    # 12 edges, a coset of dimension 4: four chunks of 2^2 odd sets
    monkeypatch.setattr(gf2, "_CHUNK_BITS", 2)
    g, c = _box((3, 3), signed, seed=33 + signed)
    _assert_sum_matches(g, c, {0, 8})
    if signed:
        _assert_grouping_matches(g, c, {0, 8})


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 1, 3, 16]))
@settings(max_examples=60, deadline=None)
def test_fuzz_signed_graphs_match_recursion(seed, chunk_bits):
    """Random signed graphs of at most 8 edges; short chunks put most of the
    basis in the per-chunk prefix, so the split is exercised too."""
    rng = np.random.default_rng(seed)
    g, c = random_instance(rng, max_vertices=5, max_edges=8, ferro=False)
    V = list(g.vertices)
    A = frozenset(rng.choice(V, 2, replace=False).tolist())
    saved = gf2._CHUNK_BITS
    gf2._CHUNK_BITS = chunk_bits
    try:
        _assert_sum_matches(g, c, ())
        _assert_sum_matches(g, c, A)
        _assert_grouping_matches(g, c, A)
    finally:
        gf2._CHUNK_BITS = saved


def test_high_vertex_ids_isolated_vertices_and_zero_weight_edge():
    # ids past 63 and isolated vertices: parity bits number touched
    # vertices only; J = 0 leaves the odd state of that edge out
    g = Graph(70, [(0, 1), (1, 65), (65, 66), (0, 66), (1, 66), (3, 65)])
    c = Couplings(g, [0.7, -0.4, 0.9, 0.0, 0.5, 1.1], 0.8)
    for A in ((), (0, 65), (3, 66), (2, 65)):     # 2 is isolated
        _assert_sum_matches(g, c, A)
    for A in ({0, 65}, {1, 3, 65, 66}, {2, 65}, {69, 0}):
        _assert_grouping_matches(g, c, A)
    assert current_sum(g, c, {2, 65}) == 0.0
    assert backbone.backbone_grouping(g, c, {2, 65}) == {}


def test_zero_beta_and_edgeless_graphs():
    g = Graph(3, [(0, 1), (1, 2)])
    c = Couplings(g, 1.0, 0.0)
    _assert_sum_matches(g, c, ())
    _assert_sum_matches(g, c, {0, 2})
    _assert_grouping_matches(g, c, {0, 2})
    empty = Graph(2, [])
    c0 = Couplings(empty, 1.0, 0.5)
    assert current_sum(empty, c0, ()) == 1.0
    _assert_sum_matches(empty, c0, {0, 1})


@pytest.mark.parametrize("sides", [(3, 3), (3, 4)])
@pytest.mark.parametrize("sources", ["none", "corners"])
def test_signed_sums_match_mpmath(sides, sources):
    # current_sum(A) = 2^-n sum_sigma sigma_A prod_e exp(beta J_e s_u s_v),
    # summed over spins at 40 digits: a route that shares nothing with
    # the odd sets
    mpmath = pytest.importorskip("mpmath")
    g, c = _box(sides, True, seed=sum(sides))
    A = () if sources == "none" else (0, g.n - 1)
    with mpmath.workdps(40):
        factor = [{s: mpmath.exp(mpmath.mpf(c.beta) * mpmath.mpf(J) * s)
                   for s in (-1, 1)} for J in c.J]
        total = mpmath.mpf(0)
        for r in range(1 << g.n):
            s = [1 - 2 * (r >> v & 1) for v in range(g.n)]
            t = mpmath.mpf(math.prod(s[v] for v in A))
            for e, (u, v) in enumerate(g.edges):
                t *= factor[e][s[u] * s[v]]
            total += t
        want = total / 2 ** g.n
    got = current_sum(g, c, A)
    assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("beta", [0.2, 0.35, 0.9])
@pytest.mark.parametrize("sides,sites", [((2, 3), (0, 4)), ((3, 3), (0, 4)),
                                         ((2, 4), (0, 7))])
def test_single_law_connection_matches_recursion(sides, sites, beta):
    # the exact side of `sample currents`: the weight of the sourceless
    # states whose support connects the two sites, over their total; the
    # subgraph sums add in another order, so it agrees to rounding, not
    # bit for bit
    g = BoxGraph(2, sides)
    rng = np.random.default_rng(7)
    c = Couplings(g, [float(j) for j in rng.uniform(-1.5, 1.5, g.n_edges)],
                  beta)
    x, y = sites
    got = single_support_expectations(
        g, c, {"c": lambda labels: labels.connected(x, y)})["c"]
    unsigned = c.with_abs()
    num = _three_state_sum(g, unsigned, (), event=lambda cfg: SupportView(
        g, cfg.support).connected(x, y))
    assert got == pytest.approx(num / _three_state_sum(g, unsigned, ()),
                                rel=1e-12, abs=0)


def _masks(rows):
    return [sum(x << 64 * i for i, x in enumerate(row))
            for row in rows.tolist()]


def test_chunks_visit_states_in_recursion_order(monkeypatch):
    # chunks of two rows: the coset rows, their signs and weights come in
    # the recursion's order
    monkeypatch.setattr(gf2, "_CHUNK_BITS", 1)
    for sides, A in (((2, 2), ()), ((2, 2), (0, 3)), ((2, 3), (0, 5)),
                     ((3, 3), (1, 7))):
        g, c = _box(sides, True, seed=3)
        chunks = list(currents._coset_terms(g, c, frozenset(A)))
        dim = g.n_edges - g.n + 1
        assert len(chunks) == 2 ** (dim - 1)
        odd = [m for rows, _ in chunks for m in _masks(rows)]
        t = np.concatenate([t for _, t in chunks])
        seen = [(o, w) for o, w in _odd_sets(g, c)
                if _odd_vertices(g, o) == frozenset(A)]
        assert len(t) == len(seen) == 2 ** dim
        for i, (odd_set, want) in enumerate(seen):
            assert odd[i] == sum(1 << e for e in odd_set)
            assert repr(float(t[i])) == repr(want)


def test_zero_weight_odd_states_are_left_out():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    c = Couplings(g, [0.5, 0.0, -0.8], 0.7)
    odd = [m for A in ((), (0, 1), (1, 2), (0, 2))
           for rows, _ in currents._coset_terms(g, c, frozenset(A))
           for m in _masks(rows)]
    assert sorted(odd) == [0, 1, 4, 5]


def test_grouping_walks_each_odd_set_once(monkeypatch):
    g, c = _box((2, 3), False, seed=5)
    calls = []

    def counting_walk(graph, odd_edges, sources):
        calls.append(frozenset(odd_edges))
        return _walk(graph, odd_edges, sources)

    monkeypatch.setattr(backbone, "_walk", counting_walk)
    backbone.backbone_grouping(g, c, {0, 5})
    assert len(calls) == len(set(calls)) > 1
