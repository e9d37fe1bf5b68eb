"""Double random-current machinery.

Two independent currents with sources A1, A2: n1 lives on every edge and n2
on an edge set E2 (every edge unless `edges2` says otherwise).  Every
double-current probability is a law of the combined support S of n1 + n2,
and one engine computes it: `DoubleSupportMeasure` weighs each of the 2^|E|
support patterns in closed form, and the support kernel of `currents`
evaluates the events on them, each connection a subgraph count
(Aizenman 1982).

Only the source constraints at the `constrained` vertices count.  Summing
the flux of every edge, with s = sinh K and c = cosh K, an edge of S that
carries both currents weighs s^2 when their parities agree (c^2 - 1 = s^2
when both are even) and s c when they differ, and an edge of n1 alone
weighs s (odd) or c - 1 (even).  Let F2 be the odd edges of n2 and F those
where the parities differ; then dF2 = A2 and dF = A1 xor A2, and the
weight factorises as

    W(S) = Q(S & E2; A2) G(S; A1 xor A2),
    Q = #{F2 within S & E2 : dF2 = A2},
    G = sum_{F within S, dF = A1 xor A2} prod_{F & E2} s c
        prod_{(S - F) & E2} s^2 prod_{F - E2} s prod_{(S - F) - E2} (c - 1),

each one `currents._subgraph_sums` over all patterns at once, the transform
the single-current law uses.  Both are sums of nonnegative terms, so W is
exactly 0 where A2 does not pair within S & E2 or A1 xor A2 within S (a
component that holds an unconstrained vertex pairs any source).
`folding` weighs its folded law by the same product.

Parity questions are signed counts.  With s_e = +-1, Q_s(S; t) =
sum_{F within S, dF = t} prod_F s_e sums a character over a coset of the
even subgraphs of S: it is Q(S; t) 1[FF] times the s-product of a path
joining t (FF: every cycle of S has s-product +1), or 0 when t does not
pair in S.  The entries are exact integers, so Q_s G is exactly W, -W or 0.
"""

from __future__ import annotations

import math

from .currents import (ConstraintError, _check_sources, _fsum,
                       _subgraph_sums, _support_sums, _SupportLabels,
                       _syndromes, edge_weight_table)


def _q_table(ends, shared, constrained, target, signs=None):
    """Q_s(S & shared; target) for every pattern S of the edges with end
    pairs `ends`; every s_e is 1 for signs None."""
    b = [float(i in shared) * (1.0 if signs is None else signs[i])
         for i in range(len(ends))]
    return _subgraph_sums(*_syndromes(ends, constrained, target),
                          [1.0] * len(ends), b)


def _g_table(ends, table, shared, constrained, target):
    """G over the patterns of the edges with end pairs `ends` and weight
    rows `table` (as `edge_weight_table`); the positions `shared` carry
    both currents."""
    a = [s * s if i in shared else even
         for i, (_, s, even) in enumerate(table)]
    b = [s * (even + 1.0) if i in shared else s
         for i, (_, s, even) in enumerate(table)]
    return _subgraph_sums(*_syndromes(ends, constrained, target), a, b)


class DoubleSupportMeasure:
    """Exact distribution of the combined support of a current pair.

    `constrained`: vertices whose sources are pinned (everything for free
    boundary conditions, the interior for relaxed/+ boundary conditions).
    A1, A2 must consist of constrained vertices.  n2 lives on `edges2`
    (default: every edge), which must touch A2.
    """

    def __init__(self, graph, couplings, constrained, A1, A2, edges2=None):
        A1, A2 = _check_sources(A1), _check_sources(A2)
        constrained = set(constrained)
        if not (A1 <= constrained and A2 <= constrained):
            raise ConstraintError("sources must be constrained vertices")
        E = graph.n_edges
        shared = set(range(E) if edges2 is None else edges2)
        if edges2 is not None and not A2 <= {v for e in shared
                                             for v in graph.edges[e]}:
            raise ConstraintError("A2 must lie on the subgraph carrying n2")
        self.graph = graph
        self._shared = shared
        self._bit_edges = [(e,) for e in range(E)]
        # _W[pattern]: bit e of the pattern puts edge e in S
        self._W = (_q_table(graph.edges, shared, constrained, A2)
                   * _g_table(graph.edges, edge_weight_table(couplings),
                              shared, constrained, A1 ^ A2))

    def expectations(self, events):
        """events: dict name -> fn(labels), where `labels` (a
        `currents._SupportLabels`) holds the combined supports of nonzero
        weight and the event gives one value per support.  Returns dict of
        normalized expectations plus '_total' (the raw weight sum)."""
        return _SupportLabels(self.graph, self._bit_edges,
                              self._W).expectations(events)


def double_event_probability(graph, couplings, A1, A2, event, edges2=None):
    """P^{A1,A2}(event) under the normalized double-current weight; event
    is fn(labels) on the combined support."""
    m = DoubleSupportMeasure(graph, couplings, graph.vertices, A1, A2, edges2)
    return m.expectations({"e": event})["e"]


def verify_switching(graph, couplings, A1, A2, B, F=None, edges2=None):
    """Both sides of the source-switching identity; returns (lhs, rhs, diff).

    lhs: sources (A1, A2);  rhs: sources (A1 xor B, A2 xor B); both are the
    raw weight sums of F(S) * 1_B[S], where 1_B says that B pairs within
    S & edges2, the part of the combined support S that n2 can carry: the
    count of subgraphs of S & edges2 with boundary B is nonzero.  F is an
    event fn(labels) on S and defaults to 1.  A side whose sources no
    current pair has sums to 0.0.
    """
    B = frozenset(B)
    if len(B) % 2:
        raise ConstraintError("odd switching set")
    sides = [DoubleSupportMeasure(graph, couplings, graph.vertices, S1, S2,
                                  edges2)
             for S1, S2 in ((A1, A2), (frozenset(A1) ^ B, frozenset(A2) ^ B))]
    pairs = _q_table(graph.edges, sides[0]._shared, graph.vertices, B) != 0
    lhs, rhs = (_fsum([m._W[pairs]]) if F is None else _support_sums(
        graph, m._bit_edges, m._W * pairs, {"t": F})["t"] for m in sides)
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# frustration, boundaries, disorder: signed tables


def _sourceless_law(graph, couplings, constrained):
    """weigh(target, signs) = Q_s(S; target) G(S; {}) of the sourceless
    double law on every edge; weigh({}) is W."""
    ends, shared = graph.edges, range(graph.n_edges)
    G = _g_table(ends, edge_weight_table(couplings), shared, constrained,
                 frozenset())
    return lambda target, signs=None: (
        _q_table(ends, shared, constrained, target, signs) * G)


def _ratio(t, total):
    return _fsum([t[t != 0]]) / total


def _signs(couplings):
    """s = -1 on the negative couplings, +1 elsewhere."""
    neg = couplings.negative_edges()
    return [-1.0 if e in neg else 1.0 for e in range(couplings.graph.n_edges)]


def _frustration(weigh, couplings, u=None, v=None):
    """(P(FF), E(sgn(u, v) | FF)) under the law `weigh`, s = -1 on the
    negative couplings; the sign is 1 for u = v and None without sites."""
    s = _signs(couplings)
    total = _fsum([weigh(frozenset())])
    ff = _ratio(weigh(frozenset(), s), total)
    if u is None:
        return ff, None
    return ff, _ratio(weigh({u} ^ {v}, s), total) / ff


def _dobrushin(weigh, graph, boundary_spec, x=None):
    """(P(minus not<-> plus), P(x <-> boundary), P(x <-> plus, FF) -
    P(x <-> minus, FF) over P(FF)) under the law `weigh`, which leaves the
    boundary unconstrained, s = -1 on the edges with one end in the minus
    set; the last two are None without x.  ValueError for a boundary vertex
    designated free, which the law would leave unconstrained where the spin
    side of these identities clamps it +."""
    free = (boundary_spec.boundary - boundary_spec.plus_set
            - boundary_spec.minus_set)
    if free:
        raise ValueError("the +- boundary laws need plus or minus at every "
                         "boundary vertex; free: %s" % sorted(free))
    if x is not None and x not in boundary_spec.interior(graph):
        raise ValueError("x must be an interior site")
    minus = boundary_spec.minus_set
    s = [-1.0 if (u in minus) != (v in minus) else 1.0
         for u, v in graph.edges]
    total = _fsum([weigh(frozenset())])
    ff = _ratio(weigh(frozenset(), s), total)
    if x is None:
        return ff, None, None
    t = weigh({x}, s)
    return (ff, _ratio(weigh({x}), total),
            (_ratio(t[t > 0], total) - _ratio(-t[t < 0], total)) / ff)


def frustration_identities(graph, couplings, u=None, v=None):
    """(Z(J)/Z(|J|), <s_u s_v>_J <s_u s_v>_{|J|}) as P(FF) and E(sgn_J(u,
    v; n1 + n2) | FF) under the sourceless double law; None without sites."""
    return _frustration(_sourceless_law(graph, couplings, graph.vertices),
                        couplings, u, v)


def frustrated_partition_ratio(graph, couplings):
    """Z(J)/Z(|J|) as the double-current probability that the combined
    support is frustration-free for the signs of J."""
    return frustration_identities(graph, couplings)[0]


def disorder_expectations(graph, couplings, flip_sets):
    """[<T_F> = Z(T_F J)/Z(J) for F in flip_sets] for ferromagnetic J: the
    probability that no combined-support cycle crosses F an odd number of
    times.  Flipping signs leaves |J|, so one sourceless law and its total
    serve every F, each with its own signed Q."""
    if not couplings.is_ferromagnetic:
        raise ValueError("disorder_expectation expects ferromagnetic J")
    weigh = _sourceless_law(graph, couplings, graph.vertices)
    total = _fsum([weigh(frozenset())])
    return [_ratio(weigh(frozenset(), _signs(couplings.with_flipped(
        frozenset(F)))), total) for F in flip_sets]


def disorder_expectation(graph, couplings, flip_set):
    """<T_F> = Z(T_F J)/Z(J) for ferromagnetic J."""
    return disorder_expectations(graph, couplings, [flip_set])[0]


def boundary_identities(graph, couplings, boundary_spec, x=None):
    """(Z^pm/Z^+, <s_x>^+ <s_x>^+, <s_x>^pm <s_x>^+) as `_dobrushin` gives
    them under the sourceless double law; the last two None without x."""
    return _dobrushin(_sourceless_law(graph, couplings,
                                      boundary_spec.interior(graph)),
                      graph, boundary_spec, x)


def surface_tension_ratio(box, couplings, axis=None):
    """-ln(Z^pm / Z^+) / area on a Dobrushin-split box (finite volume only).

    The area is the number of edges crossing from the minus half to the rest
    of the box, i.e. the count of plane-crossing dual plaquettes.
    """
    from . import spins
    if axis is None:
        axis = box.d - 1
    bspec = box.dobrushin_boundary(axis)
    mid = (box.sides[axis] - 1) / 2.0
    area = 0
    for (u, v) in box.edges:
        cu, cv = box.coords[u][axis], box.coords[v][axis]
        if min(cu, cv) < mid <= max(cu, cv):
            area += 1
    return -math.log(spins.partition_ratio(box, couplings, couplings, bspec,
                                           bspec.all_plus())) / area


def ursell4_via_currents(graph, couplings, x1, x2, x3, x4, spin=None):
    """Both double-current forms of U4; returns (valueA, valueB).  The
    spin moments of 1234, 12 and 34 are the first three of `spin` (the
    order of `spins.ursell4_sets`), or asked here.  The current laws see
    only |J|, so a negative coupling raises ValueError."""
    from . import spins
    if not couplings.is_ferromagnetic:
        raise ValueError("the Ursell identities need ferromagnetic couplings")
    if spin is None:
        spin = spins.moments(graph, couplings,
                             [[x1, x2, x3, x4], [x1, x2], [x3, x4]])
    s4, s12, s34 = spin[:3]
    pre = s12 * s34
    if pre == 0.0:
        # a required pair is disconnected; both forms degenerate to zero
        valueA = 0.0
    else:
        pA = double_event_probability(
            graph, couplings, frozenset({x1, x2}), frozenset({x3, x4}),
            lambda labels: labels.connected(x1, x3))
        valueA = -2.0 * pre * pA

    def all_connected(labels):
        return (labels.connected(x1, x2) & labels.connected(x1, x3)
                & labels.connected(x1, x4))

    if s4 == 0.0:
        valueB = 0.0
    else:
        pB = double_event_probability(graph, couplings,
                                      frozenset({x1, x2, x3, x4}),
                                      frozenset(), all_connected)
        valueB = -2.0 * s4 * pB
    return valueA, valueB
