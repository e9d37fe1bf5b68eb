"""Double random-current machinery.

Two independent currents with sources A1, A2: n1 lives on every edge and n2
on an edge set E2 (every edge unless `edges2` says otherwise).  Every
double-current probability is a law of the combined support S of n1 + n2,
and one engine computes it: `DoubleSupportMeasure` weighs each of the 2^|E|
support patterns in closed form, and the support kernel of `currents`
evaluates the events on the labels of the patterns (Aizenman 1982).

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .currents import (ConstraintError, _check_sources, _dobrushin_events,
                       _subgraph_sums, _support_expectations, _support_sums,
                       _syndromes, edge_weight_table)


def _double_weights(ends, table, shared, q, g):
    """W = Q G over the patterns of the edges with end pairs `ends` and
    weight rows `table` (as `edge_weight_table`); the positions `shared`
    carry both currents.  q and g are the (constrained vertices, target) of
    Q and of G."""
    one = [1.0] * len(ends)
    in2 = [float(i in shared) for i in range(len(ends))]
    a = [s * s if i in shared else even
         for i, (_, s, even) in enumerate(table)]
    b = [s * (even + 1.0) if i in shared else s
         for i, (_, s, even) in enumerate(table)]
    return (_subgraph_sums(*_syndromes(ends, *q), one, in2)
            * _subgraph_sums(*_syndromes(ends, *g), a, b))


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
        self._bit_edges = [(e,) for e in range(E)]
        # _W[pattern]: bit e of the pattern puts edge e in S
        self._W = _double_weights(graph.edges, edge_weight_table(couplings),
                                  shared, (constrained, A2),
                                  (constrained, A1 ^ A2))

    def _sums(self, events):
        """Raw weighted sums of the events, as in `currents._support_sums`."""
        return _support_sums(self.graph, self._bit_edges, self._W, events)

    def expectations(self, events):
        """events: dict name -> fn(labels), where `labels` (a
        `currents._SupportLabels`) holds a chunk of combined supports and
        the event gives one value per support.  Returns dict of normalized
        expectations plus '_total' (the raw weight sum)."""
        return _support_expectations(self.graph, self._bit_edges, self._W,
                                     events)


def double_event_probability(graph, couplings, A1, A2, event, edges2=None):
    """P^{A1,A2}(event) under the normalized double-current weight; event
    is fn(labels) on the combined support."""
    m = DoubleSupportMeasure(graph, couplings, graph.vertices, A1, A2, edges2)
    return m.expectations({"e": event})["e"]


def verify_switching(graph, couplings, A1, A2, B, F=None, edges2=None):
    """Both sides of the source-switching identity; returns (lhs, rhs, diff).

    lhs: sources (A1, A2);  rhs: sources (A1 xor B, A2 xor B); both are the
    raw weight sums of F(S) * 1_B[S], where 1_B says that B pairs within
    S & edges2, the part of the combined support S that n2 can carry.  F
    is an event fn(labels) on S and defaults to 1.  A side whose sources
    no current pair has sums to 0.0.
    """
    B = frozenset(B)
    if len(B) % 2:
        raise ConstraintError("odd switching set")

    def term(labels):
        ind = labels.pairable(B, edges2)
        return ind if F is None else ind * F(labels)

    lhs, rhs = (DoubleSupportMeasure(graph, couplings, graph.vertices, S1, S2,
                                     edges2)._sums({"t": term})["t"]
                for S1, S2 in ((A1, A2), (frozenset(A1) ^ B,
                                          frozenset(A2) ^ B)))
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# frustration, boundaries, disorder


def frustrated_partition_ratio(graph, couplings):
    """Z(J)/Z(|J|) as the double-current probability that the combined
    support is frustration-free for the signs of J."""
    neg = couplings.negative_edges()
    m = DoubleSupportMeasure(graph, couplings, graph.vertices, (), ())
    return m.expectations({"ff": lambda labels: labels.is_ff(neg)})["ff"]


def frustrated_correlation(graph, couplings, u, v):
    """E(sgn_J(u,v; n1+n2) | FF) = <s_u s_v>_J * <s_u s_v>_{|J|}."""
    neg = couplings.negative_edges()
    m = DoubleSupportMeasure(graph, couplings, graph.vertices, (), ())
    out = m.expectations({"ff": lambda labels: labels.is_ff(neg),
                          "sgn": lambda labels: labels.sgn(u, v, neg)})
    return out["sgn"] / out["ff"]


def disorder_expectation(graph, couplings, flip_set):
    """<T_F> = Z(T_F J)/Z(J) for ferromagnetic J: the probability that no
    combined-support cycle crosses the flip set an odd number of times."""
    if not couplings.is_ferromagnetic:
        raise ValueError("disorder_expectation expects ferromagnetic J")
    return frustrated_partition_ratio(
        graph, couplings.with_flipped(frozenset(flip_set)))


@dataclass
class BoundaryMagnetization:
    plus_prob: float        # P^{0,0;+}(x <-> boundary)
    pm_expr: float          # P(x <-> dLam+ | FF) - P(x <-> dLam- | FF)


def boundary_partition_ratio(graph, couplings, boundary_spec):
    """Z^{pm}/Z^{+} = P^{0,0;+}(dLam_- not connected to dLam_+)."""
    m = DoubleSupportMeasure(graph, couplings, boundary_spec.interior(graph),
                             (), ())
    return m.expectations(_dobrushin_events(boundary_spec))["ff"]


def boundary_magnetization(graph, couplings, boundary_spec, x):
    interior = boundary_spec.interior(graph)
    if x not in interior:
        raise ValueError("x must be an interior site")
    m = DoubleSupportMeasure(graph, couplings, interior, (), ())
    out = m.expectations(_dobrushin_events(boundary_spec, x))
    pm = (out["x_plus"] - out["x_minus"]) / out["ff"]
    return BoundaryMagnetization(plus_prob=out["x_bdry"], pm_expr=pm)


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


def ursell4_via_currents(graph, couplings, x1, x2, x3, x4):
    """Both double-current forms of U4; returns (valueA, valueB).  The
    current laws see only |J|, so a negative coupling raises ValueError."""
    from . import spins
    if not couplings.is_ferromagnetic:
        raise ValueError("the Ursell identities need ferromagnetic couplings")
    s2 = lambda a, b: spins.expectation(graph, couplings, [a, b])
    pre = s2(x1, x2) * s2(x3, x4)
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

    s4 = spins.expectation(graph, couplings, [x1, x2, x3, x4])
    if s4 == 0.0:
        valueB = 0.0
    else:
        pB = double_event_probability(graph, couplings,
                                      frozenset({x1, x2, x3, x4}),
                                      frozenset(), all_connected)
        valueB = -2.0 * s4 * pB
    return valueA, valueB
