"""Double random-current machinery.

Two independent currents n1, n2 are enumerated through their per-edge joint
(parity, support) classes.  Two engines are provided:

* a direct class enumeration for nested edge sets (5 joint classes on shared
  edges, 3 on edges carried by n1 only) used by the switching-lemma checker
  and by general double-event probabilities on small graphs;

* a support-pattern engine for pairs over the same graph, summing over the
  combined support S and evaluating the parity sums in closed form.  For a
  fixed S the weight factorizes as

      W(S) = Q1(S; A1) * G(S; A1 xor A2)

  where Q1 counts parity assignments of n1 (per constrained vertex) and G
  carries the per-edge factors sinh^2 K (equal parities) / sinh K cosh K
  (opposite parities).  This follows from the change of variables
  (odd1, odd2) -> (odd1, m = odd1 xor odd2): the joint class weights on a
  supported edge are sinh^2 for m=0 (odd/odd or the even/even classes, since
  cosh^2 - 1 = sinh^2) and sinh*cosh for m=1.  Cost 2^|E| instead of 5^|E|,
  which is what makes clamped 3x4 boxes exact.  Q1 and G are each a sigma
  sum over the constrained vertices, evaluated for all patterns at once by
  `currents._sigma_sum`, the builder the single-current and folded laws
  share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .currents import (SUPPORT_EDGE_CAP, SUPPORT_SIGMA_CAP, ConstraintError,
                       SupportView, _check_sources, _chi, _dobrushin_events,
                       _signs, _sigma_sum, _support_expectations,
                       edge_weight_table)
from .spins import SizeError

DOUBLE_WORK_CAP = 40_000_000


@dataclass(frozen=True)
class DoubleCurrentState:
    graph: object
    odd1: frozenset          # edges with odd n1
    odd2: frozenset
    support: frozenset       # support of n1+n2
    shared_edges: frozenset  # edge ids carrying both currents

    def view(self):
        return SupportView(self.graph, self.support)

    def shared_view(self):
        return SupportView(self.graph, self.support & self.shared_edges)


def _vertex_mask(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# ---------------------------------------------------------------------------
# direct enumeration (nested edge sets)


def double_sum_direct(graph, couplings, A1, A2, term_fn, edges2=None):
    """Sum of w(n1) w(n2) term_fn(state) over per-edge joint classes.

    n1 lives on all edges of `graph`, n2 on `edges2` (default: all), both
    with exact sources.  term_fn receives a DoubleCurrentState and returns a
    float (0/1 for events).
    """
    A1, A2 = _check_sources(A1), _check_sources(A2)
    E = graph.n_edges
    all_edges = list(range(E))
    shared = frozenset(all_edges if edges2 is None else edges2)
    only1 = [e for e in all_edges if e not in shared]
    if A2 and edges2 is not None:
        touched2 = {v for e in shared for v in graph.edges[e]}
        if not A2 <= touched2:
            raise ConstraintError("A2 must lie on the subgraph carrying n2")
    work = (5 ** len(shared)) * (3 ** len(only1))
    if work > DOUBLE_WORK_CAP:
        raise SizeError("double-current work %d exceeds cap %d"
                        % (work, DOUBLE_WORK_CAP))

    w = edge_weight_table(couplings)
    # joint classes on shared edges: (odd1, odd2, supported) -> weight
    shared_classes = []
    for e in sorted(shared):
        one, s, c1 = 1.0, w[e][1], w[e][2] + 1.0  # sinh, cosh
        shared_classes.append((e, [
            (0, 0, 0, 1.0),
            (0, 0, 1, c1 * c1 - 1.0),
            (1, 0, 1, s * c1),
            (0, 1, 1, c1 * s),
            (1, 1, 1, s * s),
        ]))
    only_classes = [(e, [(0, 0, 0, 1.0), (1, 0, 1, w[e][1]), (0, 0, 1, w[e][2])])
                    for e in only1]
    plan = shared_classes + only_classes

    m1, m2 = _vertex_mask(A1), _vertex_mask(A2)
    ends = graph.edges
    terms = []
    odd1_edges = []
    odd2_edges = []
    supp_edges = []

    def rec(i, weight, p1, p2):
        if i == len(plan):
            if p1 != m1 or p2 != m2:
                return
            state = DoubleCurrentState(graph, frozenset(odd1_edges),
                                       frozenset(odd2_edges),
                                       frozenset(supp_edges), shared)
            val = term_fn(state)
            if val:
                terms.append(weight * float(val))
            return
        e, classes = plan[i]
        u, v = ends[e]
        flip = (1 << u) | (1 << v)
        for o1, o2, s, cw in classes:
            if cw == 0.0:
                continue
            if o1:
                odd1_edges.append(e)
            if o2:
                odd2_edges.append(e)
            if s:
                supp_edges.append(e)
            rec(i + 1, weight * cw, p1 ^ (flip if o1 else 0),
                p2 ^ (flip if o2 else 0))
            if o1:
                odd1_edges.pop()
            if o2:
                odd2_edges.pop()
            if s:
                supp_edges.pop()

    rec(0, 1.0, 0, 0)
    return math.fsum(terms)


def double_event_probability(graph, couplings, A1, A2, event, edges2=None):
    """P^{A1,A2}(event) under the normalized double-current weight."""
    num = double_sum_direct(graph, couplings, A1, A2, event, edges2)
    den = double_sum_direct(graph, couplings, A1, A2, lambda s: 1.0, edges2)
    return num / den


def indicator_pairable(B, state):
    """1_B[n1+n2]: exists k <= n1+n2 supported on the shared edges with
    boundary B, i.e. B pairable within the shared-edge support."""
    return 1.0 if state.shared_view().pairable(B) else 0.0


def verify_switching(graph, couplings, A1, A2, B, F=None, edges2=None):
    """Both sides of the source-switching identity; returns (lhs, rhs, diff).

    lhs: sources (A1, A2);  rhs: sources (A1 xor B, A2 xor B); both weighted
    by F(n1+n2) * 1_B[n1+n2].  F defaults to 1; it must be measurable with
    respect to (parity, support) of the combined current.
    """
    B = frozenset(B)
    if len(B) % 2:
        raise ConstraintError("odd switching set")
    if F is None:
        F = lambda state: 1.0

    def term(state):
        ind = indicator_pairable(B, state)
        return ind and ind * F(state)

    lhs = double_sum_direct(graph, couplings, A1, A2, term, edges2)
    rhs = double_sum_direct(graph, couplings,
                            frozenset(A1) ^ B, frozenset(A2) ^ B, term, edges2)
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# support-pattern engine (same graph, optionally relaxed boundary sources)


class DoubleSupportMeasure:
    """Exact distribution of the combined support of a current pair.

    `constrained`: vertices whose sources are pinned (everything for free
    boundary conditions, the interior for relaxed/+ boundary conditions).
    A1, A2 must consist of constrained vertices.
    """

    def __init__(self, graph, couplings, constrained, A1, A2):
        A1, A2 = _check_sources(A1), _check_sources(A2)
        constrained = sorted(constrained)
        if not (A1 <= set(constrained) and A2 <= set(constrained)):
            raise ConstraintError("sources must be constrained vertices")
        E = graph.n_edges
        if E > SUPPORT_EDGE_CAP:
            raise SizeError("2^%d support patterns exceed the cap" % E)
        k = len(constrained)
        if k > SUPPORT_SIGMA_CAP:
            raise SizeError("2^%d parity assignments exceed the cap" % k)
        self.graph = graph
        pos = {v: i for i, v in enumerate(constrained)}
        signs = _signs(k)
        # per edge: the parity count 1 + chi, the weight sinh^2 + sinh cosh chi
        f_tabs, g_tabs = [], []
        for uv, (_, s, c1) in zip(graph.edges, edge_weight_table(couplings)):
            chi = _chi(signs, uv, pos)
            f_tabs.append(1.0 + chi)
            g_tabs.append(s * s + s * (c1 + 1.0) * chi)
        edges = list(range(E))
        # W[sa, sb] = 2^{-2k} (srcA . FA FB)(srcB . GA GB)
        M1 = _sigma_sum(edges, f_tabs, _chi(signs, A1, pos))
        M2 = _sigma_sum(edges, g_tabs, _chi(signs, A1 ^ A2, pos))
        self._W = (M1 * M2) * (1.0 / (len(signs) * len(signs)))

    def expectations(self, events):
        """events: dict name -> fn(labels), where `labels` holds a chunk
        of combined supports and the event gives one value per support,
        read off the label queries (connected, connects_sets, reached,
        cluster_count, is_ff, sgn, has_edge, touched, open_count).  Returns
        dict of normalized expectations plus '_total' (the raw weight
        sum)."""
        W = self._W.T.ravel()   # pattern sa | sb << half is W[sa, sb]
        return _support_expectations(
            self.graph, [(e,) for e in range(self.graph.n_edges)],
            lambda labels: W[labels.masks], events)


def double_support_expectations(graph, couplings, constrained, A1, A2, events):
    m = DoubleSupportMeasure(graph, couplings, constrained, A1, A2)
    return m.expectations(events)


# ---------------------------------------------------------------------------
# frustration, boundaries, disorder


def frustrated_partition_ratio(graph, couplings):
    """Z(J)/Z(|J|) as the double-current probability that the combined
    support is frustration-free for the signs of J."""
    neg = couplings.negative_edges()
    out = double_support_expectations(
        graph, couplings, list(graph.vertices), frozenset(), frozenset(),
        {"ff": lambda labels: labels.is_ff(neg)})
    return out["ff"]


def frustrated_correlation(graph, couplings, u, v):
    """E(sgn_J(u,v; n1+n2) | FF) = <s_u s_v>_J * <s_u s_v>_{|J|}."""
    neg = couplings.negative_edges()
    out = double_support_expectations(
        graph, couplings, list(graph.vertices), frozenset(), frozenset(),
        {"ff": lambda labels: labels.is_ff(neg),
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
    out = double_support_expectations(
        graph, couplings, boundary_spec.interior(graph), frozenset(),
        frozenset(), _dobrushin_events(boundary_spec))
    return out["ff"]


def boundary_magnetization(graph, couplings, boundary_spec, x):
    interior = boundary_spec.interior(graph)
    if x not in interior:
        raise ValueError("x must be an interior site")
    out = double_support_expectations(graph, couplings, interior,
                                      frozenset(), frozenset(),
                                      _dobrushin_events(boundary_spec, x))
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


def source_overlap_ratio(graph, couplings, A, B):
    """E^{A xor B, 0}(1_A[n1+n2]); equals <s_A><s_B>/<s_A s_B>."""
    A, B = frozenset(A), frozenset(B)
    return double_event_probability(
        graph, couplings, A ^ B, frozenset(),
        lambda state: indicator_pairable(A, state))


def ursell4_via_currents(graph, couplings, x1, x2, x3, x4):
    """Both double-current forms of U4; returns (valueA, valueB)."""
    from . import spins
    s2 = lambda a, b: spins.expectation(graph, couplings, [a, b])
    pre = s2(x1, x2) * s2(x3, x4)
    if pre == 0.0:
        # a required pair is disconnected; both forms degenerate to zero
        valueA = 0.0
    else:
        pA = double_event_probability(
            graph, couplings, frozenset({x1, x2}), frozenset({x3, x4}),
            lambda st: 1.0 if st.view().connected(x1, x3) else 0.0)
        valueA = -2.0 * pre * pA

    def all_connected(st):
        v = st.view()
        return 1.0 if (v.connected(x1, x2) and v.connected(x1, x3)
                       and v.connected(x1, x4)) else 0.0

    s4 = spins.expectation(graph, couplings, [x1, x2, x3, x4])
    if s4 == 0.0:
        valueB = 0.0
    else:
        pB = double_event_probability(graph, couplings,
                                      frozenset({x1, x2, x3, x4}),
                                      frozenset(), all_connected)
        valueB = -2.0 * s4 * pB
    return valueA, valueB
