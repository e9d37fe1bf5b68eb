"""Double random-current machinery.

Two independent currents with sources A1, A2: n1 lives on every edge and n2
on an edge set E2 (every edge unless `edges2` says otherwise).  Every
double-current probability is a law of the combined support S of n1 + n2,
and one engine computes it: `DoubleSupportMeasure` weighs each of the 2^|E|
support patterns in closed form, and the support kernel of `currents`
evaluates the events on the labels of the patterns (Aizenman 1982).

Write the source constraints of n1 and n2 as sums over spins sigma, tau at
the k constrained vertices, with chi_e the product of the spins at the ends
of e.  Summing the flux of every edge, a shared edge in S weighs
(c^2 - 1) + s c (chi_e^sigma + chi_e^tau) + s^2 chi_e^sigma chi_e^tau with
s = sinh K, c = cosh K, and an edge of n1 alone weighs (c - 1) + s chi_e.
With rho = sigma tau and c^2 - 1 = s^2 the shared factor is
(1 + chi_e^rho)(s^2 + s c chi_e^sigma), and the weight factorises as

    W(S) = 2^-2k Q(S & E2; A2) G(S; A1 xor A2),
    Q = sum_rho chi_rho(A2) prod_{e in S & E2} (1 + chi_e),
    G = sum_sigma chi_sigma(A1 xor A2) prod_{e in S & E2} (s^2 + s c chi_e)
                                       prod_{e in S - E2} ((c - 1) + s chi_e).

Q counts the parity patterns of n2, so its source is A2: it is nonzero iff
A2 pairs within S & E2.  When E2 is every edge, A1 pairs within S wherever
A2 and A1 xor A2 do, and the source A1 gives the same exact integers; under
nesting only A2 is right.  Q is exact; G is a signed sum that leaves
rounding residues where A1 xor A2 does not pair within S, so such patterns
are weighed 0 by `pairable`.  Both are sigma sums over all patterns at once
by `currents._sigma_sum`, the builder the single-current and folded laws
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .currents import (ConstraintError, _check_sources, _check_support_caps,
                       _chi, _dobrushin_events, _signs, _sigma_sum,
                       _support_expectations, _support_sums,
                       edge_weight_table)


class DoubleSupportMeasure:
    """Exact distribution of the combined support of a current pair.

    `constrained`: vertices whose sources are pinned (everything for free
    boundary conditions, the interior for relaxed/+ boundary conditions).
    A1, A2 must consist of constrained vertices.  n2 lives on `edges2`
    (default: every edge), which must touch A2.
    """

    def __init__(self, graph, couplings, constrained, A1, A2, edges2=None):
        A1, A2 = _check_sources(A1), _check_sources(A2)
        constrained = sorted(constrained)
        if not (A1 <= set(constrained) and A2 <= set(constrained)):
            raise ConstraintError("sources must be constrained vertices")
        E = graph.n_edges
        shared = set(range(E) if edges2 is None else edges2)
        if edges2 is not None and not A2 <= {v for e in shared
                                             for v in graph.edges[e]}:
            raise ConstraintError("A2 must lie on the subgraph carrying n2")
        k = len(constrained)
        _check_support_caps(E, k)
        self.graph = graph
        pos = {v: i for i, v in enumerate(constrained)}
        signs = _signs(k)
        q_tabs, g_tabs = [], []
        for e, (uv, (_, s, c1)) in enumerate(
                zip(graph.edges, edge_weight_table(couplings))):
            chi = _chi(signs, uv, pos)
            if e in shared:
                q_tabs.append(1.0 + chi)
                g_tabs.append(s * s + s * (c1 + 1.0) * chi)
            else:
                q_tabs.append(1.0)
                g_tabs.append(c1 + s * chi)
        edges = list(range(E))
        # W[sa, sb] = 2^{-2k} (srcA . QA QB)(srcB . GA GB); _W[pattern]
        # holds it for pattern sa | sb << (E // 2)
        M1 = _sigma_sum(edges, q_tabs, _chi(signs, A2, pos))
        M2 = _sigma_sum(edges, g_tabs, _chi(signs, A1 ^ A2, pos))
        self._W = ((M1 * M2) * (1.0 / (len(signs) * len(signs)))).T.ravel()
        # G vanishes unless A1 xor A2 pairs within S, away from the
        # unconstrained vertices
        self._diff = A1 ^ A2
        self._unconstrained = set(graph.vertices) - set(constrained)

    def _weigh(self, labels):
        w = self._W[labels.masks]
        if self._diff:
            w[~labels.pairable(self._diff, wired=self._unconstrained)] = 0.0
        return w

    def _sums(self, events):
        """Raw weighted sums of the events, as in `currents._support_sums`."""
        return _support_sums(self.graph,
                             [(e,) for e in range(self.graph.n_edges)],
                             self._weigh, events)

    def expectations(self, events):
        """events: dict name -> fn(labels), where `labels` holds a chunk
        of combined supports and the event gives one value per support,
        read off the label queries (connected, connects_sets, reached,
        cluster_count, is_ff, sgn, has_edge, touched, open_count,
        pairable).  Returns dict of normalized expectations plus '_total'
        (the raw weight sum)."""
        return _support_expectations(
            self.graph, [(e,) for e in range(self.graph.n_edges)],
            self._weigh, events)


def double_support_expectations(graph, couplings, constrained, A1, A2, events):
    m = DoubleSupportMeasure(graph, couplings, constrained, A1, A2)
    return m.expectations(events)


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
    return double_event_probability(graph, couplings, A ^ B, frozenset(),
                                    lambda labels: labels.pairable(A))


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
