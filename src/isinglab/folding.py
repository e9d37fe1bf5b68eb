"""Folded single-current sums over reflection-symmetric graphs.

A single current n on a graph with a Markovian reflection R is compared with
its mirror image: events live on the support of n + R(n).  Writing
n = (n0, n1, n2) over the fixed-plane edges E0 and the two sides E1, E2, and
pulling n2 back onto E1, the combined support is determined by

    S0 = supp(n0) in E0,    T = supp(n1) | R(supp(n2)) in E1,

and the total weight of a pattern (S0, T) factorizes over edges after the
usual parity-to-spin transform.  Three sigma families appear: alpha (n1
parities at constrained side-1 vertices), gamma (mirrored n2 parities at the
same vertices) and delta (joint parities at constrained plane vertices).
The per-edge factors are

    b in E0, b in S0:   (cosh K - 1) + sinh K * chi_delta(b)
    b in E1, b in T:    (cosh^2 K - 1) + sinh K cosh K (chi_a + chi_g)
                        + sinh^2 K * chi_a chi_g

(the E1 factor is the sum over the eight not-both-zero trichotomy states of
the pair (b, R(b))).  Cost: 2^(|E0|+|E1|) patterns times a 2^k sigma sum,
evaluated by meet-in-the-middle product tables; only nonzero patterns are
visited for events.
"""

from __future__ import annotations

import numpy as np

from .currents import (ConstraintError, _product_table,
                       _support_expectations, edge_weight_table)
from .graphs import induced_subgraph
from .spins import SizeError
from . import spins

PATTERN_CAP = 16
SIGMA_CAP = 22


class FoldedCurrentMeasure:
    """Exact law of supp(n + R(n)) under a source-constrained current."""

    def __init__(self, reflection, sources=(), relaxed_boundary=None,
                 cap_patterns=PATTERN_CAP, cap_sigma=SIGMA_CAP):
        r = reflection
        graph = r.graph
        A = frozenset(sources)
        if len(A) % 2:
            raise ConstraintError("odd source set %r" % (set(A),))
        if relaxed_boundary is None:
            constrained = set(graph.vertices)
        else:
            relaxed_boundary = frozenset(relaxed_boundary)
            if A & relaxed_boundary:
                raise ConstraintError("sources must lie off the free boundary")
            constrained = set(graph.vertices) - relaxed_boundary
            sym = {r.involution[v] for v in constrained}
            if sym != constrained:
                raise ConstraintError("free boundary must be reflection-symmetric")

        c1 = sorted(constrained & r.lambda1)
        c0 = sorted(constrained & r.lambda0)
        k = 2 * len(c1) + len(c0)
        if k > cap_sigma:
            raise SizeError("2^%d sigma assignments exceed the cap" % k)
        pattern_edges = list(r.e0) + list(r.e1)
        m = len(pattern_edges)
        if m > cap_patterns:
            raise SizeError("2^%d folded patterns exceed the cap" % m)

        # sigma variable layout: alpha_v, gamma_v for v in c1; delta_v for c0
        alpha = {v: i for i, v in enumerate(c1)}
        gamma = {v: len(c1) + i for i, v in enumerate(c1)}
        delta = {v: 2 * len(c1) + i for i, v in enumerate(c0)}

        nsig = 1 << k
        bits = ((np.arange(nsig)[:, None] >> np.arange(k)) & 1) * 2 - 1

        def chi(edge, table):
            """Product of sigma over constrained endpoints, looked up in
            `table` for side-1 endpoints and delta for plane endpoints."""
            u, v = graph.edges[edge]
            out = np.ones(nsig)
            for p in (u, v):
                if p in table:
                    out = out * bits[:, table[p]]
                elif p in delta:
                    out = out * bits[:, delta[p]]
            return out

        w = edge_weight_table(r.couplings)
        tabs = {}
        for e in r.e0:
            s, c = w[e][1], w[e][2] + 1.0
            tabs[e] = (c - 1.0) + s * chi(e, delta)
        for e in r.e1:
            s, c = w[e][1], w[e][2] + 1.0
            xa = chi(e, alpha)
            xg = chi(e, gamma)
            tabs[e] = (c * c - 1.0) + s * c * (xa + xg) + s * s * (xa * xg)

        src = np.ones(nsig)
        for v in A:
            if v in r.lambda1:
                src = src * bits[:, alpha[v]]
            elif v in r.lambda0:
                src = src * bits[:, delta[v]]
            else:
                src = src * bits[:, gamma[r.involution[v]]]

        halfA = pattern_edges[: m // 2]
        halfB = pattern_edges[m // 2:]

        TA = _product_table(halfA, tabs, nsig)
        TA *= src
        TB = _product_table(halfB, tabs, nsig)
        self._W = (TA @ TB.T) / nsig
        # bit i of a pattern mask adds pattern_edges[i] and its mirror
        self._bit_edges = [tuple(sorted({e, r.edge_map[e]}))
                           for e in pattern_edges]
        self.graph = graph

    def expectations(self, events):
        """events: name -> fn(labels), where `labels` holds a chunk of
        supports supp(n + R(n)) and the event gives one value per support,
        read off the label queries (connected, connects_sets, reached,
        cluster_count, is_ff, sgn, has_edge, touched, open_count).  Returns
        dict of normalized expectations plus '_total' (the raw weight
        sum)."""
        W = self._W.T.ravel()   # pattern a | b << len(halfA) is W[a, b]
        return _support_expectations(self.graph, self._bit_edges,
                                     lambda labels: W[labels.masks], events)


# ---------------------------------------------------------------------------
# folding identity and the reflection monotonicity remainder


def folded_correlation_identity(reflection, x, y):
    """(lhs, rhs): <s_x s_{R(y)}> vs <s_x s_y> * P^{x,y}(y <-> plane in
    n + R(n)); x, y on side 1 (or the plane)."""
    r = reflection
    plane = r.lambda0
    meas = FoldedCurrentMeasure(r, sources={x, y})
    p = meas.expectations(
        {"hit": lambda labels: labels.connects_sets([y], plane)})["hit"]
    sxy = spins.expectation(r.graph, r.couplings, [x, y])
    lhs = spins.expectation(r.graph, r.couplings, [x, r.involution[y]])
    return lhs, sxy * p


def reflection_monotonicity_report(reflection, x, y):
    """Checks <s_x s_y> >= <s_x s_{R(y)}> and the exact remainder
    (<s_x s_y> - <s_x s_{R(y)}>)/<s_x s_y> = P^{x,y}(x not<-> plane).

    Returns dict with both sides and the miss probability.
    """
    r = reflection
    plane = r.lambda0
    sxy = spins.expectation(r.graph, r.couplings, [x, y])
    sxry = spins.expectation(r.graph, r.couplings, [x, r.involution[y]])
    meas = FoldedCurrentMeasure(r, sources={x, y})
    miss = meas.expectations(
        {"miss": lambda labels: ~labels.connects_sets([x], plane)})["miss"]
    return {
        "corr_near": sxy,
        "corr_far": sxry,
        "remainder_lhs": (sxy - sxry) / sxy,
        "miss_prob": miss,
        "monotone": sxy >= sxry - 1e-15,
    }


# ---------------------------------------------------------------------------
# antisymmetric (Dobrushin) boundary conditions


def dobrushin_identities(box, couplings, axis=None, x=None):
    """Certifies the folded-current identities for a box with boundary spins
    clamped +1 above / -1 below the mid-plane of `axis` (+1 on the plane).

    Returns a dict with, for the partition ratio and the plane one-point
    function, the spin-oracle value and its folded-current counterpart, plus
    the dimensional-reduction lower bound (mid-plane system with + ends).
    """
    from .graphs import reflection_for_axis
    if axis is None:
        axis = box.d - 1
    L = box.sides[axis]
    if L % 2 == 0:
        raise ValueError("need an odd side so the mid-plane passes through sites")
    mid = (L - 1) // 2
    refl = reflection_for_axis(box, couplings, axis, mid)
    bdry = frozenset(box.boundary_vertices())
    plane_all = frozenset(v for v in box.vertices if box.coords[v][axis] == mid)
    plane_bdry = plane_all & bdry
    plane_int = plane_all - bdry
    below_bdry = frozenset(v for v in bdry if box.coords[v][axis] < mid)
    off_plane_bdry = bdry - plane_bdry
    if x is None:
        cands = sorted(plane_int)
        if not cands:
            raise ValueError("no interior mid-plane site")
        x = cands[len(cands) // 2]
    if x not in plane_int:
        raise ValueError("x must be an interior mid-plane site")

    from .graphs import BoundarySpec
    desig_pm = {v: (BoundarySpec.MINUS if box.coords[v][axis] < mid
                    else BoundarySpec.PLUS) for v in bdry}
    bc_pm = BoundarySpec(desig_pm)
    bc_plus = bc_pm.all_plus()

    z_pm = spins.partition_function(box, couplings, boundary=bc_pm)
    z_plus = spins.partition_function(box, couplings, boundary=bc_plus)
    mag_pm = spins.expectation(box, couplings, [x], boundary=bc_pm)

    meas = FoldedCurrentMeasure(refl, sources=(), relaxed_boundary=bdry)

    def ff(labels):
        return ~labels.connects_sets(below_bdry, plane_all)

    def mag(labels):
        """0 where the support joins the minus boundary to the plane; else
        <s_x> on the region not folded-connected to the off-plane boundary,
        with + clamped at the plane's boundary sites, one spin-oracle call
        per distinct region of the chunk."""
        keep = ff(labels)
        regions, inverse = np.unique(~labels.reached(off_plane_bdry)[keep],
                                     axis=0, return_inverse=True)
        vals = []
        for region in regions:
            sub, subc, vmap = induced_subgraph(box, couplings,
                                               np.flatnonzero(region).tolist())
            clamp = BoundarySpec({vmap[v]: BoundarySpec.PLUS
                                  for v in plane_bdry if v in vmap})
            vals.append(spins.expectation(sub, subc, [vmap[x]],
                                          boundary=clamp))
        out = np.zeros(len(keep))
        out[keep] = np.array(vals)[inverse.reshape(-1)]
        return out

    out = meas.expectations({"ff": ff, "mag": mag})

    # dimensional reduction: the mid-plane system with + at its own boundary
    sub, subc, vmap = induced_subgraph(box, couplings, plane_all)
    clamp = BoundarySpec({vmap[v]: BoundarySpec.PLUS for v in plane_bdry})
    mag_lower = spins.expectation(sub, subc, [vmap[x]], boundary=clamp)

    return {
        "x": x,
        "ratio_spin": z_pm / z_plus,
        "ratio_folded": out["ff"],
        "mag_spin": mag_pm,
        "mag_folded": out["mag"] / out["ff"],
        "mag_plane_lower": mag_lower,
        "van_beijeren_ok": mag_pm >= mag_lower - 1e-12,
    }
