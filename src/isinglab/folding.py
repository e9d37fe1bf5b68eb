"""Folded single-current sums over reflection-symmetric graphs.

A single current n on a graph with a Markovian reflection R is compared with
its mirror image: events live on the support of n + R(n).  Writing
n = (n0, n1, n2) over the fixed-plane edges E0 and the two sides E1, E2, and
pulling n2 back onto E1, the combined support is determined by

    S0 = supp(n0) in E0,    T = supp(n1) | R(supp(n2)) in E1.

This is the double-current law of `doubled` on the folded graph E0 + E1:
n0 + n1 is the first current, on every folded edge, and the pulled-back n2
the second, on E1 alone.  The sources split the same way.  At a constrained
side-1 vertex v, n1 has the source [v in A] and the pulled-back n2 the
source [R(v) in A]; at a constrained plane vertex only the joint parity of
n0, n1 and n2 is fixed.  So with S1, M2 and P the side-1 sources, the
mirror images of the side-2 sources and the plane sources,

    W(S0, T) = Q(T; M2) G(S0 + T; S1 xor M2 xor P),

with Q constrained at the side-1 vertices only and G at the side-1 and
plane vertices, by `doubled._q_table` and `_g_table`.  Cost: one subset-sum
transform over the 2^(|E0|+|E1|) patterns for each of Q and G; only
nonzero patterns are visited for events.

Events are read on the folded support S0 + T.  With fold(v) = R(v) on side
2 and v elsewhere, u <-> v in supp(n + R(n)) iff fold(u) <-> fold(v) in the
folded support and, for u and v on opposite sides, that cluster meets
lambda0: a folded path lies in side 1 and the plane, where it and its
mirror image are paths of the support, and a path that changes side passes
the plane, as no edge joins the two sides.
"""

from __future__ import annotations

import numpy as np

from .currents import (ConstraintError, _check_sources, _SupportLabels,
                       edge_weight_table)
from .doubled import _g_table, _given, _q_table
from .graphs import BoundarySpec, induced_subgraph, reflection_for_axis
from . import spins


class FoldedCurrentMeasure:
    """Exact law of supp(n + R(n)) under a source-constrained current."""

    def __init__(self, reflection, sources=(), relaxed_boundary=None):
        r = reflection
        graph = r.graph
        A = _check_sources(sources)
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

        pattern_edges = list(r.e0) + list(r.e1)
        c1 = constrained & r.lambda1
        mirrored = frozenset(r.involution[v] for v in A & r.lambda2)
        w = edge_weight_table(r.couplings)
        # _W[pattern]: bit i of the pattern adds pattern_edges[i] and its
        # mirror
        ends = [graph.edges[e] for e in pattern_edges]
        side = range(len(r.e0), len(pattern_edges))
        self._W = (_q_table(ends, side, c1, mirrored)
                   * _g_table(ends, [w[e] for e in pattern_edges], side,
                              c1 | (constrained & r.lambda0),
                              (A - r.lambda2) ^ mirrored))
        self._labels = _FoldedLabels(r, pattern_edges, self._W)
        self.graph = graph

    def expectations(self, events):
        """events: name -> fn(labels), where `labels` (a `_FoldedLabels`)
        holds the supports supp(n + R(n)) of nonzero weight and the event
        gives one value per support.  Returns dict of normalized
        expectations plus '_total' (the raw weight sum)."""
        return self._labels.expectations(events)


class _FoldedLabels(_SupportLabels):
    """`currents._SupportLabels` on supp(n + R(n)), read on the folded
    support as the module docstring says; has_edge sees both edges of a
    bit."""

    def __init__(self, reflection, pattern_edges, W):
        super().__init__(reflection.graph, [(e,) for e in pattern_edges], W)
        self.bit_edges = [tuple(sorted({e, reflection.edge_map[e]}))
                          for e in pattern_edges]
        self._r = reflection

    def _reach(self, S, v):
        r = self._r
        fold = lambda w: r.involution[w] if w in r.lambda2 else w
        other = (r.lambda2 if v in r.lambda1 else
                 r.lambda1 if v in r.lambda2 else ())
        near = {fold(s) for s in S if s not in other}
        far = {fold(s) for s in S if s in other} - near
        hit = super()._reach(near, fold(v))
        if far:
            hit = hit | (super()._reach(far, fold(v))
                         & super()._reach(r.lambda0, fold(v)))
        return hit


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
    sxy, lhs = spins.moments(r.graph, r.couplings,
                             [[x, y], [x, r.involution[y]]])
    return lhs, sxy * p


def reflection_monotonicity_report(reflection, x, y):
    """Checks <s_x s_y> >= <s_x s_{R(y)}> and the exact remainder
    (<s_x s_y> - <s_x s_{R(y)}>)/<s_x s_y> = P^{x,y}(x not<-> plane).

    Returns dict with both sides and the miss probability.
    """
    r = reflection
    plane = r.lambda0
    sxy, sxry = spins.moments(r.graph, r.couplings,
                              [[x, y], [x, r.involution[y]]])
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
    if axis is None:
        axis = box.d - 1
    L = box.sides[axis]
    if L % 2 == 0:
        raise ValueError("need an odd side so the mid-plane passes through sites")
    mid = (L - 1) // 2
    refl = reflection_for_axis(box, couplings, axis, mid)
    bc_pm = box.dobrushin_boundary(axis)
    bdry = bc_pm.boundary
    plane_all = frozenset(v for v in box.vertices if box.coords[v][axis] == mid)
    plane_bdry = plane_all & bdry
    plane_int = plane_all - bdry
    below_bdry = bc_pm.minus_set
    off_plane_bdry = bdry - plane_bdry
    if x is None:
        cands = sorted(plane_int)
        if not cands:
            raise ValueError("no interior mid-plane site")
        x = cands[len(cands) // 2]
    if x not in plane_int:
        raise ValueError("x must be an interior mid-plane site")

    ratio_spin, (mag_pm,), _ = spins.ratio_moments(
        box, couplings, couplings, [[x]], bc_pm, bc_pm.all_plus())

    meas = FoldedCurrentMeasure(refl, sources=(), relaxed_boundary=bdry)

    def ff(labels):
        return ~labels.connects_sets(below_bdry, plane_all)

    def mag(labels):
        """0 where the support joins the minus boundary to the plane; else
        <s_x> on the region not folded-connected to the off-plane boundary,
        with + clamped at the plane's boundary sites, one spin-oracle call
        per distinct region."""
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
        "ratio_spin": ratio_spin,
        "ratio_folded": out["ff"],
        "mag_spin": mag_pm,
        "mag_folded": _given(out["mag"], out["ff"]),
        "mag_plane_lower": mag_lower,
        "van_beijeren_ok": mag_pm >= mag_lower - 1e-12,
    }
