"""Backbone extraction from current configurations and path-expansion weights.

The backbone of a source-constrained current is a deterministic pairing of
the sources by edge-disjoint walks over the odd edges: start at the
lowest-ranked unpaired source; at each vertex scan the incident unblocked
edges in id order, block every rejected (non-odd) edge, traverse the first
odd one; stop on reaching another unpaired source.  The walk depends only on
the odd-set, and the set of currents producing a given path tuple is exactly

    { n : odd(n) intersect ghat = gamma,  boundary(n) = A }

with gamma the traversed edges and ghat the traversed-plus-scanned set,
because every edge the walk ever looked at is in ghat.  Grouping weights
accordingly gives

    rho(paths) = I * zeta * prod_{b in gamma} tanh K_b,
    zeta = (Z' / Z) * prod_{b in ghat} cosh K_b,

where Z' is the partition function with couplings removed on ghat and I is
the consistency indicator (the walk replayed on gamma alone reproduces the
tuple).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .currents import (EdgeStateConfig, SourceConstraint, current_sum,
                       edge_weight_table)
from .spins import SizeError
from . import spins


@dataclass(frozen=True)
class BackbonePath:
    edges: tuple          # traversed edge ids in walk order (gamma)
    vertices: tuple       # visited vertices, len(edges)+1
    blocked: frozenset    # ghat for this path: traversed + scanned-rejected

    @property
    def start(self):
        return self.vertices[0]

    @property
    def end(self):
        return self.vertices[-1]


class WalkStall(AssertionError):
    pass


def _walk(graph, odd_edges, sources):
    """The deterministic pairing walk; returns a list of BackbonePath."""
    odd = set(odd_edges)
    unpaired = sorted(sources)
    blocked = set()
    paths = []
    while unpaired:
        a = unpaired.pop(0)
        verts = [a]
        gamma = []
        local_blocked = set()
        v = a
        while True:
            taken = None
            for e in sorted(graph.incident(v)):
                if e in blocked:
                    continue
                if e in odd:
                    taken = e
                    break
                blocked.add(e)
                local_blocked.add(e)
            if taken is None:
                raise WalkStall("backbone walk stalled at vertex %d" % v)
            blocked.add(taken)
            local_blocked.add(taken)
            odd.discard(taken)
            gamma.append(taken)
            v = graph.other_end(taken, v)
            verts.append(v)
            if v in unpaired:
                unpaired.remove(v)
                break
        paths.append(BackbonePath(tuple(gamma), tuple(verts),
                                  frozenset(local_blocked)))
    return paths


def extract_backbone(state, sources):
    """Backbone of an EdgeStateConfig whose odd-set realizes the sources."""
    sources = frozenset(sources)
    assert state.odd_vertices() == sources, "state does not realize the sources"
    return _walk(state.graph, state.odd_edges, sources)


def _tuple_sources(paths):
    out = set()
    for p in paths:
        out ^= {p.start, p.end}
    return frozenset(out)


def combined_blocked(paths):
    out = set()
    for p in paths:
        out |= p.blocked
    return frozenset(out)


def walk_consistent(graph, paths):
    """Replay the walk on the bare odd-set; True iff it reproduces `paths`."""
    gamma = [e for p in paths for e in p.edges]
    if len(gamma) != len(set(gamma)):
        return False
    try:
        replay = _walk(graph, gamma, _tuple_sources(paths))
    except WalkStall:
        return False
    return replay == list(paths)


def zeta_weight(graph, couplings, paths, cap=spins.DEFAULT_CAP):
    """zeta = (Z'/Z) * prod_{b in ghat} cosh K_b with joint depletion."""
    ghat = combined_blocked(paths)
    z = spins.partition_function(graph, couplings, cap=cap)
    zp = spins.partition_function(graph, couplings.with_depleted(ghat), cap=cap)
    coshs = math.prod(math.cosh(couplings.K_abs(e)) for e in ghat)
    return (zp / z) * coshs


def rho_weight(graph, couplings, paths, cap=spins.DEFAULT_CAP):
    """rho = I * zeta * prod tanh(beta J_b): the exact probability (times
    <s_A>-normalization Z) of the backbone being `paths`."""
    if not walk_consistent(graph, paths):
        return 0.0
    tanhs = math.prod(math.tanh(couplings.K(e))
                      for p in paths for e in p.edges)
    return zeta_weight(graph, couplings, paths, cap=cap) * tanhs


def backbone_grouping(graph, couplings, A, cap=18):
    """Definitional oracle: enumerate currents with sources A, group their
    weights by backbone.  Returns dict paths-tuple -> weight / Z.

    Asserts along the way that rejected edges are never odd.
    """
    E = graph.n_edges
    if E > cap:
        raise SizeError("3^%d states exceed the grouping cap" % E)
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
    z = current_sum(graph, couplings, SourceConstraint.exact(frozenset()),
                    signed=bool(neg))
    return {paths: math.fsum(ws) / z for paths, ws in terms.items()}


def check_path_properties(graph, couplings, A, cap=18):
    """Certifies the path-expansion properties on one instance.

    Enumerates the full backbone grouping for sources A and checks:
    completeness (sum of rho = <s_A>), the closed-form rho against the
    grouped weights, zeta <= 1, super-multiplicativity of zeta for
    multi-path tuples, and the last-path resummation identity.
    Returns a report dict with the worst deviations.
    """
    A = frozenset(A)
    groups = backbone_grouping(graph, couplings, A, cap=cap)
    corr = spins.expectation(graph, couplings, A)
    total = math.fsum(groups.values())
    worst_rho = 0.0
    worst_super = 0.0
    ferro = couplings.is_ferromagnetic  # zeta in (0,1] only without frustration
    zeta_ok = True
    for paths, grouped in groups.items():
        rho = rho_weight(graph, couplings, paths)
        worst_rho = max(worst_rho, abs(rho - grouped))
        zt = zeta_weight(graph, couplings, paths)
        if ferro and zt > 1.0 + 1e-12:
            zeta_ok = False
        if ferro and len(paths) > 1:
            prod = math.prod(zeta_weight(graph, couplings, [p]) for p in paths)
            worst_super = min(worst_super, zt - prod)
    # resummation of the last path: marginalize the grouping over the final
    # pair and compare with rho(front) * depleted correlation
    worst_resum = 0.0
    if len(A) >= 4:
        fronts = {}
        for paths, grouped in groups.items():
            fronts.setdefault(paths[:-1], []).append(grouped)
        for front, vals in fronts.items():
            lhs = math.fsum(vals)
            pair = sorted(A - _tuple_sources(front))
            depleted = couplings.with_depleted(combined_blocked(front))
            rhs = (rho_weight(graph, couplings, front)
                   * spins.expectation(graph, depleted, pair))
            worst_resum = max(worst_resum, abs(lhs - rhs))
    return {
        "completeness": abs(total - corr),
        "rho_vs_grouping": worst_rho,
        "zeta_bounded": zeta_ok,
        "zeta_supermultiplicative_slack": worst_super,
        "resummation": worst_resum,
        "n_backbones": len(groups),
    }


def remap_paths(paths, edge_map, vertex_map):
    """Translate a path tuple into another graph's edge/vertex ids."""
    return tuple(BackbonePath(tuple(edge_map[e] for e in p.edges),
                              tuple(vertex_map[v] for v in p.vertices),
                              frozenset(edge_map[e] for e in p.blocked))
                 for p in paths)


def zeta_domain_monotone(small_graph, small_couplings, big_graph,
                         big_couplings, paths, edge_map, vertex_map):
    """zeta computed in a larger graph is no larger than in the subgraph.

    `paths` lives in the small graph; edge_map/vertex_map translate its ids
    into the big graph (couplings must agree on mapped edges).  Returns
    (zeta_small, zeta_big)."""
    zs = zeta_weight(small_graph, small_couplings, paths)
    zb = zeta_weight(big_graph, big_couplings,
                     remap_paths(paths, edge_map, vertex_map))
    return zs, zb


def tree_diagram_check(graph, couplings, x1, x2, x3, x4):
    """(lhs, rhs, pass): |U4| <= 2 sum_u prod_j <s_{x_j} s_u>."""
    lhs = abs(spins.ursell4(graph, couplings, x1, x2, x3, x4))
    rhs = 0.0
    for u in graph.vertices:
        rhs += math.prod(spins.expectation(graph, couplings, [xj, u])
                         if xj != u else 1.0
                         for xj in (x1, x2, x3, x4))
    rhs *= 2.0
    return lhs, rhs, lhs <= rhs + 1e-12
