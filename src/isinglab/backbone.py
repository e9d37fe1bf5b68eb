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
tuple).  `backbone_grouping` therefore enumerates odd sets, not currents:
the 2^(E - n + c) odd sets with odd vertices A, one coset of the cycle
space, from `currents`, under its COSET_DIM_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import currents, spins


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
    if state.odd_vertices() != sources:
        raise ValueError("state does not realize the sources %r"
                         % (set(sources),))
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


def _zeta(graph, couplings, paths, z):
    """zeta of `paths`, given the undepleted partition function z."""
    ghat = combined_blocked(paths)
    zp = spins.partition_function(graph, couplings.with_depleted(ghat))
    coshs = math.prod(math.cosh(couplings.K_abs(e)) for e in ghat)
    return (zp / z) * coshs


def zeta_weight(graph, couplings, paths):
    """zeta = (Z'/Z) * prod_{b in ghat} cosh K_b with joint depletion."""
    return _zeta(graph, couplings, paths,
                 spins.partition_function(graph, couplings))


def _rho_zeta(graph, couplings, paths, z):
    """(rho, zeta) of `paths`, with zeta computed once, given Z."""
    zeta = _zeta(graph, couplings, paths, z)
    if not walk_consistent(graph, paths):
        return 0.0, zeta
    tanhs = math.prod(math.tanh(couplings.K(e))
                      for p in paths for e in p.edges)
    return zeta * tanhs, zeta


def rho_weight(graph, couplings, paths):
    """rho = I * zeta * prod tanh(beta J_b): the exact probability (times
    <s_A>-normalization Z) of the backbone being `paths`."""
    return _rho_zeta(graph, couplings, paths,
                     spins.partition_function(graph, couplings))[0]


def backbone_grouping(graph, couplings, A):
    """Definitional oracle: enumerate the odd sets with odd vertices A and
    group their signed weights by backbone.  Returns dict paths-tuple ->
    weight / Z, keyed in the order the enumeration first meets each
    backbone.  ConstraintError for an odd source set.

    The walk and its sign depend only on the odd set, and the enumeration
    gives each odd set once, so each is walked once.  Asserts along the way
    that rejected edges are never odd.  Both enumerations are bounded by
    `currents.COSET_DIM_CAP`.
    """
    A = currents._check_sources(A)
    z = currents.current_sum(graph, couplings, ())
    terms = {}
    for rows, t in currents._coset_terms(graph, couplings, A):
        for row, w in zip(rows.tolist(), t.tolist()):
            mask = sum(x << 64 * i for i, x in enumerate(row))
            odd_set = frozenset(e for e in range(graph.n_edges)
                                if mask >> e & 1)
            paths = tuple(_walk(graph, odd_set, A))
            for p in paths:
                assert not (p.blocked - frozenset(p.edges)) & odd_set
            terms.setdefault(paths, []).append(w)
    return {paths: math.fsum(ws) / z for paths, ws in terms.items()}


def _worst(values, pick=max):
    """pick([0.0, *values]), or nan when some value is nan."""
    return math.nan if any(map(math.isnan, values)) else pick([0.0, *values])


def check_path_properties(graph, couplings, A):
    """Certifies the path-expansion properties on one instance.

    Enumerates the full backbone grouping for sources A (ConstraintError
    if A is odd) and checks:
    completeness (sum of rho = <s_A>), the closed-form rho against the
    grouped weights, zeta <= 1, super-multiplicativity of zeta for
    multi-path tuples, and the last-path resummation identity.
    Returns a report dict with the worst deviations.
    """
    A = frozenset(A)
    groups = backbone_grouping(graph, couplings, A)
    corr = spins.expectation(graph, couplings, A)
    z = spins.partition_function(graph, couplings)
    total = math.fsum(groups.values())
    rho_diffs, super_slacks, resum_diffs = [], [], []
    ferro = couplings.is_ferromagnetic  # zeta in (0,1] only without frustration
    zeta_ok = True
    for paths, grouped in groups.items():
        rho, zt = _rho_zeta(graph, couplings, paths, z)
        rho_diffs.append(abs(rho - grouped))
        if not math.isfinite(zt) or ferro and zt > 1.0 + 1e-12:
            zeta_ok = False
        if ferro and len(paths) > 1:
            prod = math.prod(_zeta(graph, couplings, [p], z) for p in paths)
            super_slacks.append(zt - prod)
    # resummation of the last path: marginalize the grouping over the final
    # pair and compare with rho(front) * depleted correlation
    if len(A) >= 4:
        fronts = {}
        for paths, grouped in groups.items():
            fronts.setdefault(paths[:-1], []).append(grouped)
        for front, vals in fronts.items():
            lhs = math.fsum(vals)
            pair = sorted(A - _tuple_sources(front))
            depleted = couplings.with_depleted(combined_blocked(front))
            rhs = (_rho_zeta(graph, couplings, front, z)[0]
                   * spins.expectation(graph, depleted, pair))
            resum_diffs.append(abs(lhs - rhs))
    return {
        "completeness": abs(total - corr),
        "rho_vs_grouping": _worst(rho_diffs),
        "zeta_bounded": zeta_ok,
        "zeta_supermultiplicative_slack": _worst(super_slacks, min),
        "resummation": _worst(resum_diffs),
        "n_backbones": len(groups),
    }


def tree_diagram_check(graph, couplings, x1, x2, x3, x4):
    """(lhs, rhs, pass): |U4| <= 2 sum_u prod_j <s_{x_j} s_u>."""
    quad = (x1, x2, x3, x4)
    values = spins.moments(graph, couplings, spins.ursell4_sets(*quad) + [
        [xj, u] for u in graph.vertices for xj in quad if xj != u])
    lhs = abs(spins.ursell4_value(*values[:7]))
    pairs = iter(values[7:])
    rhs = 0.0
    for u in graph.vertices:
        rhs += math.prod(next(pairs) if xj != u else 1.0 for xj in quad)
    rhs *= 2.0
    return lhs, rhs, lhs <= rhs + 1e-12
