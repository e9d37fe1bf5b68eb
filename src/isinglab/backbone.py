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


def _zeta(couplings, paths, zp, z):
    """zeta of `paths`, given Z' (the couplings on ghat removed) and Z."""
    coshs = math.prod(math.cosh(couplings.K_abs(e))
                      for e in combined_blocked(paths))
    return (zp / z) * coshs


def _rho(graph, couplings, paths, zeta):
    """rho of `paths`, given their zeta."""
    if not walk_consistent(graph, paths):
        return 0.0
    return zeta * math.prod(math.tanh(couplings.K(e))
                            for p in paths for e in p.edges)


def zeta_weight(graph, couplings, paths):
    """zeta = (Z'/Z) * prod_{b in ghat} cosh K_b with joint depletion."""
    (zp, _), (z, _) = spins.family(graph, [
        (couplings.with_depleted(combined_blocked(paths)), None, []),
        (couplings, None, [])])
    return _zeta(couplings, paths, float(zp), float(z))


def rho_weight(graph, couplings, paths):
    """rho = I * zeta * prod tanh(beta J_b): the exact probability (times
    <s_A>-normalization Z) of the backbone being `paths`."""
    return _rho(graph, couplings, paths, zeta_weight(graph, couplings, paths))


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
    if z == 0 or not math.isfinite(z):
        return dict.fromkeys(terms, math.nan)
    return {paths: currents._fsum([ws]) / z for paths, ws in terms.items()}


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
    ferro = couplings.is_ferromagnetic  # zeta in (0,1] only without frustration
    # resummation of the last path: marginalize the grouping over the final
    # pair and compare with rho(front) * depleted correlation
    fronts = {}
    if len(A) >= 4:
        for paths, grouped in groups.items():
            fronts.setdefault(paths[:-1], []).append(grouped)
    # one spin family call: Z with <s_A>, and the depleted Z' of each
    # zeta, with the depleted pair correlation of each front
    parts = [*groups, *fronts, *((p,) for paths in groups
                                 if ferro and len(paths) > 1 for p in paths)]
    (z, (corr,)), *depleted = spins.family(graph, [(couplings, None, [A])] + [
        (couplings.with_depleted(combined_blocked(part)), None,
         [A - _tuple_sources(part)] if part in fronts else [])
        for part in parts])
    zeta = {part: _zeta(couplings, part, float(zp), float(z))
            for part, (zp, _) in zip(parts, depleted)}
    pair = {part: m[0] for part, (_, m) in zip(parts, depleted) if m}
    total = math.fsum(groups.values())
    rho_diffs, super_slacks, resum_diffs = [], [], []
    zeta_ok = True
    for paths, grouped in groups.items():
        zt = zeta[paths]
        rho_diffs.append(abs(_rho(graph, couplings, paths, zt) - grouped))
        if not math.isfinite(zt) or ferro and zt > 1.0 + 1e-12:
            zeta_ok = False
        if ferro and len(paths) > 1:
            super_slacks.append(zt - math.prod(zeta[(p,)] for p in paths))
    for front, vals in fronts.items():
        rhs = _rho(graph, couplings, front, zeta[front]) * pair[front]
        resum_diffs.append(abs(math.fsum(vals) - rhs))
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
