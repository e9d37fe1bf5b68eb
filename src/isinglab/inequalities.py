"""Correlation inequality suites with exact left/right sides.

Every check returns IneqReport records; `ok` means slack = rhs - lhs is at
least -1e-10.  All sides are computed with the exact spin oracle (or the
exact current/folding engines), so a failure is a genuine counterexample,
not noise.  A seeded fuzzer generates small random instances and keeps the
worst case in serialized graph form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Couplings, FieldSpec, Graph, serialize_graph
from . import spins

TOL = 1e-10
GHS_FIELDS = (0.0, 0.1, 0.2, 0.3, 0.5, 0.8)   # increasing


@dataclass
class IneqReport:
    ineq_id: str
    descriptor: str
    lhs: float
    rhs: float

    @property
    def slack(self):
        return self.rhs - self.lhs

    @property
    def ok(self):
        return self.slack >= -TOL


def _report(ineq_id, descriptor, lhs, rhs):
    return IneqReport(ineq_id, descriptor, float(lhs), float(rhs))


# A suite is planned as (requests, finish): each request (graph, asks) is a
# spins.family_moments call, and finish turns its rows, one list per
# request, into reports.  Requests on one graph object are answered by one
# call, so the fuzzer weighs a trial's field and coupling instances of all
# suites together; each moment is the float its instance gives alone.


def _answer(requests):
    """[the family_moments rows of asks for (graph, asks) in requests]."""
    merged = {}
    for graph, asks in requests:
        merged.setdefault(id(graph), (graph, []))[1].extend(asks)
    rows = {key: iter(spins.family_moments(graph, asks))
            for key, (graph, asks) in merged.items()}
    return [[next(rows[id(graph)]) for _ in asks] for graph, asks in requests]


def _run(plan):
    requests, finish = plan
    return finish(_answer(requests))


# ---------------------------------------------------------------------------
# Griffiths


def griffiths_suite(graph, couplings, fields=None, max_sets=None):
    """First and second Griffiths inequalities on a ferromagnetic instance.

    <s_A> >= 0 for every even multiset A (odd ones too when a nonnegative
    field is present), and <s_A s_B> >= <s_A><s_B>.  Vertex subsets up to
    size 2 are used, optionally truncated to `max_sets` pairs.
    """
    return _run(_griffiths(graph, couplings, fields, max_sets))


def _griffiths(graph, couplings, fields, max_sets):
    if not couplings.is_ferromagnetic:
        raise ValueError("Griffiths inequalities require J >= 0")
    if fields is not None and any(g != 0.0 for g in fields.g):
        raise ValueError("Griffiths inequalities require nonnegative fields")
    V = list(graph.vertices)
    sets = [(v,) for v in V] + list(itertools.combinations(V, 2))
    has_field = fields is not None and not fields.is_zero()
    pairs = list(itertools.combinations(sets, 2))
    if max_sets is not None:
        pairs = pairs[:max_sets]
    if not has_field:
        pairs = [(A, B) for A, B in pairs if (len(A) + len(B)) % 2 == 0]

    def finish(answers):
        (values,), = answers
        value = dict(zip(sets, values))
        reports = [_report("griffiths1", "<s_%s> >= 0" % (A,), 0.0, value[A])
                   for A in sets if len(A) % 2 == 0 or has_field]
        for (A, B), ab in zip(pairs, values[len(sets):]):
            reports.append(_report("griffiths2", "<s_%s s_%s> >= product"
                                   % (A, B), value[A] * value[B], ab))
        return reports

    return [(graph, [(couplings, fields,
                      sets + [A + B for A, B in pairs])])], finish


# ---------------------------------------------------------------------------
# GHS


def ghs_suite(graph, couplings, x=0):
    """Concavity of the magnetization in a uniform field, h >= 0.

    Checks -u4 >= 0 at zero field for all quadruples, and that the second
    difference of <s_x> along GHS_FIELDS (uniform field) is nonpositive.
    Also computes, for the lexicographically first quadruple, the ratio

        (-u4/2) / (<s1 s2><s1 s3><s1 s4>)

    which the tree-diagram picture suggests should be O(1); the ratio is
    reported in the descriptor but NOT asserted.
    """
    return _run(_ghs(graph, couplings, x))


def _ghs(graph, couplings, x):
    if not couplings.is_ferromagnetic:
        raise ValueError("GHS requires J >= 0")
    V = list(graph.vertices)
    quads = list(itertools.combinations(V, 4))
    # every quadruple and pair once: the pairs of a sorted quadruple, and
    # those of the tree ratio's <s1 s2><s1 s3><s1 s4>, are sorted pairs
    asked = quads + list(itertools.combinations(V, 2)) if quads else []
    fields = [FieldSpec(graph.n, h={v: h for v in V}) for h in GHS_FIELDS]

    def finish(answers):
        (values, *mags), = answers
        mags = [m for m, in mags]
        value = dict(zip(asked, values))
        u4s = [spins.ursell4_value(*[value[tuple(A)]
                                     for A in spins.ursell4_sets(*quad)])
               for quad in quads]
        reports = [_report("ghs_u4", "-u4%s >= 0" % (quad,), 0.0, -u4)
                   for quad, u4 in zip(quads, u4s)]
        if reports:
            denom = math.prod(value[quads[0][0], q] for q in quads[0][1:])
            first_ratio = (-u4s[0] / 2.0) / denom if denom else float("nan")
            reports[0].descriptor += (" [tree-ratio %.6g, informational]"
                                      % first_ratio)
        for i in range(1, len(GHS_FIELDS) - 1):
            # non-uniform grid second difference via divided differences
            d1 = (mags[i] - mags[i - 1]) / (GHS_FIELDS[i] - GHS_FIELDS[i - 1])
            d2 = (mags[i + 1] - mags[i]) / (GHS_FIELDS[i + 1] - GHS_FIELDS[i])
            reports.append(_report(
                "ghs_concave",
                "slope drop of <s_%d> at h=%g" % (x, GHS_FIELDS[i]), d2, d1))
        return reports

    # the zero field's sets and <s_x> along GHS_FIELDS, in one family
    return [(graph, [(couplings, None, asked)]
             + [(couplings, f, [[x]]) for f in fields])], finish


# ---------------------------------------------------------------------------
# Simon-Lieb


def _x_side(graph, S, x):
    """x and the sites reachable from it by paths that never enter S."""
    side = {x}
    stack = [x]
    while stack:
        v = stack.pop()
        for e in graph.incident(v):
            u = graph.other_end(e, v)
            if u not in side and u not in S:
                side.add(u)
                stack.append(u)
    return side


def _stopped_subgraph(graph, couplings, S, side):
    """G_{S,x}: the x-side of S together with the sites of S next to it
    (paths stop on first arrival at S), with no S-S edges."""
    seen = side | ({graph.other_end(e, v) for v in side
                    for e in graph.incident(v)} & S)
    keep = sorted(seen)
    vmap = {v: i for i, v in enumerate(keep)}
    edges = []
    J = []
    for e, (u, v) in enumerate(graph.edges):
        if u in seen and v in seen and not (u in S and v in S):
            edges.append((vmap[u], vmap[v]))
            J.append(couplings.J[e])
    sub = Graph(len(keep), edges)
    return sub, Couplings(sub, J, couplings.beta), vmap


def simon_lieb_suite(graph, couplings, x, y, S):
    """Both cut-set bounds on <s_x s_y>, verifying S separates x from y.

    Site form: <s_x s_y> <= sum_{u in S} <s_x s_u>_{G_{S,x}} <s_u s_y>,
    with G_{S,x} the x-side subgraph whose paths stop at S.
    Edge form (B = the x-side of the cut, including S): <s_x s_y> <=
    sum over cut edges (u,v) of <s_x s_u>_B tanh(beta J_uv) <s_v s_y>.
    """
    return _run(_simon_lieb(graph, couplings, x, y, S))


def _simon_lieb(graph, couplings, x, y, S):
    if not couplings.is_ferromagnetic:
        raise ValueError("Simon-Lieb requires J >= 0")
    S = frozenset(S)
    side = _x_side(graph, S, x)
    if x not in S and y in side:   # an S holding x separates trivially
        raise ValueError("S does not separate x from y")
    sub, subc, vmap = _stopped_subgraph(graph, couplings, S, side)
    us = [u for u in S if u in vmap]
    # edge form: B = the x-side of S plus S, interactions restricted to
    # edges inside B; (a, b, e) for each cut edge e leaving B at a
    B = side | S
    inside = [e for e, (u, v) in enumerate(graph.edges)
              if u in B and v in B]
    restricted = couplings.with_depleted(
        set(range(graph.n_edges)) - set(inside))
    cut = [(a, b, e) for e, (u, v) in enumerate(graph.edges)
           for a, b in ((u, v), (v, u)) if a in B and b not in B]


    def finish(answers):
        (full, near_edge), (near_site,) = answers
        lhs = full[0]
        rhs_site = 0.0
        for near, far in zip(near_site, full[1:]):
            rhs_site += near * far
        reports = [_report("simon_lieb_site",
                           "cut S=%s, x=%d, y=%d" % (sorted(S), x, y),
                           lhs, rhs_site)]
        rhs_edge = 0.0
        for (_, _, e), near, far in zip(cut, near_edge, full[1 + len(us):]):
            rhs_edge += near * math.tanh(couplings.K(e)) * far
        reports.append(_report("simon_lieb_edge",
                               "cut B=%s, x=%d, y=%d" % (sorted(B), x, y),
                               lhs, rhs_edge))
        return reports

    # the full and restricted couplings in one family
    return [(graph, [(couplings, None, [[x, y]] + [[u, y] for u in us]
                      + [[b, y] for _, b, _ in cut]),
                     (restricted, None, [[x, a] for a, _, _ in cut])]),
            (sub, [(subc, None, [[vmap[x], vmap[u]] for u in us])])], finish


# ---------------------------------------------------------------------------
# field-splitting (DSS) inequality


def dss_suite(graph, couplings, x, fields):
    """Field-splitting concavity checks.

    With field h + g (h >= 0 entrywise, g arbitrary):
        <s_x>_{g+h} - <s_x>_{g-h} <= <s_x>_h - <s_x>_{-h},
    plus the equivalent ghost-graph form
        <s_x s_ghost>_{h+g} + <s_x s_ghost>_{h-g} <= 2 <s_x s_ghost>_h
    evaluated on the graph enhanced with doubled ghost edges, and the
    second-order consequence <s_x; s_y>_g <= <s_x; s_y>_{g=0} (stated here
    with a zero field on the right; presumed reading of the degenerate
    original formulation).
    """
    return _run(_dss(graph, couplings, x, fields))


def _dss(graph, couplings, x, fields):
    if not couplings.is_ferromagnetic:
        raise ValueError("the field-splitting inequality requires J >= 0")
    n = graph.n
    h = fields.h
    g = fields.g
    zero = [0.0] * n

    def field(hv, gv):
        return FieldSpec(n, h={v: val for v, val in enumerate(hv)},
                         g={v: val for v, val in enumerate(gv)})

    ys = [y for y in graph.vertices if y != x]
    asked = [A for y in ys for A in ([x, y], [x], [y])]
    f_g = FieldSpec(n, g={v: val for v, val in enumerate(g)})

    # ghost form on the doubled-edge graph: ghost vertex n, one h-edge and
    # one g-edge per site
    edges = list(graph.edges)
    J = list(couplings.J)
    scale = couplings.beta
    for v in range(n):
        edges.append((v, n))
        J.append(h[v])
    for v in range(n):
        edges.append((v, n))
        J.append(g[v])
    ghosted = Graph(n + 1, edges)

    def ghost(gsign):
        Jg = list(J)
        for i in range(n):
            Jg[len(graph.edges) + n + i] *= gsign
        return Couplings(ghosted, Jg, scale), None, [[x, n]]

    def truncated(values):
        """<s_x; s_y> for each y, from the moments of `asked`."""
        values = iter(values)
        return [xy - sx * sy for xy, sx, sy in zip(values, values, values)]

    def finish(answers):
        main, ghosts = answers
        (m_hg,), (m_g_h,), (m_h,), (m_neg_h,), at_g, at_zero = main
        (plus,), (minus,), (off,) = ghosts
        reports = [_report("dss_main", "split field at x=%d" % x,
                           m_hg - m_g_h, m_h - m_neg_h),
                   _report("dss_ghost", "ghost-edge form at x=%d" % x,
                           plus + minus, 2.0 * off)]
        for y, lhs_t, rhs_t in zip(ys, truncated(at_g), truncated(at_zero)):
            reports.append(_report(
                "dss_truncated_presumed",
                "<s_%d; s_%d>_g <= zero-field value [presumed form]" % (x, y),
                lhs_t, rhs_t))
        return reports

    # <s_x> at the four split fields, then the pairs of <s_x; s_y> at the
    # field g and at zero field, in one family; the three ghost couplings
    # in another
    return [(graph, [(couplings, f, [[x]]) for f in (
                field(h, g), field(zero, [gi - hi for gi, hi in zip(g, h)]),
                field(h, zero), field(zero, [-v for v in h]))]
             + [(couplings, f_g, asked), (couplings, None, asked)]),
            (ghosted, [ghost(+1.0), ghost(-1.0), ghost(0.0)])], finish


# ---------------------------------------------------------------------------
# reflection-based suites (delegate to the folding engine)


def smms_suite(reflection, x, y):
    """Correlation decrease under reflection: <s_x s_y> >= <s_x s_{R(y)}>,
    together with the exact remainder identity (reported as an equality
    pair)."""
    from .folding import reflection_monotonicity_report
    rep = reflection_monotonicity_report(reflection, x, y)
    return [
        _report("smms_monotone", "x=%d, y=%d vs mirror" % (x, y),
                rep["corr_far"], rep["corr_near"]),
        _report("smms_remainder_le", "remainder = miss probability (<=)",
                rep["remainder_lhs"], rep["miss_prob"]),
        _report("smms_remainder_ge", "remainder = miss probability (>=)",
                rep["miss_prob"], rep["remainder_lhs"]),
    ]


def van_beijeren_suite(box, couplings, axis=None, x=None):
    """Antisymmetric-boundary magnetization dominates the lower-dimensional
    one on the symmetry plane."""
    from .folding import dobrushin_identities
    rep = dobrushin_identities(box, couplings, axis=axis, x=x)
    return [_report("van_beijeren", "x=%d plane lower bound" % rep["x"],
                    rep["mag_plane_lower"], rep["mag_spin"])]


# ---------------------------------------------------------------------------
# fuzzer


def _random_instance(rng, max_vertices=6, ferro=True):
    n = int(rng.integers(2, max_vertices + 1))
    pairs = list(itertools.combinations(range(n), 2))
    keep = [p for p in pairs if rng.random() < 0.7]
    if not keep:
        keep = [pairs[int(rng.integers(len(pairs)))]]
    graph = Graph(n, keep)
    J = rng.uniform(0.0 if ferro else -1.0, 1.0, size=len(keep))
    beta = float(rng.uniform(0.1, 1.5))
    return graph, Couplings(graph, list(J), beta)


def fuzz_inequalities(n_trials=50, seed=0, max_vertices=6):
    """Random-instance sweep of all suites; returns (reports, worst).

    `worst` is (slack, serialized instance, report) for the smallest slack
    seen, ready to be written to a graph file for replay.
    """
    rng = np.random.default_rng(seed)
    all_reports = []
    worst = (math.inf, None, None)
    for _ in range(n_trials):
        graph, couplings = _random_instance(rng, max_vertices)
        n = graph.n
        h = rng.uniform(0.0, 1.0, size=n)
        g = rng.uniform(-1.0, 1.0, size=n)
        f = FieldSpec(n, h=list(h), g=list(g))
        fh = FieldSpec(n, h=list(h))
        plans = [_griffiths(graph, couplings, fh, 10),
                 _ghs(graph, couplings, 0), _dss(graph, couplings, 0, f)]
        if n >= 3:
            x, y = 0, n - 1
            if y not in _x_side(graph, frozenset(range(1, n - 1)), x):
                plans.append(_simon_lieb(graph, couplings, x, y,
                                         range(1, n - 1)))
        # every suite's instances on one graph in one family
        answers = iter(_answer([r for requests, _ in plans
                                for r in requests]))
        batch = []
        for requests, finish in plans:
            batch += finish([next(answers) for _ in requests])
        for rep in batch:
            all_reports.append(rep)
            if rep.slack < worst[0]:
                worst = (rep.slack, serialize_graph(graph, couplings), rep)
    return all_reports, worst
