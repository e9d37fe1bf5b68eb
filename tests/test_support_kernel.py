"""The support-pattern kernel answers every event for all support patterns
at once, each connection a subgraph count.  The per-pattern loop it
replaced, one RefSupportView (a union-find) per pattern, is kept here as
the reference: every engine and event must give the same floats, compared by
repr."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isinglab import doubled, fk, folding, gauge, spins
from isinglab.currents import SupportView
from isinglab.doubled import DoubleSupportMeasure
from isinglab.folding import FoldedCurrentMeasure
from isinglab.graphs import (BoundarySpec, BoxGraph, Couplings, Graph,
                             induced_subgraph, reflection_for_axis)
from ref_support import RefSupportView


# ---------------------------------------------------------------------------
# reference: the per-view loop


def _ref_expectations(weighted_views, events):
    acc = {name: [] for name in events}
    tot = []
    for wgt, view in weighted_views:
        tot.append(wgt)
        for name, fn in events.items():
            val = fn(view)
            if val:
                acc[name].append(wgt * float(val))
    total = math.fsum(tot)
    out = {name: math.fsum(vals) / total for name, vals in acc.items()}
    out["_total"] = total
    return out


def _ref_fk(graph, couplings, events, boundary=None):
    p = fk.fk_weights(couplings)

    def weighted_views():
        for mask in range(1 << graph.n_edges):
            w = 1.0
            open_edges = []
            for e in range(graph.n_edges):
                if mask & (1 << e):
                    w *= p[e]
                    open_edges.append(e)
                else:
                    w *= 1.0 - p[e]
            if w == 0.0:
                continue
            view = RefSupportView(graph, open_edges)
            yield w * fk.Q ** view.cluster_count(boundary), view

    return _ref_expectations(weighted_views(), events)


def _pairs_away_from(view, B, wired):
    """B pairs within the view's support; components that hold a wired
    vertex may hold any number of B vertices."""
    return view.pairable({b for b in B
                          if not any(view.connected(b, w) for w in wired)})


def _ref_double(measure, events, B=(), wired=()):
    """The measure's pattern weights, with the patterns where the source
    difference B does not pair away from the unconstrained vertices
    `wired` weighed 0."""
    E = measure.graph.n_edges
    views = ((float(measure._W[p]),
              RefSupportView(measure.graph, [e for e in range(E) if p >> e & 1]))
             for p in np.flatnonzero(measure._W))
    return _ref_expectations(((w, view) for w, view in views
                              if _pairs_away_from(view, B, wired)), events)


def _ref_folded(measure, reflection, events):
    r = reflection
    pattern_edges = list(r.e0) + list(r.e1)

    def support(mask):
        U = set()
        for i, e in enumerate(pattern_edges):
            if mask & (1 << i):
                U.add(e)
                U.add(r.edge_map[e])
        return U

    weighted_views = ((float(measure._W[p]),
                       RefSupportView(measure.graph, support(int(p))))
                      for p in np.flatnonzero(measure._W))
    return _ref_expectations(weighted_views, events)


# ---------------------------------------------------------------------------
# events: the label form and the per-view form of each built-in event


def _event_pairs(graph, couplings, u, v, U, V, wired, some_edges):
    need = frozenset(some_edges)
    F = fk.monotone_event("connect", u, v)
    G = fk.monotone_event("open_count")
    return {
        "connect": (F, lambda sv: 1.0 if sv.connected(u, v) else 0.0),
        "connect_sets": (fk.monotone_event("connect_sets", U, V),
                         lambda sv: 1.0 if sv.connects_sets(U, V) else 0.0),
        "cut": (lambda lab: ~lab.connects_sets(U, V),
                lambda sv: 0.0 if sv.connects_sets(U, V) else 1.0),
        "open_count": (G, lambda sv: float(len(sv.edge_ids))),
        "all_open": (fk.monotone_event("all_open", some_edges),
                     lambda sv: 1.0 if need <= sv.edge_ids else 0.0),
        "fg": (lambda lab: F(lab) * G(lab),
               lambda sv: ((1.0 if sv.connected(u, v) else 0.0)
                           * float(len(sv.edge_ids)))),
        "reached": (lambda lab: lab.reached(U)[:, v],
                    lambda sv: 1.0 if sv.connects_sets(U, [v]) else 0.0),
    }


def _ref_dobrushin_events(boundary_spec, x):
    plus, minus = boundary_spec.plus_set, boundary_spec.minus_set
    bdry = plus | minus

    def ff(sv):
        return 0.0 if sv.connects_sets(minus, plus) else 1.0

    return {
        "ff": ff,
        "x_bdry": lambda sv: 1.0 if sv.connects_sets([x], bdry) else 0.0,
        "x_plus": lambda sv: ff(sv) if sv.connects_sets([x], plus) else 0.0,
        "x_minus": lambda sv: ff(sv) if sv.connects_sets([x], minus) else 0.0,
    }


def _engines(graph, couplings, wired, constrained, sources):
    """(library run(events), reference run(events)) per engine; the free
    double-support measure needs at most 20 vertices."""
    abs_c = couplings.with_abs()
    out = [
        (lambda ev: fk.fk_measure_expectation(graph, abs_c, ev),
         lambda ev: _ref_fk(graph, abs_c, ev)),
        (lambda ev: fk.fk_measure_expectation(graph, abs_c, ev,
                                              boundary=wired),
         lambda ev: _ref_fk(graph, abs_c, ev, boundary=wired)),
    ]
    relaxed = DoubleSupportMeasure(graph, couplings, constrained, sources, ())
    unconstrained = set(graph.vertices) - set(constrained)
    out.append((relaxed.expectations, lambda ev: _ref_double(
        relaxed, ev, sources, unconstrained)))
    if graph.n <= 20:
        free = DoubleSupportMeasure(graph, couplings, list(graph.vertices),
                                    (), ())
        out.append((free.expectations, lambda ev: _ref_double(free, ev)))
    return out


def _assert_same(got, want):
    assert {k: repr(v) for k, v in got.items()} == {
        k: repr(v) for k, v in want.items()}


def _outcome(run, events):
    """Reprs of the results, or the error a zero total weight raises."""
    try:
        return {k: repr(v) for k, v in run(events).items()}
    except ZeroDivisionError:
        return "ZeroDivisionError"


def _check_instance(graph, couplings, u, v, U, V, wired, some_edges,
                    constrained, sources):
    pairs = _event_pairs(graph, couplings, u, v, U, V, wired, some_edges)
    label_events = {k: a for k, (a, _) in pairs.items()}
    view_events = {k: r for k, (_, r) in pairs.items()}
    for run, ref in _engines(graph, couplings, wired, constrained, sources):
        assert _outcome(run, label_events) == _outcome(ref, view_events)


# ---------------------------------------------------------------------------
# the grid


def _signed_box(sides, beta, seed):
    box = BoxGraph(2, sides)
    rng = np.random.default_rng(seed)
    J = [float(j) for j in rng.uniform(-1.0, 1.0, box.n_edges)]
    return box, Couplings(box, J, beta)


@pytest.mark.parametrize("beta", [0.3, 0.8])
def test_engines_match_per_view_loop(beta):
    box, c = _signed_box((3, 3), beta, seed=11)
    _check_instance(box, c, 0, 8, [0, 1], [7, 8], {0, 2, 6}, [0, 3, 5],
                    constrained=[1, 3, 4, 5, 7], sources=(3, 5))


def test_isolated_vertices_and_wide_labels():
    # 200 vertices, most of them isolated
    g = Graph(200, [(0, 1), (1, 2), (2, 0), (3, 150), (150, 199), (0, 199),
                    (5, 6)])
    c = Couplings(g, [0.7, -0.4, 0.9, -1.1, 0.5, 0.8, 0.3], 0.6)
    _check_instance(g, c, 0, 150, [1, 7], [199, 6], {2, 100}, [0, 4],
                    constrained=[0, 1, 2, 3, 5, 100, 150], sources=(0, 3))
    h = Graph(6, [(0, 1), (1, 2)])   # vertices 3..5 isolated
    ch = Couplings(h, [-0.8, 0.6], 0.9)
    _check_instance(h, ch, 0, 4, [3], [4, 0], {5}, [1],
                    constrained=[0, 1, 2], sources=())


def _pm_boundary(box):
    mid = (box.sides[0] - 1) / 2.0
    return BoundarySpec({v: (BoundarySpec.MINUS if box.coords[v][0] < mid
                             else BoundarySpec.PLUS)
                         for v in box.boundary_vertices()})


@pytest.mark.parametrize("seed", [16, 3])
def test_dobrushin_events_match(seed):
    # the boundary results read signed tables; each must equal the per-view
    # connection events.  Row 0 is the minus set, so two edges have both
    # ends in it.  The couplings are signed and drawn per seed.
    box, c = _signed_box((3, 3), 0.55, seed)
    bspec = _pm_boundary(box)
    bdry = bspec.plus_set | bspec.minus_set
    x = sorted(bspec.interior(box))[0]
    view_events = _ref_dobrushin_events(bspec, x)
    m = DoubleSupportMeasure(box, c, bspec.interior(box), (), ())
    for ref, got in (
            (_ref_double(m, view_events),
             doubled.boundary_identities(box, c, bspec, x)),
            (_ref_fk(box, c, view_events, boundary=bdry),
             tuple(fk.fk_boundary_report(box, c, bspec, x)[k] for k in (
                 "ratio_fk", "mag_plus_fk", "mag_pm_fk")))):
        want = (ref["ff"], ref["x_bdry"],
                (ref["x_plus"] - ref["x_minus"]) / ref["ff"])
        assert [repr(v) for v in got] == [repr(v) for v in want]


def test_folded_measures_match():
    box = BoxGraph(2, (5, 3))
    c = Couplings(box, 1.0, 0.45)
    refl = reflection_for_axis(box, c, 0, 2)
    x, y = sorted(refl.lambda1)[:2]
    plane = refl.lambda0
    bdry = frozenset(box.boundary_vertices())
    for meas in (FoldedCurrentMeasure(refl, sources={x, y}),
                 FoldedCurrentMeasure(refl, relaxed_boundary=bdry)):
        pairs = _event_pairs(box, c, x, y, [y], plane, bdry, [0, 1])
        pairs["hit"] = (
            lambda lab: lab.connects_sets([y], plane),
            lambda sv: 1.0 if sv.connects_sets([y], plane) else 0.0)
        _assert_same(
            meas.expectations({k: a for k, (a, _) in pairs.items()}),
            _ref_folded(meas, refl, {k: r for k, (_, r) in pairs.items()}))


@pytest.mark.parametrize("sides, plane", [((5, 3), 2), ((4, 3), 1.5)])
def test_folded_queries_match_unfolded_support(sides, plane):
    # the folded labels answer on the folded support; each query must equal
    # the union-find on supp(n + R(n)), on a vertex plane and on a mid-edge
    # plane: pairs across the plane, a plane vertex with side 2, and the
    # sets reached from an S0 that is not reflection-symmetric
    box = BoxGraph(2, sides)
    refl = reflection_for_axis(box, Couplings(box, 1.0, 0.6), 0, plane)
    inv = refl.involution
    side1, side2 = sorted(refl.lambda1), sorted(refl.lambda2)
    x, y, p, z = side1[0], side1[-1], sorted(refl.lambda0)[0], side2[1]
    S0 = [x, z]
    assert inv[x] != z
    pairs = {
        "x_Ry": (x, inv[y]), "x_Rx": (x, inv[x]), "Rx_y": (inv[x], y),
        "p_z": (p, z), "z_p": (z, p), "Rx_z": (inv[x], z)}
    events = {k: (lambda lab, u=u, v=v: lab.connected(u, v),
                  lambda sv, u=u, v=v: 1.0 if sv.connected(u, v) else 0.0)
              for k, (u, v) in pairs.items()}
    for w in refl.graph.vertices:
        events["reached_%d" % w] = (
            lambda lab, w=w: lab.reached(S0)[:, w],
            lambda sv, w=w: 1.0 if sv.connects_sets(S0, [w]) else 0.0)
    events["S0_pz"] = (lambda lab: lab.connects_sets(S0, [p, z]),
                       lambda sv: 1.0 if sv.connects_sets(S0, [p, z])
                       else 0.0)
    bdry = frozenset(box.boundary_vertices())
    for meas in (FoldedCurrentMeasure(refl, sources={x, y}),
                 FoldedCurrentMeasure(refl, sources={x, inv[y]}),
                 FoldedCurrentMeasure(refl, relaxed_boundary=bdry)):
        _assert_same(
            meas.expectations({k: a for k, (a, _) in events.items()}),
            _ref_folded(meas, refl, {k: r for k, (_, r) in events.items()}))


def _check_frustration(graph, c, u, v):
    """The frustration results of both laws against the per-view parity
    union-find, by repr."""
    neg = c.negative_edges()
    events = {"ff": lambda sv: 1.0 if sv.is_ff(neg) else 0.0,
              "sgn": lambda sv: sv.sgn(u, v, neg)}
    free = DoubleSupportMeasure(graph, c, list(graph.vertices), (), ())
    ref = _ref_double(free, events)
    assert repr(doubled.frustrated_partition_ratio(graph, c)) == repr(
        ref["ff"])
    assert repr(doubled.frustration_identities(graph, c, u, v)[1]) == repr(
        ref["sgn"] / ref["ff"])
    ref = _ref_fk(graph, c.with_abs(), events)
    rep = fk.fk_frustration_adjusted(graph, c, u, v)
    assert repr(rep["ff_prob"]) == repr(ref["ff"])
    assert repr(rep["corr_fk"]) == repr(ref["sgn"] / ref["ff"])


def test_public_results_match_reference(monkeypatch):
    box, c = _signed_box((3, 3), 0.6, seed=5)
    for u, v in ((0, 8), (4, 4)):
        _check_frustration(box, c, u, v)
    # 200 vertices, most of them isolated, and sites on no edge; the FK
    # report's spin legs cannot run on 200 spins and are not compared
    monkeypatch.setattr(spins, "ratio_moments",
                        lambda *a, **k: (1.0, [1.0], [1.0]))
    g = Graph(200, [(0, 1), (1, 2), (2, 0), (3, 150), (150, 199), (0, 199),
                    (5, 6)])
    cg = Couplings(g, [0.7, -0.4, 0.9, -1.1, 0.5, 0.8, 0.3], 0.6)
    for u, v in ((0, 150), (2, 2), (1, 6), (100, 100), (100, 1)):
        _check_frustration(g, cg, u, v)
    monkeypatch.undo()
    ferro = c.with_abs()
    flip = [0, 4, 7]
    free = DoubleSupportMeasure(box, ferro, list(box.vertices), (), ())
    ref = _ref_double(free, {"ff": lambda sv: 1.0 if sv.is_ff(flip) else 0.0})
    assert repr(doubled.disorder_expectation(box, ferro, flip)) == repr(
        ref["ff"])
    ref = _ref_fk(box, ferro,
                  {"c": lambda sv: 1.0 if sv.connected(1, 6) else 0.0})
    assert repr(fk.connection_probability(box, ferro, 1, 6)) == repr(ref["c"])
    box5 = BoxGraph(2, (5, 3))
    c5 = Couplings(box5, 1.0, 0.5)
    refl = reflection_for_axis(box5, c5, 0, 2)
    x, y = sorted(refl.lambda1)[:2]
    meas = FoldedCurrentMeasure(refl, sources={x, y})
    hit = _ref_folded(meas, refl, {"hit": lambda sv: (
        1.0 if sv.connects_sets([y], refl.lambda0) else 0.0)})["hit"]
    _, rhs = folding.folded_correlation_identity(refl, x, y)
    sxy = spins.expectation(box5, c5, [x, y])
    assert repr(rhs) == repr(sxy * hit)


def test_constant_events_broadcast():
    # an event that does not depend on the labels gives one value for all
    # the patterns
    box, c = _signed_box((3, 3), 0.5, seed=3)
    abs_c = c.with_abs()
    out = fk.fk_measure_expectation(
        box, abs_c, {"all": fk.monotone_event("all_open", [])})
    assert out["all"] == 1.0
    _assert_same(out, _ref_fk(box, abs_c, {"all": lambda sv: 1.0}))
    bare = Graph(2, [])
    cb = Couplings(bare, [], 0.5)
    events = {"n": fk.monotone_event("open_count")}
    for run in (lambda ev: fk.fk_measure_expectation(bare, cb, ev),
                DoubleSupportMeasure(bare, cb, [0, 1], (), ()).expectations):
        out = run(events)
        assert out["n"] == 0.0 and out["_total"] > 0.0


def test_stale_support_view_event_raises():
    # an fn(SupportView) event gets the labels of all the patterns; its
    # truth test on an array raises instead of giving a number
    stale = {"c": lambda sv: 1.0 if sv.connected(0, 1) else 0.0}
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 0.5)
    box5 = BoxGraph(2, (5, 3))
    refl = reflection_for_axis(box5, Couplings(box5, 1.0, 0.5), 0, 2)
    for run in (lambda ev: fk.fk_measure_expectation(box, c, ev),
                DoubleSupportMeasure(box, c, list(box.vertices), (),
                                     ()).expectations,
                FoldedCurrentMeasure(refl).expectations):
        with pytest.raises(ValueError, match="ambiguous"):
            run(stale)


def _ref_dobrushin(box, couplings, x):
    """(ratio_folded, mag_folded) of dobrushin_identities by the per-view
    loop: mag is gamma on the region not connected to the off-plane
    boundary, evaluated on one RefSupportView per pattern."""
    axis = box.d - 1
    mid = (box.sides[axis] - 1) // 2
    refl = reflection_for_axis(box, couplings, axis, mid)
    bdry = frozenset(box.boundary_vertices())
    plane_all = frozenset(v for v in box.vertices
                          if box.coords[v][axis] == mid)
    plane_bdry = plane_all & bdry
    below_bdry = frozenset(v for v in bdry if box.coords[v][axis] < mid)
    off_plane_bdry = bdry - plane_bdry
    cache = {}

    def ff(sv):
        return 0.0 if sv.connects_sets(below_bdry, plane_all) else 1.0

    def mag(sv):
        if not ff(sv):
            return 0.0
        region = frozenset(v for v in box.vertices
                           if not sv.connects_sets([v], off_plane_bdry))
        if region not in cache:
            sub, subc, vmap = induced_subgraph(box, couplings, region)
            clamp = BoundarySpec({vmap[v]: BoundarySpec.PLUS
                                  for v in plane_bdry if v in vmap})
            cache[region] = spins.expectation(sub, subc, [vmap[x]],
                                              boundary=clamp)
        return cache[region]

    meas = FoldedCurrentMeasure(refl, relaxed_boundary=bdry)
    out = _ref_folded(meas, refl, {"ff": ff, "mag": mag})
    return out["ff"], out["mag"] / out["ff"]


@pytest.mark.parametrize("sides, beta", [
    ((3, 5), 0.3), ((3, 5), 0.8), ((5, 3), 0.3), ((5, 3), 0.8)])
def test_dobrushin_identities_match_per_view_loop(sides, beta):
    box = BoxGraph(2, sides)
    c = Couplings(box, 1.0, beta)
    rep = folding.dobrushin_identities(box, c)
    ratio, mag = _ref_dobrushin(box, c, rep["x"])
    assert repr(rep["ratio_folded"]) == repr(ratio)
    assert repr(rep["mag_folded"]) == repr(mag)


def test_dobrushin_mag_gives_each_region_its_value(monkeypatch):
    # on 3x5 the two regions give the same <s_x> (they differ by leaves
    # hanging off x), so an oracle that tells regions apart checks which
    # value each pattern gets
    monkeypatch.setattr(spins, "expectation",
                        lambda graph, couplings, A, **kw: float(graph.n))
    box = BoxGraph(2, (3, 5))
    c = Couplings(box, 1.0, 0.5)
    rep = folding.dobrushin_identities(box, c)
    assert repr(rep["mag_folded"]) == repr(_ref_dobrushin(box, c,
                                                          rep["x"])[1])
    assert 3.0 < rep["mag_folded"] < 5.0


def test_builtin_events_build_no_support_view(monkeypatch):
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 0.45)
    bspec = _pm_boundary(box)
    sbox, sc = _signed_box((3, 3), 0.45, seed=2)
    box5 = BoxGraph(2, (5, 3))
    refl = reflection_for_axis(box5, Couplings(box5, 1.0, 0.5), 0, 2)
    x, y = sorted(refl.lambda1)[:2]
    box35 = BoxGraph(2, (3, 5))
    c35 = Couplings(box35, 1.0, 0.5)
    calls = [
        lambda: fk.connection_probability(box, c, 0, 8),
        lambda: doubled.boundary_identities(box, c, bspec, 4),
        lambda: doubled.frustration_identities(sbox, sc, 0, 8),
        lambda: doubled.disorder_expectation(box, c, [0, 5]),
        lambda: folding.folded_correlation_identity(refl, x, y),
        lambda: fk.fk_boundary_report(box, c, bspec, 4),
        lambda: fk.fkg_spot_check(box, c, ("connect", 0, 8),
                                  ("open_count",)),
        lambda: gauge.deconfinement_bound_report(box, c, 0, 0.5,
                                                 window={1: (0, 1)}),
        lambda: folding.dobrushin_identities(box35, c35),
    ]
    expected = [f() for f in calls]

    def boom(self, *args, **kwargs):
        raise AssertionError("a kernel event built a SupportView")

    monkeypatch.setattr(SupportView, "__init__", boom)
    assert [repr(f()) for f in calls] == [repr(e) for e in expected]


# ---------------------------------------------------------------------------
# fuzz: random graphs of at most 10 edges


@st.composite
def _instances(draw):
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True))
    J = draw(st.lists(st.floats(-1.5, 1.5, allow_nan=False),
                      min_size=len(edges), max_size=len(edges)))
    beta = draw(st.floats(0.05, 1.5))
    verts = st.integers(0, n - 1)
    u, v = draw(verts), draw(verts)
    U = draw(st.lists(verts, max_size=3))
    V = draw(st.lists(verts, max_size=3))
    wired = set(draw(st.lists(verts, max_size=3)))
    some = draw(st.lists(st.integers(0, max(len(edges) - 1, 0)),
                         max_size=3))
    constrained = sorted(set(draw(st.lists(verts, max_size=n))))
    src = [w for w in constrained[:2]] if len(constrained) >= 2 else []
    g = Graph(n, edges)
    return (g, Couplings(g, J, beta), u, v, U, V, wired, some, constrained,
            tuple(src))


@settings(max_examples=60, deadline=None)
@given(_instances())
def test_fuzz_engines_match_per_view_loop(inst):
    g, c, u, v, U, V, wired, some, constrained, sources = inst
    _check_instance(g, c, u, v, U, V, wired, some, constrained, sources)
    _check_frustration(g, c, u, v)
