import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_instance
from isinglab.graphs import BoxGraph, Couplings, Graph
from isinglab import backbone, spins
from isinglab.currents import ConstraintError


def test_single_edge_backbone():
    g = Graph(2, [(0, 1)])
    c = Couplings(g, 1.0, 0.7)
    groups = backbone.backbone_grouping(g, c, {0, 1})
    assert len(groups) == 1
    (paths, weight), = groups.items()
    assert paths[0].edges == (0,)
    assert weight == pytest.approx(math.tanh(0.7), abs=1e-12)
    assert backbone.rho_weight(g, c, paths) == pytest.approx(weight,
                                                            abs=1e-12)


def test_triangle_two_backbones(triangle):
    c = Couplings(triangle, 1.0, 0.5)
    groups = backbone.backbone_grouping(triangle, c, {0, 1})
    # direct edge 0-1, or the detour 0-2-1 (taken only when 0-1 is not odd)
    assert len(groups) == 2
    total = math.fsum(groups.values())
    assert total == pytest.approx(spins.expectation(triangle, c, [0, 1]),
                                  abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_completeness_fuzz(seed):
    rng = np.random.default_rng(seed)
    g, c = random_instance(rng, max_vertices=5, max_edges=8)
    x, y = rng.choice(g.n, 2, replace=False).tolist()
    rep = backbone.check_path_properties(g, c, {x, y})
    assert rep["completeness"] <= 1e-10
    assert rep["rho_vs_grouping"] <= 1e-10
    assert rep["zeta_bounded"]
    assert rep["zeta_supermultiplicative_slack"] >= -1e-12


def test_mixed_sign_completeness():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    c = Couplings(g, [0.8, -0.5, 0.6], 1.0)
    rep = backbone.check_path_properties(g, c, {0, 1})
    assert rep["completeness"] <= 1e-10
    assert rep["rho_vs_grouping"] <= 1e-10


def test_four_source_resummation():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    c = Couplings(g, 1.0, 0.4)
    rep = backbone.check_path_properties(g, c, {0, 1, 2, 3})
    assert rep["completeness"] <= 1e-10
    assert rep["resummation"] <= 1e-10


def test_path_properties_weigh_each_backbone_once(work):
    # one depleted spin sum Z' per distinct ghat, each weighed once: rho,
    # the zeta bound and the resummation fronts share it
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 0.4)
    rep = backbone.check_path_properties(box, c, {0, 8})
    assert rep["n_backbones"] > 1
    depleted = [w for w in work["weighed"] if w[2] != tuple(c.J)]
    ghats = {backbone.combined_blocked(paths)
             for paths in backbone.backbone_grouping(box, c, {0, 8})}
    assert len(depleted) == len(set(depleted)) == len(ghats)


def test_path_properties_compute_z_once(work):
    # every zeta, super-multiplicativity factor and resummation front
    # shares one undepleted Z, weighed once with <s_A>; no instance is
    # weighed twice
    box = BoxGraph(2, (4, 3))
    c = Couplings(box, 1.0, 0.4)
    rep = backbone.check_path_properties(box, c, {0, 2, 9, 11})
    assert rep["n_backbones"] > 1
    assert [w[2] for w in work["weighed"]].count(tuple(c.J)) == 1
    assert len(work["weighed"]) == len(set(work["weighed"]))


def test_path_properties_match_the_one_instance_calls():
    # the one family call gives every zeta and pair correlation the float
    # that zeta_weight, rho_weight and expectation give one at a time
    box = BoxGraph(2, (4, 3))
    c = Couplings(box, [0.6 + 0.05 * (e % 5) for e in range(box.n_edges)],
                  0.5)
    A = frozenset({0, 2, 9, 11})
    rep = backbone.check_path_properties(box, c, A)
    groups = backbone.backbone_grouping(box, c, A)
    slacks = [backbone.zeta_weight(box, c, paths) - math.prod(
        backbone.zeta_weight(box, c, [p]) for p in paths) for paths in groups]
    assert rep["zeta_supermultiplicative_slack"] == min([0.0, *slacks])
    fronts = {}
    for paths, grouped in groups.items():
        fronts.setdefault(paths[:-1], []).append(grouped)
    resum = [abs(math.fsum(vals) - backbone.rho_weight(box, c, front)
                 * spins.expectation(
                     box, c.with_depleted(backbone.combined_blocked(front)),
                     sorted(A - {front[0].start, front[0].end})))
             for front, vals in fronts.items()]
    assert len(fronts) > 1
    assert rep["resummation"] == max([0.0, *resum])


def test_walk_determinism(triangle):
    c = Couplings(triangle, 1.0, 0.5)
    from isinglab.currents import EdgeStateConfig, ODD
    # odd on all three edges is impossible; odd on 0-1 and the detour pair
    state = EdgeStateConfig(triangle, (0, 1, 1))  # odd on (1,2) and (0,2)
    paths = backbone.extract_backbone(state, {0, 1})
    assert paths[0].vertices == (0, 2, 1)
    assert backbone.walk_consistent(triangle, paths)


def test_extract_backbone_rejects_wrong_sources(triangle):
    # a ValueError, not an assert, so the check survives python -O
    from isinglab.currents import EdgeStateConfig
    state = EdgeStateConfig(triangle, (0, 1, 1))  # odd vertices {0, 1}
    for sources in ({0, 2}, set(), {0, 1, 2}):
        with pytest.raises(ValueError, match="does not realize"):
            backbone.extract_backbone(state, sources)


def zeta_domain_monotone(small_graph, small_couplings, big_graph,
                         big_couplings, paths, edge_map, vertex_map):
    """zeta computed in a larger graph is no larger than in the subgraph.

    `paths` lives in the small graph; edge_map/vertex_map translate its ids
    into the big graph (couplings must agree on mapped edges).  Returns
    (zeta_small, zeta_big)."""
    remapped = tuple(
        backbone.BackbonePath(tuple(edge_map[e] for e in p.edges),
                              tuple(vertex_map[v] for v in p.vertices),
                              frozenset(edge_map[e] for e in p.blocked))
        for p in paths)
    return (backbone.zeta_weight(small_graph, small_couplings, paths),
            backbone.zeta_weight(big_graph, big_couplings, remapped))


def test_zeta_domain_monotone():
    small = BoxGraph(2, (2, 2))
    big = BoxGraph(2, (2, 3))
    cs = Couplings(small, 1.0, 0.5)
    cb = Couplings(big, 1.0, 0.5)
    edge_map = {}
    for e, (u, v) in enumerate(small.edges):
        cu, cv = small.coords[u], small.coords[v]
        for e2, (u2, v2) in enumerate(big.edges):
            if {big.coords[u2], big.coords[v2]} == {cu, cv}:
                edge_map[e] = e2
    vertex_map = {v: big.index[small.coords[v]] for v in small.vertices}
    groups = backbone.backbone_grouping(small, cs, {0, small.n - 1})
    for paths in groups:
        zs, zb = zeta_domain_monotone(small, cs, big, cb, paths, edge_map,
                                      vertex_map)
        assert zb <= zs + 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_tree_diagram_bound_fuzz(seed):
    rng = np.random.default_rng(seed)
    g, c = random_instance(rng, max_vertices=6, max_edges=9)
    if g.n < 4:
        return
    ids = rng.choice(g.n, 4, replace=False).tolist()
    lhs, rhs, ok = backbone.tree_diagram_check(g, c, *ids)
    assert ok


def test_grouping_past_twenty_edges_sums_to_the_correlation():
    # 4x4: 24 edges, a coset of dimension 9
    g = BoxGraph(2, (4, 4))
    rng = np.random.default_rng(44)
    c = Couplings(g, [float(j) for j in rng.uniform(-1.0, 1.5, g.n_edges)],
                  0.5)
    groups = backbone.backbone_grouping(g, c, {0, 15})
    assert len(groups) > 1
    assert math.fsum(groups.values()) == pytest.approx(
        spins.expectation(g, c, [0, 15]), rel=0, abs=1e-12)


def test_grouping_past_the_float_range_is_nan():
    # a signed 3x3 box at beta 80: the current sums overflow, and the
    # grouping raised "-inf + inf in fsum"; its weights are now nan, so the
    # rows built on them fail
    box = BoxGraph(2, [3, 3])
    J = [-1.0 if e in (1, 4, 7) else 1.0 for e in range(box.n_edges)]
    groups = backbone.backbone_grouping(box, Couplings(box, J, 80.0), {0, 8})
    assert groups and all(math.isnan(w) for w in groups.values())


def test_odd_source_sets_are_refused(triangle):
    c = Couplings(triangle, 1.0, 0.5)
    for fn in (backbone.backbone_grouping, backbone.check_path_properties):
        with pytest.raises(ConstraintError):
            fn(triangle, c, {1})
