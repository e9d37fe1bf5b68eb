"""The sweep-elimination engine against the brute-force spin oracle.

`sweep` is an independent exact leg: it must give the partition functions
of `spins` on every graph both can run, and closed forms on graphs only it
can run."""

import ast
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isinglab import spins, sweep
from isinglab.gauge import PlaquetteComplex, build_dual_complex, dual_beta
from isinglab.graphs import BoxGraph, Couplings, Graph
from isinglab.spins import SizeError

SWEEP_PY = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "isinglab", "sweep.py")


def _close(graph, couplings):
    got = sweep.partition_function(graph, couplings)
    want = spins.partition_function(graph, couplings)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _signed(graph, seed):
    rng = np.random.default_rng(seed)
    return [float(x) for x in rng.uniform(-1.5, 1.5, size=graph.n_edges)]


@pytest.mark.parametrize("sides", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4),
                                   (4, 5), (2, 2, 2), (2, 2, 3)])
def test_boxes_match_spins(sides):
    box = BoxGraph(len(sides), sides)
    J = _signed(box, sum(sides))
    for beta in (0.0, 0.3, 0.9, 2.0):
        _close(box, Couplings(box, J, beta))


@pytest.mark.parametrize("cells", [(1, 1, 1), (1, 1, 2), (1, 2, 2),
                                   (2, 2, 2), (2, 2, 3), (2, 3, 3)])
def test_gauge_duals_match_spins(cells):
    # the outer dual vertex carries parallel bonds, one per boundary
    # plaquette, and closes odd cycles from 1x1x2 on
    dual, _ = build_dual_complex(PlaquetteComplex(3, cells))
    for beta in (0.3, 0.9):
        _close(dual, Couplings(dual, 1.0, dual_beta(beta)))
    _close(dual, Couplings(dual, _signed(dual, 7), 0.7))


def test_isolated_vertices_and_edgeless_graphs():
    g = Graph(6, [(1, 4), (4, 2), (1, 2), (1, 4)])   # 0, 3, 5 isolated
    _close(g, Couplings(g, [0.8, -0.5, 1.2, 0.3], 0.9))
    for n in (0, 1, 5):
        empty = Graph(n, [])
        assert sweep.partition_function(empty, Couplings(empty, 1.0, 1.3)) \
            == 1.0
        _close(empty, Couplings(empty, 1.0, 1.3))


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]) if n > 1 else st.nothing()
    edges = draw(st.lists(pairs, max_size=18)) if n > 1 else []
    J = draw(st.lists(st.floats(-1.5, 1.5), min_size=len(edges),
                      max_size=len(edges)))
    beta = draw(st.floats(0.0, 2.0))
    g = Graph(n, edges)
    return g, Couplings(g, J, beta)


@given(multigraphs())
@settings(max_examples=60, deadline=None)
def test_random_multigraphs_match_spins(instance):
    _close(*instance)


def test_frustrated_triangle_tells_the_sign_of_k():
    # Z(K) != Z(-K) on an odd cycle; a box is bipartite and cannot tell
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    k = 0.9
    ferro = sweep.partition_function(g, Couplings(g, 1.0, k))
    anti = sweep.partition_function(g, Couplings(g, -1.0, k))
    t = math.tanh(k)
    assert ferro == pytest.approx(math.cosh(k) ** 3 * (1 + t ** 3), rel=1e-14)
    assert anti == pytest.approx(math.cosh(k) ** 3 * (1 - t ** 3), rel=1e-14)


def test_closed_forms_past_the_spin_cap():
    # a ring of n spins: Z = cosh^n K + sinh^n K; a tree: prod cosh K_e
    n, k = 200, 0.7
    ring = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    want = math.log(math.cosh(k) ** n + math.sinh(k) ** n)
    assert sweep.log_partition(ring, Couplings(ring, 1.0, k)) == \
        pytest.approx(want, rel=1e-13)
    tree = Graph(63, [(v, (v - 1) // 2) for v in range(1, 63)])
    J = _signed(tree, 3)
    want = math.fsum(math.log(math.cosh(0.8 * j)) for j in J)
    assert sweep.log_partition(tree, Couplings(tree, J, 0.8)) == \
        pytest.approx(want, rel=1e-13)


def test_large_beta_log_partition_is_finite():
    # on 3x3 at beta 80 the two ground states carry all but e^-320 of Z
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 80.0)
    want = 80.0 * box.n_edges + math.log(2.0) - box.n * math.log(2.0)
    assert sweep.log_partition(box, c) == pytest.approx(want, rel=1e-14)
    assert sweep.partition_function(box, c) == math.inf
    assert math.isfinite(sweep.log_partition(box, Couplings(
        box, _signed(box, 5), 80.0)))


def test_underflow_raises_instead_of_a_wrong_answer():
    # every state of an antiferromagnetic triangle breaks a bond, and at
    # K = 400 exp(-2K) is zero in float64
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert math.isfinite(sweep.log_partition(g, Couplings(g, -1.0, 300.0)))
    with pytest.raises(FloatingPointError):
        sweep.log_partition(g, Couplings(g, -1.0, 400.0))


def test_greedy_order_widths():
    def width(graph):
        order, w = sweep._sweep_order(graph)
        assert sorted(order) == list(graph.vertices)
        return w

    dual, _ = build_dual_complex(PlaquetteComplex(3, (2, 3, 3)))
    assert width(dual) == 8
    assert width(BoxGraph(2, (12, 12))) == 13
    assert width(BoxGraph(2, (4, 20))) == width(BoxGraph(2, (20, 4))) == 5


def test_twelve_by_twelve_runs():
    box = BoxGraph(2, (12, 12))
    assert math.isfinite(sweep.log_partition(box, Couplings(box, 1.0, 0.44)))


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError("numpy used before the cap check: np.%s" % name)


def test_frontier_past_the_cap_raises_before_allocating(monkeypatch):
    box = BoxGraph(2, (20, 20))   # width 21, one past FRONTIER_CAP
    c = Couplings(box, 1.0, 0.5)
    monkeypatch.setattr(sweep, "np", _NoNumpy())
    with pytest.raises(SizeError):
        sweep.log_partition(box, c)
    with pytest.raises(SizeError):
        sweep.partition_function(box, c)


def test_frontier_cap_is_inclusive(monkeypatch):
    box = BoxGraph(2, (4, 4))   # width 5
    c = Couplings(box, 1.0, 0.5)
    monkeypatch.setattr(sweep, "FRONTIER_CAP", 4)
    monkeypatch.setattr(sweep, "np", _NoNumpy())
    with pytest.raises(SizeError):
        sweep.log_partition(box, c)
    monkeypatch.undo()
    monkeypatch.setattr(sweep, "FRONTIER_CAP", 5)
    assert math.isfinite(sweep.log_partition(box, c))


def test_imports_only_graphs_and_size_error():
    tree = ast.parse(open(SWEEP_PY).read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(not a.name.startswith("isinglab") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith(
                    "isinglab"):
                continue
            module = (node.module or "").split(".")[-1]
            names = [a.name for a in node.names]
            assert (module == "graphs"
                    or (module == "spins" and names == ["SizeError"])), \
                ast.dump(node)
