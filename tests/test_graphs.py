import math

import pytest

from isinglab.graphs import (BoundarySpec, BoxGraph, Couplings, FieldSpec,
                             Graph, induced_subgraph, parse_graph_file,
                             parse_lattice_spec, reflection_for_axis,
                             serialize_graph)


def test_graph_basics():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.n_edges == 2
    assert g.other_end(0, 0) == 1
    assert set(g.incident(1)) == {0, 1}


def test_couplings_helpers():
    g = Graph(2, [(0, 1)])
    c = Couplings(g, [-0.5], 2.0)
    assert c.K(0) == -1.0 and c.K_abs(0) == 1.0
    assert not c.is_ferromagnetic
    assert c.negative_edges() == {0}
    assert c.with_abs().is_ferromagnetic
    assert c.with_flipped({0}).J[0] == 0.5
    assert c.with_depleted({0}).J[0] == 0.0


def test_fieldspec_rejects_negative_h():
    with pytest.raises(ValueError):
        FieldSpec(2, h=[-0.1, 0.0])


def test_box_lattice_counts():
    box = BoxGraph(2, (3, 3))
    assert box.n == 9
    assert box.n_edges == 12
    assert len(box.boundary_vertices()) == 8
    box3 = BoxGraph(3, (2, 2, 2))
    assert box3.n == 8 and box3.n_edges == 12


def test_graph_file_roundtrip():
    g = Graph(3, [(0, 1), (1, 2)])
    c = Couplings(g, [0.5, -1.25], 1.0)
    f = FieldSpec(3, h={0: 0.25}, g={2: -0.5})
    b = BoundarySpec({0: BoundarySpec.PLUS, 2: BoundarySpec.MINUS})
    text = serialize_graph(g, c, fields=f, boundary=b)
    g2, c2, f2, b2 = parse_graph_file(text)
    assert g2.edges == g.edges
    assert c2.J == c.J
    assert f2.h == f.h and f2.g == f.g
    assert b2.designation == b.designation
    assert serialize_graph(g2, c2, fields=f2, boundary=b2) == text


def test_graph_file_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_graph_file("edge 0\n")
    with pytest.raises(ValueError):
        parse_graph_file("frob 1 2\n")


def test_lattice_spec():
    box, coup, bspec = parse_lattice_spec("box:d=2,L=3,bc=free")
    assert box.sides == (3, 3) if isinstance(box.sides, tuple) else \
        list(box.sides) == [3, 3]
    assert bspec is None
    _, _, bp = parse_lattice_spec("box:d=2,L=3,bc=plus")
    assert bp is not None and not bp.minus_set
    _, _, bpm = parse_lattice_spec("box:d=2,L=3,bc=pm")
    assert bpm.minus_set and bpm.plus_set
    with pytest.raises(ValueError):
        parse_lattice_spec("torus:L=3")


def test_reflection_structure():
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 0.5)
    r = reflection_for_axis(box, c, 0, 1)
    r.check()
    # the fixed plane is the x=1 column
    assert all(box.coords[v][0] == 1 for v in r.lambda0)
    assert {r.involution[v] for v in r.lambda1} == r.lambda2
    # no edge crosses the plane
    for e in r.e1:
        assert r.edge_map[r.edge_map[e]] == e


def test_half_integer_reflection_subdivides():
    box = BoxGraph(2, (2, 2))
    c = Couplings(box, 1.0, 0.5)
    r = reflection_for_axis(box, c, 0, 0.5)
    r.check()
    # subdivision adds midpoint vertices on the crossing edges
    assert r.graph.n > box.n


def test_induced_subgraph():
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 0.5)
    keep = [v for v in box.vertices if box.coords[v][0] == 1]
    sub, subc, vmap = induced_subgraph(box, c, keep)
    assert sub.n == 3 and sub.n_edges == 2
    assert all(j == 1.0 for j in subc.J)
    assert set(vmap) == set(keep)


@pytest.mark.parametrize("d, sides, axis", [
    (2, (3, 3), 0), (2, (3, 5), 1), (2, (4, 3), 0), (2, (2, 4), 1),
    (3, (3, 2, 2), 0), (3, (2, 3, 4), 1), (3, (2, 2, 3), 2),
    (3, (2, 4, 2), 1)])
def test_reflection_sides_are_oriented_by_the_plane(d, sides, axis):
    box = BoxGraph(d, sides)
    plane = (sides[axis] - 1) / 2.0
    r = reflection_for_axis(box, Couplings(box, 1.0, 0.5), axis, plane)
    coords = box.coords if r.graph is box else r.graph.coords
    below = {v for v in r.graph.vertices if coords[v][axis] < plane}
    above = {v for v in r.graph.vertices if coords[v][axis] > plane}
    assert r.lambda1 == below and r.lambda2 == above
    assert r.lambda0 == set(r.graph.vertices) - below - above
    for side, edges in ((below, r.e1), (above, r.e2)):
        assert edges == tuple(e for e, (u, v) in enumerate(r.graph.edges)
                              if u in side or v in side)
