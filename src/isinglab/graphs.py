"""Graphs, couplings, fields, box lattices, ghost vertices and reflection symmetries.

Vertex ids are dense 0-based integers.  Edges are stored as (min, max) pairs;
the position in the edge list is the edge id.  Parallel edges are allowed and
carry distinct ids; self-loops are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class Graph:
    """Finite multigraph with stable vertex/edge rankings."""

    def __init__(self, n_vertices, edges):
        if n_vertices < 0:
            raise ValueError("negative vertex count")
        self.n = int(n_vertices)
        self.edges = []
        self.adjacency = [[] for _ in range(self.n)]
        for (u, v) in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError("self-loop at vertex %d" % u)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range: (%d,%d)" % (u, v))
            eid = len(self.edges)
            self.edges.append((min(u, v), max(u, v)))
            self.adjacency[u].append(eid)
            self.adjacency[v].append(eid)

    @property
    def vertices(self):
        return range(self.n)

    @property
    def n_edges(self):
        return len(self.edges)

    def other_end(self, eid, v):
        u, w = self.edges[eid]
        return w if v == u else u

    def incident(self, v):
        return self.adjacency[v]

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (self.n, len(self.edges))


class Couplings:
    """Edge couplings J plus inverse temperature; K_b = beta*J_b throughout."""

    def __init__(self, graph, J, beta):
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        if isinstance(J, (int, float)):
            J = [float(J)] * graph.n_edges
        J = [float(x) for x in J]
        if len(J) != graph.n_edges:
            raise ValueError("one J entry per edge required")
        self.graph = graph
        self.J = J
        self.beta = float(beta)

    def K(self, eid):
        return self.beta * self.J[eid]

    def K_abs(self, eid):
        return self.beta * abs(self.J[eid])

    @property
    def is_ferromagnetic(self):
        return all(j >= 0 for j in self.J)

    def negative_edges(self):
        return frozenset(e for e, j in enumerate(self.J) if j < 0)

    def with_beta(self, beta):
        return Couplings(self.graph, self.J, beta)

    def with_flipped(self, flip_set):
        """Couplings with the sign of J reversed on the given edge set."""
        J = list(self.J)
        for e in flip_set:
            J[e] = -J[e]
        return Couplings(self.graph, J, self.beta)

    def with_abs(self):
        return Couplings(self.graph, [abs(j) for j in self.J], self.beta)

    def with_depleted(self, edge_set):
        """Couplings with J set to zero on the given edges."""
        J = list(self.J)
        for e in edge_set:
            J[e] = 0.0
        return Couplings(self.graph, J, self.beta)


class FieldSpec:
    """Vertex fields: h >= 0 and a general-sign part g.

    The acting field at a vertex is h + g; engines that need h - g (or h
    alone) build the appropriate FieldSpec themselves.
    """

    def __init__(self, n_vertices, h=None, g=None):
        self.n = n_vertices
        self.h = [0.0] * n_vertices
        self.g = [0.0] * n_vertices
        if h:
            for v, val in (h.items() if isinstance(h, dict) else enumerate(h)):
                if val < 0:
                    raise ValueError("h must be nonnegative")
                self.h[v] = float(val)
        if g:
            for v, val in (g.items() if isinstance(g, dict) else enumerate(g)):
                self.g[v] = float(val)

    def total(self, v):
        return self.h[v] + self.g[v]

    def is_zero(self):
        return all(x == 0.0 for x in self.h) and all(x == 0.0 for x in self.g)


class BoundarySpec:
    """Plus/Minus/Free designation of declared boundary vertices."""

    PLUS, MINUS, FREE = "plus", "minus", "free"

    def __init__(self, designation):
        # designation: dict vertex -> 'plus'|'minus'|'free'
        for v, d in designation.items():
            if d not in (self.PLUS, self.MINUS, self.FREE):
                raise ValueError("bad designation %r" % d)
        self.designation = dict(designation)

    @property
    def boundary(self):
        return frozenset(self.designation)

    @property
    def plus_set(self):
        return frozenset(v for v, d in self.designation.items() if d == self.PLUS)

    @property
    def minus_set(self):
        return frozenset(v for v, d in self.designation.items() if d == self.MINUS)

    def clamped(self):
        """vertex -> +-1 for clamped (plus/minus) vertices."""
        out = {}
        for v, d in self.designation.items():
            if d == self.PLUS:
                out[v] = 1
            elif d == self.MINUS:
                out[v] = -1
        return out

    def interior(self, graph):
        return frozenset(v for v in graph.vertices if v not in self.designation)

    def all_plus(self):
        return BoundarySpec({v: self.PLUS for v in self.designation})


# ---------------------------------------------------------------------------
# box lattices


class BoxGraph(Graph):
    """Axis-aligned box in Z^d with lexicographic vertex ranking and
    edge ranking by (lower endpoint, axis)."""

    def __init__(self, d, sides):
        if d not in (2, 3):
            raise ValueError("d must be 2 or 3")
        sides = [int(s) for s in sides]
        if len(sides) != d or any(s < 1 for s in sides):
            raise ValueError("need %d side lengths >= 1" % d)
        self.d = d
        self.sides = sides
        coords = []

        def rec(prefix, rest):
            if not rest:
                coords.append(tuple(prefix))
                return
            for c in range(rest[0]):
                rec(prefix + [c], rest[1:])

        rec([], sides)
        coords.sort()
        self.coords = coords
        self.index = {c: i for i, c in enumerate(coords)}
        edges = []
        self.edge_axis = []
        for i, c in enumerate(coords):
            for axis in range(d):
                nb = list(c)
                nb[axis] += 1
                nb = tuple(nb)
                if nb in self.index:
                    edges.append((i, self.index[nb]))
                    self.edge_axis.append(axis)
        super().__init__(len(coords), edges)

    def boundary_vertices(self):
        out = []
        for i, c in enumerate(self.coords):
            if any(x == 0 or x == s - 1 for x, s in zip(c, self.sides)):
                out.append(i)
        return out

    def dobrushin_boundary(self, axis=None):
        """Dobrushin split: boundary spins +1 strictly above the middle of
        `axis`, -1 strictly below, +1 on the mid-plane."""
        if axis is None:
            axis = self.d - 1
        mid = (self.sides[axis] - 1) / 2.0
        desig = {}
        for v in self.boundary_vertices():
            c = self.coords[v][axis]
            desig[v] = BoundarySpec.MINUS if c < mid else BoundarySpec.PLUS
        return BoundarySpec(desig)

    def plus_boundary(self):
        return BoundarySpec({v: BoundarySpec.PLUS for v in self.boundary_vertices()})

    def crossing_edges(self, axis, plane):
        """Edges crossing the hyperplane {x_axis = plane} (plane half-integer)."""
        out = []
        for e, (u, v) in enumerate(self.edges):
            a, b = self.coords[u][axis], self.coords[v][axis]
            if min(a, b) < plane < max(a, b):
                out.append(e)
        return out


def generate_box_lattice(d, side_lengths):
    """Nearest-neighbour box lattice plus a unit-coupling skeleton.

    Returns (BoxGraph, Couplings with J=1, beta=1).
    """
    g = BoxGraph(d, side_lengths)
    return g, Couplings(g, 1.0, 1.0)


def induced_subgraph(graph, couplings, keep):
    """Subgraph on the vertex set `keep` with the surviving couplings.

    Returns (sub, sub_couplings, vmap) where vmap maps old -> new ids.
    """
    keep = sorted(set(keep))
    vmap = {v: i for i, v in enumerate(keep)}
    edges, J = [], []
    for e, (u, v) in enumerate(graph.edges):
        if u in vmap and v in vmap:
            edges.append((vmap[u], vmap[v]))
            J.append(couplings.J[e])
    sub = Graph(len(keep), edges)
    return sub, Couplings(sub, J, couplings.beta), vmap


# ---------------------------------------------------------------------------
# reflections


@dataclass
class ReflectionSymmetry:
    graph: Graph
    couplings: Couplings
    involution: list          # vertex -> vertex
    edge_map: list            # edge id -> edge id
    lambda0: frozenset        # fixed vertices
    lambda1: frozenset
    lambda2: frozenset
    e0: tuple                 # edges within lambda0
    e1: tuple                 # edges on side 1 (both ends in L1, or L0-L1)
    e2: tuple

    def check(self):
        inv = self.involution
        for v in self.graph.vertices:
            assert inv[inv[v]] == v
        for e in range(self.graph.n_edges):
            assert self.edge_map[self.edge_map[e]] == e
            assert abs(self.couplings.J[e] - self.couplings.J[self.edge_map[e]]) < 1e-15
        # Markovian: no edge joins lambda1 to lambda2
        for (u, v) in self.graph.edges:
            assert not (u in self.lambda1 and v in self.lambda2)
            assert not (u in self.lambda2 and v in self.lambda1)
        return True


def _build_reflection(graph, couplings, involution):
    inv = involution
    l0 = frozenset(v for v in graph.vertices if inv[v] == v)
    # side assignment: BFS from the first non-fixed vertex would not be
    # canonical; instead classify by the involution orbit order.
    l1, l2 = set(), set()
    for v in graph.vertices:
        if inv[v] == v:
            continue
        if v < inv[v]:
            l1.add(v)
        else:
            l2.add(v)
    # edge involution
    pair_count = {}
    for e, (u, v) in enumerate(graph.edges):
        key = (min(u, v), max(u, v))
        pair_count.setdefault(key, []).append(e)
    used = {k: 0 for k in pair_count}
    edge_map = [None] * graph.n_edges
    for e, (u, v) in enumerate(graph.edges):
        ru, rv = inv[u], inv[v]
        key = (min(ru, rv), max(ru, rv))
        if key not in pair_count:
            raise ValueError("involution does not map edges to edges")
        lst = pair_count[key]
        edge_map[e] = lst[used[key] % len(lst)]
        used[key] += 1
    e0, e1, e2 = [], [], []
    for e, (u, v) in enumerate(graph.edges):
        if u in l0 and v in l0:
            e0.append(e)
        elif (u in l1 or v in l1) and not (u in l2 or v in l2):
            e1.append(e)
        elif (u in l2 or v in l2) and not (u in l1 or v in l1):
            e2.append(e)
        else:
            raise ValueError("edge (%d,%d) joins the two sides directly" % (u, v))
    r = ReflectionSymmetry(graph=graph, couplings=couplings, involution=inv,
                           edge_map=edge_map, lambda0=l0, lambda1=frozenset(l1),
                           lambda2=frozenset(l2), e0=tuple(e0), e1=tuple(e1),
                           e2=tuple(e2))
    r.check()
    return r


def mid_edge_coupling(K):
    """K' with tanh(K') = sqrt(tanh(K)): splitting one edge into two
    preserves the two-spin marginal since tanh(K')^2 = tanh(K)."""
    if K < 0:
        raise ValueError("mid-edge insertion needs K >= 0")
    return math.atanh(math.sqrt(math.tanh(K)))


def reflection_for_axis(box, couplings, axis, plane):
    """ReflectionSymmetry of a box about {x_axis = plane}.

    `plane` may be an integer coordinate (a vertex plane, nothing inserted)
    or a half-integer mid-edge plane, in which case the crossing edges are
    subdivided with couplings J' chosen so tanh(beta J) = tanh(beta J')^2.
    Box vertex ids are lexicographic and the mid-edge sites are fixed, so
    lambda1 (the vertices v < R(v)) is the side with x_axis < plane.
    """
    if not isinstance(box, BoxGraph):
        raise ValueError("reflection_for_axis needs a box lattice")
    L = box.sides[axis]
    if abs(2 * plane - round(2 * plane)) > 1e-12:
        raise ValueError("plane must be integer or half-integer")
    plane = round(2 * plane) / 2.0
    if abs(plane - (L - 1) / 2.0) > 1e-12:
        raise ValueError("plane is not a symmetry plane of the box")

    if float(plane).is_integer():
        inv = []
        for c in box.coords:
            rc = list(c)
            rc[axis] = int(2 * plane - c[axis])
            inv.append(box.index[tuple(rc)])
        return _build_reflection(box, couplings, inv)

    # mid-edge plane: subdivide the crossing edges
    crossing = set(box.crossing_edges(axis, plane))
    coords = list(box.coords)
    edges = []
    J = []
    for e, (u, v) in enumerate(box.edges):
        if e in crossing:
            K = couplings.beta * couplings.J[e]
            Kp = mid_edge_coupling(K)
            m = len(coords)
            cu, cv = box.coords[u], box.coords[v]
            mid = tuple((a + b) / 2.0 for a, b in zip(cu, cv))
            coords.append(mid)
            edges.append((u, m))
            J.append(Kp / couplings.beta if couplings.beta > 0 else 0.0)
            edges.append((m, v))
            J.append(Kp / couplings.beta if couplings.beta > 0 else 0.0)
        else:
            edges.append((u, v))
            J.append(couplings.J[e])
    graph = Graph(len(coords), edges)
    graph.coords = coords                     # keep geometry for event wiring
    coup = Couplings(graph, J, couplings.beta)
    index = {}
    for i, c in enumerate(coords):
        index[tuple(float(x) for x in c)] = i
    inv = []
    for c in coords:
        rc = list(float(x) for x in c)
        rc[axis] = 2 * plane - rc[axis]
        inv.append(index[tuple(rc)])
    return _build_reflection(graph, coup, inv)


# ---------------------------------------------------------------------------
# text formats


def parse_graph_file(text):
    """Parse the line-based graph format.

    vertex <id> [h=<float>] [g=<float>]
    edge <u> <v> <J>
    boundary <id> plus|minus|free
    """
    verts = set()
    h, g = {}, {}
    raw_edges = []
    desig = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "vertex":
                v = int(parts[1])
                verts.add(v)
                for p in parts[2:]:
                    key, val = p.split("=")
                    if key == "h":
                        h[v] = float(val)
                    elif key == "g":
                        g[v] = float(val)
                    else:
                        raise ValueError(key)
            elif parts[0] == "edge":
                u, v, J = int(parts[1]), int(parts[2]), float(parts[3])
                verts.add(u)
                verts.add(v)
                raw_edges.append((u, v, J))
            elif parts[0] == "boundary":
                desig[int(parts[1])] = parts[2]
            else:
                raise ValueError(parts[0])
        except (IndexError, ValueError) as exc:
            raise ValueError("bad graph file line %d: %r (%s)" % (lineno, line, exc))
    ids = sorted(verts)
    remap = {v: i for i, v in enumerate(ids)}
    graph = Graph(len(ids), [(remap[u], remap[v]) for u, v, _ in raw_edges])
    coup = Couplings(graph, [J for _, _, J in raw_edges], 1.0)
    fs = FieldSpec(len(ids),
                   h={remap[v]: x for v, x in h.items()},
                   g={remap[v]: x for v, x in g.items()})
    bs = BoundarySpec({remap[v]: d for v, d in desig.items()}) if desig else None
    return graph, coup, fs, bs


def serialize_graph(graph, couplings, fields=None, boundary=None):
    lines = []
    for v in graph.vertices:
        extra = ""
        if fields is not None:
            if fields.h[v]:
                extra += " h=%.17g" % fields.h[v]
            if fields.g[v]:
                extra += " g=%.17g" % fields.g[v]
        lines.append("vertex %d%s" % (v, extra))
    for e, (u, v) in enumerate(graph.edges):
        lines.append("edge %d %d %.17g" % (u, v, couplings.J[e]))
    if boundary is not None:
        for v in sorted(boundary.designation):
            lines.append("boundary %d %s" % (v, boundary.designation[v]))
    return "\n".join(lines) + "\n"


def parse_lattice_spec(spec):
    """`box:d=<2|3>,L=<n>[,<n>,<n>],bc=<free|plus|pm>` -> (BoxGraph, Couplings, BoundarySpec|None)."""
    if not spec.startswith("box:"):
        raise ValueError("unknown lattice spec %r" % spec)
    body = spec[len("box:"):]
    d = None
    sides = []
    bc = "free"
    for item in body.split(","):
        if "=" in item:
            key, val = item.split("=", 1)
            if key == "d":
                d = int(val)
            elif key == "L":
                sides.append(int(val))
            elif key == "bc":
                bc = val
            else:
                raise ValueError("unknown key %r in lattice spec" % key)
        else:
            sides.append(int(item))
    if d is None:
        raise ValueError("lattice spec needs d=")
    if not sides:
        raise ValueError("lattice spec needs L=")
    while len(sides) < d:
        sides.append(sides[-1])
    box, coup = generate_box_lattice(d, sides[:d])
    if bc == "free":
        bspec = None
    elif bc == "plus":
        bspec = box.plus_boundary()
    elif bc == "pm":
        bspec = box.dobrushin_boundary()
    else:
        raise ValueError("unknown bc %r" % bc)
    return box, coup, bspec
