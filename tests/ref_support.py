"""Per-support reference queries, kept apart from the library.

The support kernel answers connections, frustration and relative signs for
all patterns at once with subgraph counts.  The union-find forms here answer
them for one support at a time, and `pattern_labels` labels the components
of many patterns by doubling over the pattern bits; the tests compare them.
`subgraph_sums_loop` and `edge_factors_loop` are the kernel's transforms as
plain per-bit loops, one strided pass per bit, which the kernel's
contiguous in-place passes must equal byte for byte.
"""

import numpy as np

from isinglab.currents import SupportView


def subgraph_sums_loop(bounds, target, a, b):
    """`currents._subgraph_sums`: h[S] = sum over F within S with boundary
    `target` of prod_F b_e prod_{S - F} a_e, by doubling the boundaries
    over the bits and one butterfly h1 = b_i h1 + a_i h0 per bit."""
    synd = np.zeros(1, dtype=np.int64)
    for bound in bounds:
        synd = np.concatenate((synd, synd ^ bound))
    h = (synd == target).astype(float)
    for i, (ai, bi) in enumerate(zip(a, b)):
        pair = h.reshape(-1, 2, 1 << i)
        pair[:, 1] = bi * pair[:, 1] + ai * pair[:, 0]
    return h


def edge_factors_loop(W, ps, q):
    """FK's edge pass in place: per edge i, in order, 1 - p_i on the masks
    where it is closed and p_i / q where it is open."""
    for i, p in enumerate(ps):
        pair = W.reshape(-1, 2, 1 << i)
        pair[:, 0] *= 1.0 - p
        pair[:, 1] *= p / q
    return W


def _merge(lab, u, v):
    """Add edge (u, v) to every row of `lab` in place: the component with
    the larger label takes the smaller one."""
    a, b = lab[:, u], lab[:, v]
    lo = np.minimum(a, b)[:, None]
    np.copyto(lab, lo, where=lab == np.maximum(a, b)[:, None])


def pattern_labels(graph, bit_edges, base, nbits):
    """Labels of the patterns base + r, r < 2^nbits (base a multiple of
    2^nbits), built by doubling over the low bits: lab[r, v] is the
    smallest vertex of v's component."""
    n = graph.n
    dtype = np.int8 if n <= 127 else np.int16 if n < 1 << 15 else np.int32
    lab = np.empty((1 << nbits, n), dtype=dtype)
    lab[0] = np.arange(n)

    def add(i, rows):
        for e in bit_edges[i]:
            _merge(lab[rows], *graph.edges[e])

    for i in range(nbits, len(bit_edges)):
        if base >> i & 1:
            add(i, slice(0, 1))
    for i in range(nbits):
        h = 1 << i
        lab[h:2 * h] = lab[:h]
        add(i, slice(h, 2 * h))
    return lab


class ParityUnionFind:
    """Union-find where every element carries a Z2 offset to its root.

    union(x, y, p) merges the classes of x and y subject to the relation
    label(x) xor label(y) = p; it returns False on a parity conflict
    (a frustrated cycle).
    """

    def __init__(self, n):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.offset = [0] * n   # parity relative to parent
        self.consistent = True

    def find(self, x):
        if self.parent[x] == x:
            return x, 0
        path = []
        root = x
        par = 0
        while self.parent[root] != root:
            path.append(root)
            par ^= self.offset[root]
            root = self.parent[root]
        # path compression with parity accumulation
        p = par
        for v in path:
            ov = self.offset[v]
            self.parent[v] = root
            self.offset[v] = p
            p ^= ov
        return root, par

    def union(self, x, y, parity):
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            if px ^ py != parity:
                self.consistent = False
                return False
            return True
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
            px, py = py, px
        self.parent[ry] = rx
        self.offset[ry] = px ^ py ^ parity
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        return True

    def relative_parity(self, x, y):
        """0/1 parity between x and y; None if in different components."""
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx != ry:
            return None
        return px ^ py


class RefSupportView(SupportView):
    """SupportView plus the pairing, cluster, set and parity queries of the
    label kernel, answered with union-finds over the one support."""

    def pairable(self, B):
        """Existence of k <= m with boundary B inside this support: every
        B-vertex is touched and each component holds an even number of them."""
        B = frozenset(B)
        if not B:
            return True
        if not B <= {v for e in self.edge_ids for v in self.graph.edges[e]}:
            return False
        counts = {}
        for b in B:
            r = self._uf.find(b)
            counts[r] = counts.get(r, 0) + 1
        return all(c % 2 == 0 for c in counts.values())

    def cluster_count(self, wired=None):
        """Number of clusters of the spanning subgraph; with `wired`, only
        those that reach no wired vertex (N0 of a wired boundary)."""
        if wired is None:
            return self._uf.count
        return self._uf.count - len({self._uf.find(v) for v in wired})

    def connects_sets(self, U, V):
        roots = {self._uf.find(u) for u in U}
        return any(self._uf.find(v) in roots for v in V)

    def parity_labels(self, flagged_edges):
        """ParityUnionFind of the support with parity 1 on flagged edges;
        .consistent is False iff some support cycle is odd over the flags."""
        puf = ParityUnionFind(self.graph.n)
        for e in self.edge_ids:
            u, v = self.graph.edges[e]
            puf.union(u, v, 1 if e in flagged_edges else 0)
        return puf

    def is_ff(self, negative_edges):
        return self.parity_labels(negative_edges).consistent

    def sgn(self, u, v, negative_edges):
        """Relative-parity sign of the u-v connection; 0 unless the support
        is frustration-free and connects u to v (1 for u = v on a
        frustration-free support)."""
        puf = self.parity_labels(negative_edges)
        if not puf.consistent:
            return 0.0
        p = puf.relative_parity(u, v)
        if p is None:
            return 0.0
        return -1.0 if p else 1.0

