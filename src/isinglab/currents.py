"""Single random-current sums via the per-edge trichotomy.

A current n: E -> Z+ with weight prod (beta J)^n / n! is pushed forward onto
its per-edge (parity, support) class:

    Zero      weight 1
    Odd       weight sinh K
    EvenPos   weight cosh K - 1          with K = beta |J|.

Every event in scope is measurable with respect to (parity, support), so the
infinite flux sum collapses to a finite 3^|E| enumeration.  Signs of
antiferromagnetic couplings are tracked separately: a configuration picks up
(-1) for each Odd negative edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spins import SizeError
from .unionfind import ParityUnionFind, UnionFind

ZERO, ODD, EVENPOS = 0, 1, 2

SINGLE_EDGE_CAP = 20


class ConstraintError(ValueError):
    pass


class SourceConstraint:
    """Exact sources, or sources free on a boundary set."""

    def __init__(self, mode, sources, boundary=frozenset()):
        if mode not in ("exact", "relaxed"):
            raise ValueError(mode)
        sources = frozenset(sources)
        if mode == "exact" and len(sources) % 2 == 1:
            raise ConstraintError("odd source set %r" % (set(sources),))
        if mode == "relaxed" and sources & frozenset(boundary):
            raise ConstraintError("relaxed sources must lie off the boundary")
        self.mode = mode
        self.sources = sources
        self.boundary = frozenset(boundary)

    @classmethod
    def exact(cls, A):
        return cls("exact", A)

    @classmethod
    def relaxed_on_boundary(cls, A_interior, boundary):
        return cls("relaxed", A_interior, boundary)

    def satisfied_by(self, odd_vertices):
        if self.mode == "exact":
            return frozenset(odd_vertices) == self.sources
        return frozenset(odd_vertices) - self.boundary == self.sources


@dataclass(frozen=True)
class EdgeStateConfig:
    """One trichotomy state over the edges of a graph."""
    graph: object
    states: tuple

    @property
    def odd_edges(self):
        return frozenset(e for e, s in enumerate(self.states) if s == ODD)

    @property
    def support(self):
        return frozenset(e for e, s in enumerate(self.states) if s != ZERO)

    def odd_vertices(self):
        deg = [0] * self.graph.n
        for e, s in enumerate(self.states):
            if s == ODD:
                u, v = self.graph.edges[e]
                deg[u] ^= 1
                deg[v] ^= 1
        return frozenset(v for v in self.graph.vertices if deg[v])


def edge_weight_table(couplings):
    """Per edge: (1, sinh K, cosh K - 1) with K = beta |J|."""
    out = []
    for e in range(couplings.graph.n_edges):
        K = couplings.K_abs(e)
        out.append((1.0, math.sinh(K), math.cosh(K) - 1.0))
    return out


def current_sum(graph, couplings, constraint, signed=False, event=None,
                sign_edges=None, cap=SINGLE_EDGE_CAP):
    """Sum of trichotomy weights over states meeting the source constraint.

    With exact empty sources, unsigned, no event this equals the spin-oracle
    partition function (for ferromagnetic J); the signed variant multiplies
    each term by (-1)^{Odd flux over sign_edges} (default: negative edges).
    """
    E = graph.n_edges
    if E > cap:
        raise SizeError("3^%d current states exceed the cap 3^%d" % (E, cap))
    weights = edge_weight_table(couplings)
    if sign_edges is None:
        sign_edges = couplings.negative_edges()
    sign_edges = frozenset(sign_edges)
    ends = graph.edges
    terms = []
    states = [ZERO] * E

    def rec(e, w, parity, neg_parity):
        if e == E:
            odd = frozenset(v for v in range(graph.n) if parity & (1 << v))
            if not constraint.satisfied_by(odd):
                return
            t = w
            if signed and (neg_parity & 1):
                t = -t
            if event is not None:
                cfg = EdgeStateConfig(graph, tuple(states))
                ev = event(cfg)
                if ev is False or ev == 0:
                    return
                if ev is not True:
                    t *= ev
            terms.append(t)
            return
        w0, wo, we = weights[e]
        u, v = ends[e]
        states[e] = ZERO
        rec(e + 1, w * w0, parity, neg_parity)
        if wo:
            states[e] = ODD
            rec(e + 1, w * wo, parity ^ (1 << u) ^ (1 << v),
                neg_parity + (1 if e in sign_edges else 0))
        if we:
            states[e] = EVENPOS
            rec(e + 1, w * we, parity, neg_parity)
        states[e] = ZERO

    rec(0, 1.0, 0, 0)
    return math.fsum(terms)


def correlation_via_currents(graph, couplings, A, cap=SINGLE_EDGE_CAP):
    """<sigma_A> as a ratio of source-constrained current sums."""
    A = frozenset(A)
    signed = not couplings.is_ferromagnetic
    num = current_sum(graph, couplings, SourceConstraint.exact(A),
                      signed=signed, cap=cap)
    den = current_sum(graph, couplings, SourceConstraint.exact(frozenset()),
                      signed=signed, cap=cap)
    return num / den


def truncated_flux_sum(graph, couplings, A, cutoff=40):
    """Independent oracle for the trichotomy: sum w(n) over integer currents
    with per-edge flux <= cutoff and exact sources A, via truncated series
    of cosh/sinh split by flux parity."""
    A = frozenset(A)
    if len(A) % 2:
        raise ConstraintError("odd source set")
    even_s, odd_s = [], []
    for e in range(graph.n_edges):
        K = couplings.K_abs(e)
        ev = od = 0.0
        term = 1.0
        for n in range(cutoff + 1):
            if n > 0:
                term *= K / n
            if n % 2 == 0:
                ev += term
            else:
                od += term
        even_s.append(ev)
        odd_s.append(od)
    E = graph.n_edges
    terms = []
    for mask in range(1 << E):
        parity = 0
        w = 1.0
        for e in range(E):
            if mask & (1 << e):
                u, v = graph.edges[e]
                parity ^= (1 << u) ^ (1 << v)
                w *= odd_s[e]
            else:
                w *= even_s[e]
        odd = frozenset(v for v in range(graph.n) if parity & (1 << v))
        if odd == A:
            terms.append(w)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# support views, support labels and the support-pattern kernel shared by the
# double-current, folded-current and FK engines.  A support pattern is a bit
# mask: bit i adds the edges bit_edges[i].  Each engine weighs the patterns
# its own way; the kernel labels the components of a whole chunk of patterns
# in numpy and sums the weighted events.  An event is a function of one
# chunk's _SupportLabels that gives one value per pattern (or one value for
# all of them), built from the label queries connected, connects_sets,
# reached, cluster_count, is_ff, sgn, has_edge, touched and open_count.
# SupportView answers the same queries for one support, for the direct
# double-current sums and the samplers.

_CHUNK_BITS = 16          # at most 2^16 patterns per chunk
_CHUNK_CELLS = 1 << 22    # and at most this many (pattern, vertex) labels


class SupportView:
    """Connectivity/parity queries against a fixed edge subset."""

    def __init__(self, graph, edge_ids):
        self.graph = graph
        self.edge_ids = frozenset(edge_ids)
        uf = UnionFind(graph.n)
        touched = set()
        for e in self.edge_ids:
            u, v = graph.edges[e]
            uf.union(u, v)
            touched.add(u)
            touched.add(v)
        self._uf = uf
        self.touched = touched

    def connected(self, u, v):
        return self._uf.connected(u, v)

    def cluster_count(self, wired=None):
        """Number of clusters of the spanning subgraph; with `wired`, only
        those that reach no wired vertex (N0 of a wired boundary)."""
        if wired is None:
            return self._uf.count
        return self._uf.count - len({self._uf.find(v) for v in wired})

    def connects_sets(self, U, V):
        roots = {self._uf.find(u) for u in U}
        return any(self._uf.find(v) in roots for v in V)

    def pairable(self, B):
        """Existence of k <= m with boundary B inside this support: every
        B-vertex is touched and each component holds an even number of them."""
        B = frozenset(B)
        if not B:
            return True
        if not B <= self.touched:
            return False
        counts = {}
        for b in B:
            r = self._uf.find(b)
            counts[r] = counts.get(r, 0) + 1
        return all(c % 2 == 0 for c in counts.values())

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
        is frustration-free and actually connects u to v."""
        puf = self.parity_labels(negative_edges)
        if not puf.consistent:
            return 0.0
        p = puf.relative_parity(u, v)
        if p is None or not (u in self.touched and v in self.touched):
            return 0.0
        return -1.0 if p else 1.0


def _merge(lab, u, v, par=None, ok=None, flag=False):
    """Add edge (u, v) to every row of `lab` in place: the component with
    the larger label takes the smaller one.  With `par`/`ok`, also shift
    the moved component's Z2 offsets so the edge has parity `flag`, and
    clear `ok` in rows where the edge closes a cycle odd over the flags."""
    a, b = lab[:, u], lab[:, v]
    lo = np.minimum(a, b)[:, None]
    moved = lab == np.maximum(a, b)[:, None]
    if par is not None:
        odd = par[:, u] ^ par[:, v] ^ flag
        same = a == b
        ok &= ~(same & odd)
        par ^= moved & (odd & ~same)[:, None]
    np.copyto(lab, lo, where=moved)


def _pattern_labels(graph, bit_edges, base, nbits, flagged=None):
    """Labels of the patterns base + r, r < 2^nbits (base a multiple of
    2^nbits), built by doubling over the low bits.

    lab[r, v] is the smallest vertex of v's component.  With a `flagged`
    edge set, par[r, v] is v's Z2 offset from that vertex over the flagged
    edges and ok[r] is False once some cycle is odd; else both are None.
    """
    n = graph.n
    dtype = np.int8 if n <= 127 else np.int16 if n < 1 << 15 else np.int32
    lab = np.empty((1 << nbits, n), dtype=dtype)
    lab[0] = np.arange(n)
    par = ok = None
    if flagged is not None:
        par = np.zeros(lab.shape, dtype=bool)
        ok = np.ones(len(lab), dtype=bool)

    def add(i, rows):
        for e in bit_edges[i]:
            u, v = graph.edges[e]
            if flagged is None:
                _merge(lab[rows], u, v)
            else:
                _merge(lab[rows], u, v, par[rows], ok[rows], e in flagged)

    for i in range(nbits, len(bit_edges)):
        if base >> i & 1:
            add(i, slice(0, 1))
    for i in range(nbits):
        h = 1 << i
        lab[h:2 * h] = lab[:h]
        if flagged is not None:
            par[h:2 * h] = par[:h]
            ok[h:2 * h] = ok[:h]
        add(i, slice(h, 2 * h))
    return lab, par, ok


class _SupportLabels:
    """One chunk of support patterns, labelled; events read it.

    The array counterparts of the SupportView queries return one value per
    pattern (row).  `restrict` keeps a subset of the rows.
    """

    def __init__(self, graph, bit_edges, base, nbits):
        self.graph = graph
        self.bit_edges = bit_edges
        self._chunk = (base, nbits)
        self._rows = slice(None)
        self._parity = {}
        self.masks = base + np.arange(1 << nbits, dtype=np.int64)
        self.lab = _pattern_labels(graph, bit_edges, base, nbits)[0]

    def restrict(self, rows):
        self._rows = rows
        self.masks = self.masks[rows]
        self.lab = self.lab[rows]
        self._parity = {}

    def _bits_with(self, keep):
        """Rows whose pattern has some bit i with keep(bit_edges[i])."""
        m = 0
        for i, es in enumerate(self.bit_edges):
            if keep(es):
                m |= 1 << i
        return (self.masks & m) != 0

    def has_edge(self, e):
        return self._bits_with(lambda es: e in es)

    def open_count(self):
        return sum(self.has_edge(e) * 1 for e in range(self.graph.n_edges))

    def touched(self, v):
        ends = self.graph.edges
        return self._bits_with(lambda es: any(v in ends[e] for e in es))

    def _marks(self, S):
        """marks[r, l]: some vertex of S has the label l in row r."""
        marks = np.zeros(self.lab.shape, dtype=bool)
        marks[np.arange(len(marks))[:, None], self.lab[:, list(S)]] = True
        return marks

    def reached(self, S):
        """reached[r, v]: v's component holds a vertex of S in row r."""
        marks = self._marks(S)
        return marks[np.arange(len(marks))[:, None], self.lab]

    def connected(self, u, v):
        return self.lab[:, u] == self.lab[:, v]

    def connects_sets(self, U, V):
        return self.reached(U)[:, list(V)].any(1)

    def cluster_count(self, wired=None):
        count = (self.lab == np.arange(self.graph.n)).sum(1)
        if wired is None:
            return count
        return count - self._marks(wired).sum(1)

    def parity(self, flagged):
        """(par, ok) of `_pattern_labels` over the flagged edges."""
        key = frozenset(flagged)
        if key not in self._parity:
            base, nbits = self._chunk
            _, par, ok = _pattern_labels(self.graph, self.bit_edges, base,
                                         nbits, key)
            self._parity[key] = (par[self._rows], ok[self._rows])
        return self._parity[key]

    def is_ff(self, flagged):
        return self.parity(flagged)[1]

    def sgn(self, u, v, flagged):
        par, ok = self.parity(flagged)
        hit = (ok & self.connected(u, v) & self.touched(u)
               & self.touched(v))
        return np.where(hit, np.where(par[:, u] ^ par[:, v], -1.0, 1.0), 0.0)


def _fsum(arrays):
    return math.fsum(np.concatenate(arrays)) if arrays else 0.0


def _support_expectations(graph, bit_edges, weigh, events):
    """Normalized expectations of the named events over all support
    patterns, plus '_total' (the raw weight sum).

    Pattern `mask` is the support made of bit_edges[i] for the bits i of
    mask.  weigh(_SupportLabels) gives the weights of a chunk's patterns;
    patterns of weight 0 are dropped.  events: dict name ->
    fn(_SupportLabels), giving the value of every kept pattern of a chunk
    (an array with one entry per row, or one value for all rows).  Every
    event sums the terms weight * value of nonzero value with math.fsum, so
    the result does not depend on the order the patterns are visited in.
    """
    nbits = len(bit_edges)
    chunk = min(nbits, _CHUNK_BITS,
                max(0, (_CHUNK_CELLS // max(graph.n, 1)).bit_length() - 1))
    acc = {name: [] for name in events}
    tot = []
    for base in range(0, 1 << nbits, 1 << chunk):
        labels = _SupportLabels(graph, bit_edges, base, chunk)
        wgt = weigh(labels)
        rows = np.flatnonzero(wgt)
        if not len(rows):
            continue
        wgt = wgt[rows]
        labels.restrict(rows)
        tot.append(wgt)
        for name, fn in events.items():
            val = np.broadcast_to(np.asarray(fn(labels), dtype=float),
                                  wgt.shape)
            hit = val != 0
            acc[name].append(wgt[hit] * val[hit])
    total = _fsum(tot)
    out = {name: _fsum(terms) / total for name, terms in acc.items()}
    out["_total"] = total
    return out


def _product_table(edge_list, tabs, nsig):
    """Meet-in-the-middle half table: row `mask` is the product of tabs[e]
    (arrays of length nsig) over the edges of edge_list selected by mask."""
    m = len(edge_list)
    out = np.empty((1 << m, nsig))
    out[0] = 1.0
    for mask in range(1, 1 << m):
        low = mask & -mask
        e = edge_list[low.bit_length() - 1]
        out[mask] = out[mask ^ low] * tabs[e]
    return out


def _dobrushin_events(boundary_spec, x=None):
    """Events of the mixed-boundary identities on a support wired at the
    boundary: 'ff' (no minus-plus connection) and, for a site x, 'x_bdry'
    (x reaches the boundary) and 'x_plus' / 'x_minus' (x reaches that part
    of the boundary and the support is ff)."""
    plus = boundary_spec.plus_set
    minus = boundary_spec.minus_set

    def ff(labels):
        return ~labels.connects_sets(minus, plus)

    events = {"ff": ff}
    if x is not None:
        bdry = plus | minus
        events["x_bdry"] = lambda labels: labels.connects_sets([x], bdry)
        events["x_plus"] = (
            lambda labels: ff(labels) & labels.connects_sets([x], plus))
        events["x_minus"] = (
            lambda labels: ff(labels) & labels.connects_sets([x], minus))
    return events
