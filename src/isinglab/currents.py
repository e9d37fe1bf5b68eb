"""Single random-current sums over odd sets.

A current n: E -> Z+ with weight prod (beta J)^n / n! has per-edge parity
classes: an even flux sums to cosh K, an odd one to sinh K, with K = beta |J|.
A sum with no event sees only the parity, so the infinite flux sum collapses
to a finite sum over odd sets (Aizenman 1982).  Signs of antiferromagnetic
couplings are tracked separately: an odd set picks up (-1) for each negative
edge in it.

The odd sets with odd vertices A are one coset of the graph's cycle space,
so a sum with sources A visits 2^(E - n + c) of them, not 2^E.  `gf2` solves
for the coset and lists it in numpy chunks, in the order of a depth-first
walk over the edges; every odd set's weight is the same left-to-right float
product the walk would form, so sums over it do not depend on the chunking.
`backbone.backbone_grouping` reads the same chunks.

The trichotomy refines the even class by support: Zero (weight 1) and
EvenPos (cosh K - 1).  `EdgeStateConfig` holds such a state for the
rejection sampler, and `single_support_expectations` weighs supports by it,
as a sum of positive terms over the subgraphs of odd edges.  `_subgraph_sums`
forms such sums for all 2^E supports at once by one subset-sum ("zeta")
transform (Björklund, Husfeldt, Kaski and Koivisto 2007); the double- and
folded-current laws of `doubled` and `folding` are products of two of them,
and the FK weight of `fk` is one of them times the edge factors.  Their
events are such sums too: a connection is a pairing count (`_SupportLabels`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .spins import SizeError
from .unionfind import UnionFind

ZERO, ODD, EVENPOS = 0, 1, 2

COSET_DIM_CAP = 20        # 2^20 odd sets per source set: E - n + c <= 20
SUPPORT_EDGE_CAP = 20     # 2^20 support patterns (every support law)


class ConstraintError(ValueError):
    pass


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
    """Per edge: (1, sinh K, cosh K - 1) with K = beta |J|.

    ValueError if an edge's weights, or their total e^K, overflow a float.
    """
    out = []
    for e in range(couplings.graph.n_edges):
        K = couplings.K_abs(e)
        try:
            row = (1.0, math.sinh(K), math.cosh(K) - 1.0)
        except OverflowError:
            row = (1.0, math.inf, math.inf)
        if not math.isfinite(sum(row)):
            raise ValueError("edge %d: K = %r overflows the current weights "
                             "(sinh K, cosh K - 1)" % (e, K))
        out.append(row)
    return out


def _check_sources(A):
    """A as a frozenset; ConstraintError if it is odd, as no current has an
    odd number of sources."""
    A = frozenset(A)
    if len(A) % 2:
        raise ConstraintError("odd source set %r" % (set(A),))
    return A


def _coset_terms(graph, couplings, A):
    """The odd sets with odd vertices exactly A, and their signed weights.

    They are one coset of the cycle space of the edges with sinh K != 0
    (an odd edge of weight 0 is left out), enumerated by `gf2` in chunks
    (odd, t): odd holds one odd set per row as uint64 edge-bit words, and t
    the product 1.0 * w_0 * w_1 ... * w_{E-1}, w_e = sinh K if e is odd and
    cosh K if not, negated for an odd number of negative odd edges.  Rows
    come in the order of a depth-first walk over edges 0, 1, ..., E-1 that
    tries even before odd.  COSET_DIM_CAP bounds the coset dimension
    E - n + c and is checked before any chunk is built.
    """
    E = graph.n_edges
    K = [couplings.K_abs(e) for e in range(E)]
    even, odd = [math.cosh(k) for k in K], [math.sinh(k) for k in K]
    basis, x0 = gf2.solve({e: 1 << u | 1 << v for e, (u, v)
                           in enumerate(graph.edges) if odd[e]},
                          sum(1 << v for v in A))
    if len(basis) > COSET_DIM_CAP:
        raise SizeError("2^%d odd sets exceed the cap" % len(basis))
    if x0 is None:
        return
    n_words = -(-E // 64)
    negative = gf2.words(sum(1 << e for e in couplings.negative_edges()),
                         n_words)
    for rows, in gf2.coset_chunks(basis, [x0], n_words):
        w = np.ones(len(rows))
        for e in range(E):
            w *= np.where(rows[:, e >> 6] >> np.uint64(e & 63) & np.uint64(1),
                          odd[e], even[e])
        yield rows, np.where(gf2.popcount(rows & negative) & 1, -w, w)


def current_sum(graph, couplings, A):
    """Signed sum of the currents with sources A: each odd set with odd
    vertices A weighs prod_odd sinh K * prod_even cosh K, times (-1) for
    each negative edge in it.  With no sources this is the partition
    function 2^-n sum_sigma e^{-H(sigma)}."""
    A = _check_sources(A)
    return _fsum([t for _, t in _coset_terms(graph, couplings, A)])


def correlation_via_currents(graph, couplings, A):
    """<sigma_A> as a ratio of source-constrained current sums."""
    return (current_sum(graph, couplings, A)
            / current_sum(graph, couplings, ()))


# ---------------------------------------------------------------------------
# support views and the support-pattern kernel shared by the single-current,
# double-current, folded-current and FK engines.  A support pattern is a bit
# mask: bit i adds the edges bit_edges[i].  Each engine hands the kernel a
# table W of the weights of all its patterns, built by `_subgraph_sums`.  An
# event is a function of the _SupportLabels of the patterns of nonzero
# weight that gives one value per pattern (or one value for all of them).
# Its questions are subgraph sums too: connectivity with a = b = 1, parity
# (frustration, signs, pairing) with b = +-1 or 0 (see `doubled`).
# SupportView answers connectivity for one support, for the samplers.


class SupportView:
    """Connectivity queries against a fixed edge subset."""

    def __init__(self, graph, edge_ids):
        self.graph = graph
        self.edge_ids = frozenset(edge_ids)
        self._uf = UnionFind(graph.n)
        for e in self.edge_ids:
            self._uf.union(*graph.edges[e])

    def connected(self, u, v):
        return self._uf.connected(u, v)


class _SupportLabels:
    """The patterns of nonzero weight W[mask], one edge per bit; the queries
    connected, connects_sets, reached, has_edge and open_count give one
    value per kept pattern.

    Connectivity is a pairing count (Aizenman 1982; Grimmett and Janson
    2009): v's component meets a vertex set S exactly when some F within
    the pattern has boundary {v} off S, as only S can take F's other odd
    end.  Each (S, v) is one `_subgraph_sums` table with a = b = 1.
    """

    def __init__(self, graph, bit_edges, W):
        self.graph = graph
        self.bit_edges = bit_edges
        self.masks = np.flatnonzero(W)
        self.weights = W[self.masks]
        self._ends = [graph.edges[e] for e, in bit_edges]
        self._columns = {}

    def _reach(self, S, v):
        """reach[r]: v's component holds a vertex of S in kept pattern r."""
        S = frozenset(S)
        if v in S or not S:
            return np.full(len(self.masks), v in S)
        if (S, v) not in self._columns:
            ones = [1.0] * len(self._ends)
            count = _subgraph_sums(*_syndromes(
                self._ends, set(self.graph.vertices) - S, {v}), ones, ones)
            column = count[self.masks] != 0
            column.flags.writeable = False      # it is kept and shared
            self._columns[S, v] = column
        return self._columns[S, v]

    def connected(self, u, v):
        return self._reach({u}, v)

    def reached(self, S):
        """reached[r, v]: v's component holds a vertex of S in pattern r."""
        return np.array([self._reach(S, v) for v in self.graph.vertices]).T

    def connects_sets(self, U, V):
        """One query per vertex of the smaller set."""
        few, many = sorted((set(U), set(V)), key=len)
        out = np.zeros(len(self.masks), dtype=bool)
        for v in few:
            out |= self._reach(many, v)
        return out

    def has_edge(self, e):
        m = sum(1 << i for i, es in enumerate(self.bit_edges) if e in es)
        return (self.masks & m) != 0

    def open_count(self):
        return sum(self.has_edge(e) * 1 for e in range(self.graph.n_edges))

    def sums(self, events):
        """name -> math.fsum of weight * value over the kept patterns of
        nonzero value, plus '_total' (the raw weight sum); events: name ->
        fn(labels), giving one value per kept pattern or one for all."""
        out = {}
        for name, fn in events.items():
            val = np.broadcast_to(np.asarray(fn(self), dtype=float),
                                  self.weights.shape)
            hit = val != 0
            out[name] = math.fsum(self.weights[hit] * val[hit])
        out["_total"] = math.fsum(self.weights)
        return out

    def expectations(self, events):
        """The sums of `sums` divided by '_total', which is kept."""
        out = self.sums(events)
        return {name: s if name == "_total" else s / out["_total"]
                for name, s in out.items()}


def _fsum(arrays):
    try:
        return math.fsum(np.concatenate(arrays)) if arrays else 0.0
    except ValueError:      # inf - inf: no sum; a finite overflow raises
        return math.nan


def _support_sums(graph, bit_edges, W, events):
    """`_SupportLabels.sums` over the patterns of W (bit i adds the edges
    bit_edges[i], and W[mask] is the weight of pattern mask)."""
    return _SupportLabels(graph, bit_edges, W).sums(events)


def _syndromes(ends, constrained, target):
    """The boundaries, on the constrained vertices, of the pattern edges
    with end pairs `ends` and of the vertex set `target`, as bit masks over
    the constrained vertices that some edge touches.  The target mask is -1,
    which no boundary equals, when it holds a vertex that no edge touches."""
    pos = {}
    bounds = []
    for uv in ends:
        m = 0
        for v in uv:
            if v in constrained:
                m ^= 1 << pos.setdefault(v, len(pos))
        bounds.append(m)
    if not target <= pos.keys():
        return bounds, -1
    return bounds, sum(1 << pos[v] for v in target)


def _subgraph_sums(bounds, target, a, b):
    """h[S] = sum over F within S with boundary `target` of
    prod_{e in F} b_e prod_{e in S - F} a_e, for every pattern S: bit i of S
    is the edge with boundary bounds[i].  The boundaries of all patterns
    are built by doubling over the bits (an edge sets at most two bits, so
    int64 holds those of 31 edges); then one subset-sum butterfly per bit
    turns the indicator of the boundary into h.  Every support law builds
    its tables here, so the one pattern cap is checked here, before any
    table exists."""
    if len(bounds) > SUPPORT_EDGE_CAP:
        raise SizeError("2^%d support patterns exceed the cap" % len(bounds))
    synd = np.zeros(1, dtype=np.int64)
    for bound in bounds:
        synd = np.concatenate((synd, synd ^ bound))
    h = (synd == target).astype(float)
    for i, (ai, bi) in enumerate(zip(a, b)):
        pair = h.reshape(-1, 2, 1 << i)
        pair[:, 1] = bi * pair[:, 1] + ai * pair[:, 0]
    return h


def single_support_expectations(graph, couplings, events):
    """Normalized expectations of the named events (as in
    `_SupportLabels.expectations`) over the support S of one sourceless
    current, K = beta |J|, plus '_total' (the sourceless current sum, which is
    2^-n sum_sigma e^{-H(sigma)} at |J|).  The odd edges of S form an even
    subgraph F, and the even edges of S are nonzero:

        W(S) = sum_{F within S, dF = 0} prod_F sinh K prod_{S-F} (cosh K - 1).
    """
    table = edge_weight_table(couplings)
    W = _subgraph_sums(*_syndromes(graph.edges, set(graph.vertices), set()),
                       [even for _, _, even in table],
                       [odd for _, odd, _ in table])
    return _SupportLabels(graph, [(e,) for e in range(graph.n_edges)],
                          W).expectations(events)

