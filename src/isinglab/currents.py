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

The transforms run one in-place pass per bit (`_bit_passes`), with the
arithmetic of a plain per-bit loop, so the tables are the loop's bit for
bit; a nonzero test is an OR pass on a bool table (`_pairs`); a table's
sum is `_exact_sum`, the float math.fsum gives, from exact binned partials.
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
            column = _pairs(*_syndromes(
                self._ends, set(self.graph.vertices) - S, {v}))[self.masks]
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
        """name -> the exact sum (`_exact_sum`, which is math.fsum) of
        weight * value over the kept patterns of nonzero value, plus
        '_total' (the raw weight sum); events: name -> fn(labels), giving
        one value per kept pattern or one for all."""
        out = {}
        for name, fn in events.items():
            val = np.broadcast_to(np.asarray(fn(self), dtype=float),
                                  self.weights.shape)
            hit = val != 0
            out[name] = _exact_sum(self.weights[hit] * val[hit])
        out["_total"] = _exact_sum(self.weights)
        return out

    def expectations(self, events):
        """The sums of `sums` divided by '_total', which is kept."""
        out = self.sums(events)
        return {name: s if name == "_total" else s / out["_total"]
                for name, s in out.items()}


_HIGH = -(1 << 27)          # as int64 bits: clears the low 27 significand bits
_BINNED_MIN = 1 << 10       # fewer terms: math.fsum over a list is faster


def _exact_sum(x):
    """math.fsum of the float64 array x, bit for bit.

    Each term splits exactly into hi, its 26 high significand bits, and
    lo = x - hi.  Binned by stored exponent e // 4 (e0 = 4 * bin; a
    subnormal has the spacing of e = 1), hi terms are multiples of
    2^(e0 - 1048) below 2^(e0 - 1019) and lo terms multiples of
    2^(e0 - 1075) below 2^(e0 - 1045), so np.bincount sums up to 2^20 of
    them exactly (49 and 50 bits), and one math.fsum of the partials
    rounds their exact total once.  math.fsum itself takes small x (it is
    faster there), more than 2^20 terms, and a bin past 505, where a
    partial or fsum's own running sum could overflow (inf and nan are
    there too).
    """
    x = np.ravel(x)
    if _BINNED_MIN <= len(x) <= 1 << 20:
        u = x.view(np.int64)
        bins = u >> 54
        bins &= 0x1ff
        hi = (u & _HIGH).view(np.float64)
        his = np.bincount(bins, weights=hi)
        if len(his) <= 506:
            los = np.bincount(bins, weights=np.subtract(x, hi, out=hi))
            return math.fsum(np.concatenate((his, los)).tolist())
    return math.fsum(x.tolist())


def _fsum(arrays):
    try:
        return _exact_sum(np.concatenate(arrays)) if arrays else 0.0
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


def _boundary_is(bounds, target):
    """synd[S] == target for every pattern S, where synd[S] is the boundary
    of the edges of S (bit i of S is the edge with boundary bounds[i]),
    built in place by doubling over the bits: an edge sets at most two
    bits, so int64 holds those of 31 edges.  Every support table starts
    here, so the one pattern cap is checked here, before any table
    exists."""
    if len(bounds) > SUPPORT_EDGE_CAP:
        raise SizeError("2^%d support patterns exceed the cap" % len(bounds))
    synd = np.empty(1 << len(bounds), dtype=np.int64)
    synd[0] = 0
    for i, bound in enumerate(bounds):
        np.bitwise_xor(synd[:1 << i], bound, out=synd[1 << i:2 << i])
    return synd == target


def _bit_passes(h, op):
    """Run op(h0, h1, i) on the table h for i = 0, 1, ..., in order: h0 and
    h1 are matching views of the entries whose index has bit i clear and
    set, for op to update in place.  The low bits (8, or half of them) run
    on one transposed copy, so that their pairs lie in long contiguous runs
    too.  Returns h."""
    bits = len(h).bit_length() - 1
    low = min(8, bits // 2)
    t = np.ascontiguousarray(h.reshape(-1, 1 << low).T)
    for i in range(low):
        pair = t.reshape(-1, 2, t.shape[1] << i)
        op(pair[:, 0], pair[:, 1], i)
    h.reshape(-1, 1 << low)[...] = t.T
    for i in range(low, bits):
        pair = h.reshape(-1, 2, 1 << i)
        op(pair[:, 0], pair[:, 1], i)
    return h


def _subgraph_sums(bounds, target, a, b):
    """h[S] = sum over F within S with boundary `target` of
    prod_{e in F} b_e prod_{e in S - F} a_e, for every pattern S: bit i of S
    is the edge with boundary bounds[i].  One subset-sum butterfly per bit,
    h1 = b_i h1 + a_i h0 in place through one scratch half-table, turns the
    indicator of the boundary into h; a factor 1.0, exact, is not
    multiplied in."""
    h = _boundary_is(bounds, target).astype(float)
    scratch = np.empty(len(h) // 2)

    def butterfly(h0, h1, i):
        if b[i] != 1.0:
            np.multiply(h1, b[i], out=h1)
        if a[i] != 1.0:
            h0 = np.multiply(h0, a[i], out=scratch.reshape(h0.shape))
        np.add(h1, h0, out=h1)

    return _bit_passes(h, butterfly)


def _pairs(bounds, target, carried=None):
    """_subgraph_sums(bounds, target, 1s, b) != 0 with b_i = 1 at the bits
    where carried[i] (every bit for None) and 0 elsewhere: does some F
    within the carried edges of S have boundary `target`.  The sums are
    nonnegative counts, so this is the OR butterfly on a bool table."""
    h = _boundary_is(bounds, target)

    def either(h0, h1, i):
        if carried is None or carried[i]:
            np.logical_or(h1, h0, out=h1)
        else:
            np.copyto(h1, h0)

    return _bit_passes(h, either)


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

