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
and the FK weight of `fk` is one of them times the edge factors.
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
FLUX_CUTOFF = 40          # largest per-edge flux in truncated_flux_sum


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


def truncated_flux_sum(graph, couplings, A):
    """Independent oracle for the unsigned odd-set sums and the trichotomy
    pushforward: sum w(n) over integer currents with per-edge flux <=
    FLUX_CUTOFF and exact sources A, via truncated series of cosh/sinh split
    by flux parity.  It weighs by K = beta |J| with no sign."""
    A = _check_sources(A)
    even_s, odd_s = [], []
    for e in range(graph.n_edges):
        K = couplings.K_abs(e)
        ev = od = 0.0
        term = 1.0
        for n in range(FLUX_CUTOFF + 1):
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
# single-current, double-current, folded-current and FK engines.  A support
# pattern is a bit mask: bit i adds the edges bit_edges[i].  Each engine
# hands the kernel a table W of the weights of all its patterns, built from
# positive subgraph sums, `_subgraph_sums`: one subset-sum transform over the
# patterns with per-edge weights (a, b).  The kernel labels the components
# of a whole chunk of patterns in numpy and sums the weighted events.  An
# event is a function of one chunk's _SupportLabels that gives one value per
# pattern (or one value for all of them), built from its connectivity
# queries.  Parity questions (frustration, signs, pairing) need no labels:
# each is a `_subgraph_sums` table with b = +-1 or 0 (see `doubled`).
# SupportView answers connectivity for one support, for the samplers.

_CHUNK_BITS = 16          # at most 2^16 patterns per chunk
_CHUNK_CELLS = 1 << 22    # and at most this many (pattern, vertex) labels


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


def _merge(lab, u, v):
    """Add edge (u, v) to every row of `lab` in place: the component with
    the larger label takes the smaller one."""
    a, b = lab[:, u], lab[:, v]
    lo = np.minimum(a, b)[:, None]
    np.copyto(lab, lo, where=lab == np.maximum(a, b)[:, None])


def _pattern_labels(graph, bit_edges, base, nbits):
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


class _SupportLabels:
    """The kept patterns base + rows of one chunk, labelled; events read it.

    The connectivity queries connected, connects_sets, reached,
    cluster_count, has_edge and open_count return one value per pattern
    (row).
    """

    def __init__(self, graph, bit_edges, base, nbits, rows):
        self.graph = graph
        self.bit_edges = bit_edges
        self.masks = base + rows
        self.lab = _pattern_labels(graph, bit_edges, base, nbits)[rows]

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


def _fsum(arrays):
    return math.fsum(np.concatenate(arrays)) if arrays else 0.0


def _support_sums(graph, bit_edges, W, events):
    """Weighted sums of the named events over all support patterns, plus
    '_total' (the raw weight sum); with no pattern of nonzero weight every
    sum is 0.0.

    Pattern `mask` is the support made of bit_edges[i] for the bits i of
    mask, and W[mask] its weight; patterns of weight 0 are dropped before
    they are labelled.  events: dict name -> fn(_SupportLabels), giving the
    value of every kept pattern of a chunk (an array with one entry per
    row, or one value for all rows).  Every event sums the terms weight *
    value of nonzero value with math.fsum, so the result does not depend on
    the order the patterns are visited in.
    """
    nbits = len(bit_edges)
    chunk = min(nbits, _CHUNK_BITS,
                max(0, (_CHUNK_CELLS // max(graph.n, 1)).bit_length() - 1))
    acc = {name: [] for name in events}
    tot = []
    for base in range(0, 1 << nbits, 1 << chunk):
        wgt = W[base:base + (1 << chunk)]
        rows = np.flatnonzero(wgt)
        if not len(rows):
            continue
        wgt = wgt[rows]
        labels = _SupportLabels(graph, bit_edges, base, chunk, rows)
        tot.append(wgt)
        for name, fn in events.items():
            val = np.broadcast_to(np.asarray(fn(labels), dtype=float),
                                  wgt.shape)
            hit = val != 0
            acc[name].append(wgt[hit] * val[hit])
    out = {name: _fsum(terms) for name, terms in acc.items()}
    out["_total"] = _fsum(tot)
    return out


def _support_expectations(graph, bit_edges, W, events):
    """The sums of `_support_sums` divided by '_total', which is kept."""
    out = _support_sums(graph, bit_edges, W, events)
    total = out.pop("_total")
    out = {name: s / total for name, s in out.items()}
    out["_total"] = total
    return out


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
    `_support_expectations`) over the support S of one sourceless current,
    K = beta |J|, plus '_total' (the sourceless current sum, which is
    2^-n sum_sigma e^{-H(sigma)} at |J|).  The odd edges of S form an even
    subgraph F, and the even edges of S are nonzero:

        W(S) = sum_{F within S, dF = 0} prod_F sinh K prod_{S-F} (cosh K - 1).
    """
    table = edge_weight_table(couplings)
    W = _subgraph_sums(*_syndromes(graph.edges, set(graph.vertices), set()),
                       [even for _, _, even in table],
                       [odd for _, odd, _ in table])
    return _support_expectations(graph, [(e,) for e in range(graph.n_edges)],
                                 W, events)

