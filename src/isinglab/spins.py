"""Brute-force Gibbs oracle: exact 2^|V| spin sums.

Partition values carry the 1/2^{#unclamped} normalization, i.e.

    Z = 2^{-|free|} sum_{sigma on free} exp( sum_b K_b s s + sum_x H_x s )

with K_b = beta*J_b, H_x = beta*(h_x + g_x), and clamped spins held fixed.

Configurations are enumerated in chunks of _CHUNK rows.  Row i gives the
j-th free vertex the spin +1 when bit j of i is set, so for a set A the
product prod_{x in A} sigma_x is the exact sign (-1)^popcount(~i & mask_A)
times the clamped spins of A.  For row lo + r of a chunk starting at lo,
~(lo + r) & mask_A = (~lo & mask_A) ^ (r & mask_A), so the sign is one
lookup in the parity table of the _CHUNK row offsets.  A chunk is kept as
its float64 weights and their math.fsum; <sigma_A> is one fsum of +-w per
chunk, and fsum is correctly rounded, so results are independent of
chunking.

Weight tables: an instance of at most _CHUNK rows (16 free spins) is
enumerated once.  Its table stays in a least-recently-used store of _SLOTS
entries (at most 1 MB), keyed by content: (n, edges, J, beta, per-vertex
field totals h+g, clamped spins).  Mutating a Couplings or FieldSpec in
place therefore misses the store rather than reading a stale table.  The
size cap DEFAULT_CAP is checked before the lookup.  Larger instances stream
chunk by chunk and are never retained.

Overflow and underflow: a chunk whose largest exponent E_max exceeds
_MAX_EXPONENT is weighed as exp(E - c) with c = E_max - _MAX_EXPONENT, and
one whose E_max is below _MIN_EXPONENT (every weight subnormal or zero) with
c = E_max.  Chunk sums are combined with the factors exp(c_k - max c).  As
2^26 e^690 is below the float64 maximum and the leading chunk holds a weight
of at least e^-709, every sum stays finite and positive at any beta, and a
chunk that needs no shift is weighed exactly as without one.  An
expectation is a ratio, so the common factor cancels; a partition function
outside the float64 range is returned as inf or 0; partition_ratio divides
two of them without forming either.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

DEFAULT_CAP = 26
_CHUNK_BITS = 16
_CHUNK = 1 << _CHUNK_BITS
_SLOTS = 2
_MAX_EXPONENT = 690.0
_MIN_EXPONENT = -709.0
_ROWS = np.arange(_CHUNK, dtype=np.intp)
_ROWS.flags.writeable = False
# _PARITY[r] = popcount(r) & 1 for every row offset r < _CHUNK
_PARITY = np.zeros(1, dtype=np.uint8)
for _ in range(_CHUNK_BITS):
    _PARITY = np.concatenate([_PARITY, _PARITY ^ 1])
_PARITY.flags.writeable = False

# content key -> list of (lo, weights, fsum of weights, exponent shift)
_tables = OrderedDict()


class SizeError(ValueError):
    pass


def _clamped_from(boundary):
    if boundary is None:
        return {}
    return boundary.clamped()


def _spin_chunks(n_free):
    """Yield (lo, spins) with spins in {-1,+1}, shape (chunk, n_free)."""
    total = 1 << n_free
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.uint64)
        bits = ((idx[:, None] >> np.arange(n_free, dtype=np.uint64)) & 1)
        yield lo, bits.astype(np.int8) * 2 - 1


def _weigh(graph, couplings, fields, clamp, free):
    """Yield (lo, w, fsum(w), c) per chunk: w = exp(energy - c)."""
    beta = couplings.beta
    H = np.zeros(graph.n)
    if fields is not None:
        for v in graph.vertices:
            H[v] = beta * fields.total(v)
    K = np.array([beta * j for j in couplings.J])
    e_u = np.array([u for (u, _) in graph.edges], dtype=np.intp)
    e_v = np.array([v for (_, v) in graph.edges], dtype=np.intp)
    free_idx = np.array(free, dtype=np.intp)

    base = np.zeros(graph.n, dtype=np.float64)
    for v, s in clamp.items():
        base[v] = s

    for lo, spins in _spin_chunks(len(free)):
        full = np.tile(base, (spins.shape[0], 1))
        if len(free):
            full[:, free_idx] = spins
        energy = full @ H
        if graph.n_edges:
            energy = energy + (full[:, e_u] * full[:, e_v]) @ K
        top = float(energy.max())
        shift = (top - _MAX_EXPONENT if top > _MAX_EXPONENT
                 else top if top < _MIN_EXPONENT else 0.0)
        if shift:
            energy = energy - shift
        w = np.exp(energy)
        w.flags.writeable = False
        yield lo, w, math.fsum(w.tolist()), shift


def _chunks(graph, couplings, fields, boundary):
    """(clamp, free, chunks): the stored table of a small instance, or a
    generator over the chunks of a large one."""
    clamp = _clamped_from(boundary)
    free = [v for v in graph.vertices if v not in clamp]
    if len(free) > DEFAULT_CAP:
        raise SizeError("2^%d spin configurations exceed the cap 2^%d"
                        % (len(free), DEFAULT_CAP))
    if (1 << len(free)) > _CHUNK:
        return clamp, free, _weigh(graph, couplings, fields, clamp, free)
    key = (graph.n, tuple(graph.edges), tuple(couplings.J), couplings.beta,
           None if fields is None
           else tuple(fields.total(v) for v in graph.vertices),
           tuple(sorted(clamp.items())))
    table = _tables.get(key)
    if table is None:
        table = list(_weigh(graph, couplings, fields, clamp, free))
        _tables[key] = table
        if len(_tables) > _SLOTS:
            _tables.popitem(last=False)
    else:
        _tables.move_to_end(key)
    return clamp, free, table


def _rescaled(sums, shifts):
    """Chunk sums brought to the scale of the largest shift."""
    top = max(shifts)
    return [s * math.exp(c - top) for s, c in zip(sums, shifts)]


def _shifted_partition(graph, couplings, fields, boundary):
    """(z, c) with Z = z * exp(c) and z finite and positive."""
    _, free, chunks = _chunks(graph, couplings, fields, boundary)
    parts, shifts = [], []
    for _, _, total, shift in chunks:
        parts.append(total)
        shifts.append(shift)
    return math.fsum(_rescaled(parts, shifts)) / (1 << len(free)), max(shifts)


def partition_function(graph, couplings, fields=None, boundary=None):
    z, shift = _shifted_partition(graph, couplings, fields, boundary)
    try:
        return z * math.exp(shift)
    except OverflowError:
        return math.inf


def partition_ratio(graph, couplings_a, couplings_b, boundary_a=None,
                    boundary_b=None):
    """Z(couplings_a, boundary_a) / Z(couplings_b, boundary_b) at zero field.

    The shifted sums are divided first and exp(c_a - c_b) is multiplied in
    after, so no Z past the float range is ever formed; when neither sum
    needed a shift the factor is exactly 1 and the result is the plain
    quotient of the two partition functions, bit for bit."""
    za, ca = _shifted_partition(graph, couplings_a, None, boundary_a)
    zb, cb = _shifted_partition(graph, couplings_b, None, boundary_b)
    try:
        return za / zb * math.exp(ca - cb)
    except OverflowError:
        return math.inf


def _reduce_multiset(A):
    """sigma^2 = 1: keep vertices appearing an odd number of times."""
    out = {}
    for v in A:
        out[v] = out.get(v, 0) ^ 1
    return [v for v, p in out.items() if p]


def expectation(graph, couplings, A, fields=None, boundary=None):
    """< prod_{x in A} sigma_x > ; A is a vertex multiset."""
    A = list(A)
    for v in A:
        if not (isinstance(v, (int, np.integer)) and 0 <= v < graph.n):
            raise ValueError("site %r is not a vertex of %r" % (v, graph))
    clamp, free, chunks = _chunks(graph, couplings, fields, boundary)
    bit = {v: j for j, v in enumerate(free)}
    mask, negative = 0, False
    for v in _reduce_multiset(A):
        if v in clamp:
            negative ^= clamp[v] < 0
        else:
            mask |= 1 << bit[v]
    low = mask & (_CHUNK - 1)
    num, den, shifts = [], [], []
    for lo, w, total, shift in chunks:
        odd = _PARITY[_ROWS[:len(w)] & low]
        if negative ^ (int.bit_count(~lo & mask) & 1):
            odd = odd ^ 1
        num.append(math.fsum(np.where(odd, -w, w).tolist()))
        den.append(total)
        shifts.append(shift)
    return math.fsum(_rescaled(num, shifts)) / math.fsum(_rescaled(den, shifts))


def ursell4(graph, couplings, x1, x2, x3, x4, boundary=None):
    """U4 = <1234> - <12><34> - <13><24> - <14><23>  (zero field)."""
    if len({x1, x2, x3, x4}) != 4:
        raise ValueError("ursell4 needs four distinct sites")
    s4 = expectation(graph, couplings, [x1, x2, x3, x4], boundary=boundary)
    p = lambda a, b: expectation(graph, couplings, [a, b], boundary=boundary)
    return s4 - (p(x1, x2) * p(x3, x4) + p(x1, x3) * p(x2, x4)
                 + p(x1, x4) * p(x2, x3))


def truncated_pair(graph, couplings, x, y, fields=None, boundary=None):
    """<sigma_x sigma_y> - <sigma_x><sigma_y>."""
    return (expectation(graph, couplings, [x, y], fields, boundary)
            - expectation(graph, couplings, [x], fields, boundary)
            * expectation(graph, couplings, [y], fields, boundary))
