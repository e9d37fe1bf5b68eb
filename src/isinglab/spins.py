"""Brute-force Gibbs oracle: exact 2^|V| spin sums.

Partition values carry the 1/2^{#unclamped} normalization, i.e.

    Z = 2^{-|free|} sum_{sigma on free} exp( sum_b K_b s s + sum_x H_x s )

with K_b = beta*J_b, H_x = beta*(h_x + g_x), and clamped spins held fixed.

Configurations are enumerated in chunks of _CHUNK rows.  Row i gives the
j-th free vertex the spin +1 when bit j of i is set, so for a set A the
product prod_{x in A} sigma_x is the exact sign (-1)^popcount(~i & mask_A)
times the clamped spins of A.  For row lo + r of a chunk starting at lo,
~(lo + r) & mask_A = (~lo & mask_A) ^ (r & mask_A), so the sign is one
lookup in the sign table of the _CHUNK row offsets, flipped by the parity
of the chunk's high rows popcount(~lo & mask_A).  <sigma_A> is
fsum(+-w) / fsum(w), each an fsum over chunks of per-chunk sums.

Exact signed sums: one kernel, _signed_sums, gives the per-chunk sums of
every moment, one math.fsum per moment and chunk.  When a chunk is weighed,
its rows are sorted into bins by the stored exponent E of their weight,
E // 8, so a bin whose smallest binary exponent is e0 holds weights below
2^(e0+8) (zeros and subnormals, E = 0, count as e0 = -1022).  Each w is
split into hi, w with the low 27 of its 52 stored significand bits cleared,
and lo = w - hi; both are exact.  In a bin, hi is a multiple of 2^(e0-25)
below 2^(e0+8), so a sum of at most 2^16 terms +-hi is a multiple of
2^(e0-25) below 2^(e0+24): 49 bits.  lo is a multiple of 2^(e0-52) below
2^(e0-18), so a sum of as many +-lo needs 50 bits.  Every partial sum that
np.add.reduceat forms in a bin is therefore exact, in any order, and the
one math.fsum over the hi and lo partials of all bins rounds their exact
total once: the float math.fsum gives over the signed weights row by row,
without a Python float per row.  The chunk's fsum(w) is the same bin sum
with every sign +, taken when it is weighed.  moments reduces each set to
its key (free-spin mask, sign of its clamped spins) and evaluates each
distinct key once per chunk, keys in groups whose sign arrays hold at most
_CHUNK rows in all.

Weight tables: an instance of at most _CHUNK rows (16 free spins) is
enumerated once.  Its table (per row its uint16 offset and the hi and lo
parts of its weight, 18 bytes, so 1.2 MB at 2^16 rows) stays in a
least-recently-used store of _SLOTS entries (at most 2.4 MB),
keyed by content: (n, edges, J, beta, per-vertex field totals h+g, clamped
spins).  Mutating a Couplings or FieldSpec in place therefore misses the
store rather than reading a stale table.  The size cap DEFAULT_CAP is
checked before the lookup.  Larger instances stream chunk by chunk and are
never retained.

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
# _SIGN[r] = (-1)^popcount(r) for every row offset r < _CHUNK
_SIGN = np.ones(1, dtype=np.int8)
for _ in range(_CHUNK_BITS):
    _SIGN = np.concatenate([_SIGN, -_SIGN])
_SIGN.flags.writeable = False
# _SPINS[r, j] = +1 if bit j of the row offset r is set, else -1 (the two
# little-endian bytes of r hold its _CHUNK_BITS = 16 bits)
_SPINS = np.unpackbits(np.arange(_CHUNK, dtype="<u2").view(np.uint8).reshape(
    _CHUNK, 2), axis=1, bitorder="little").view(np.int8)
_SPINS *= 2
_SPINS -= 1
_SPINS.flags.writeable = False
_ROW = np.min_scalar_type(_CHUNK - 1)
_HIGH = ~np.uint64((1 << 27) - 1)     # clears the low 27 significand bits
_BIN = np.uint64(55)                  # stored exponent // 8

# content key -> list of chunks (lo, rows, parts, starts, fsum of the
# weights, exponent shift); see _split
_tables = OrderedDict()


class SizeError(ValueError):
    pass


def _clamped_from(boundary):
    if boundary is None:
        return {}
    return boundary.clamped()


def _split(w):
    """(rows, parts, starts, total): the row offsets sorted by the bin of
    their weight (its stored exponent // 8), the hi (parts[0]) and lo
    (parts[1]) parts of the sorted weights, the first position of each bin,
    and fsum(w): the exact sum of the bins, every sign +."""
    bins = (w.view(np.uint64) >> _BIN).astype(np.uint16)
    order = bins.argsort(kind="stable")
    bins = bins[order]
    first = np.empty(len(w), dtype=bool)
    first[0] = True
    np.not_equal(bins[1:], bins[:-1], out=first[1:])
    starts = first.nonzero()[0]
    w = w[order]
    hi = (w.view(np.uint64) & _HIGH).view(np.float64)
    parts = np.array((hi, w - hi))
    total = math.fsum(np.add.reduceat(parts, starts, axis=1).ravel().tolist())
    return order.astype(_ROW), parts, starts, total


def _signed_sums(chunk, keys):
    """[fsum of the chunk's weights w_r * (-1)^popcount(~(lo + r) & mask),
    negated when `negative`] for each key (mask, negative), exactly."""
    lo, rows, parts, starts = chunk[:4]
    out = []
    step = _CHUNK // len(rows)
    for k in range(0, len(keys), step):
        group = keys[k:k + step]
        low = np.array([mask & (_CHUNK - 1) for mask, _ in group],
                       dtype=rows.dtype)
        sign = _SIGN.take(rows & low[:, None])
        his, los = np.add.reduceat(parts[:, None, :] * sign, starts,
                                   axis=2).tolist()
        for (mask, negative), a, b in zip(group, his, los):
            s = math.fsum(a + b)
            # 0.0 - s: a zero sum stays +0.0, as fsum of the negated terms
            out.append(0.0 - s if negative ^ (int.bit_count(~lo & mask) & 1)
                       else s)
    return out


def _weigh(graph, couplings, fields, clamp, free):
    """Yield the chunks (lo, *_split(w), c) of w = exp(energy - c).

    The energy is the float64 products full @ H and (s_u s_v) @ K of the
    +-1 spin configurations; without fields there is no field term."""
    beta = couplings.beta
    if fields is not None:
        H = np.array([beta * fields.total(v) for v in graph.vertices])
    K = np.array([beta * j for j in couplings.J])
    ends = np.array(graph.edges, dtype=np.intp).reshape(-1, 2)
    tabled = np.array(free[:_CHUNK_BITS], dtype=np.intp)
    base = np.zeros(graph.n, dtype=np.int8)
    for v, s in clamp.items():
        base[v] = s

    for lo in range(0, 1 << len(free), _CHUNK):
        # free spin j is bit j of the row lo + r: of r (_SPINS) below
        # _CHUNK_BITS, of lo above
        for j in range(_CHUNK_BITS, len(free)):
            base[free[j]] = 1 if lo >> j & 1 else -1
        full = np.empty((min(1 << len(free), _CHUNK), graph.n), dtype=np.int8)
        full[:] = base
        full[:, tabled] = _SPINS[:len(full), :len(tabled)]
        energy = (np.zeros(len(full)) if fields is None
                  else full.astype(np.float64) @ H)
        if graph.n_edges:
            bonds = full[:, ends[:, 0]] * full[:, ends[:, 1]]
            energy = energy + bonds.astype(np.float64) @ K
        top = float(energy.max())
        shift = (top - _MAX_EXPONENT if top > _MAX_EXPONENT
                 else top if top < _MIN_EXPONENT else 0.0)
        if shift:
            energy = energy - shift
        rows, parts, starts, total = _split(np.exp(energy))
        for a in (rows, parts, starts):
            a.flags.writeable = False
        yield lo, rows, parts, starts, total, shift


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


def _scales(shifts):
    """The factors exp(c - max c) that bring chunk sums to one scale."""
    top = max(shifts)
    return [math.exp(c - top) for c in shifts]


def _shifted_partition(graph, couplings, fields, boundary):
    """(z, c) with Z = z * exp(c) and z finite and positive."""
    _, free, chunks = _chunks(graph, couplings, fields, boundary)
    sums, shifts = [], []
    for chunk in chunks:
        sums.append(chunk[-2])
        shifts.append(chunk[-1])
    z = math.fsum([t * f for t, f in zip(sums, _scales(shifts))])
    return z / (1 << len(free)), max(shifts)


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


def moments(graph, couplings, sets, fields=None, boundary=None):
    """[< prod_{x in A} sigma_x > for A in sets]; each A is a vertex
    multiset.  Every site is checked before the instance is weighed or
    fetched, once; each distinct key (mask, sign of the clamped spins) is
    then one exact signed sum per chunk, so every moment is the float
    expectation gives for its set alone."""
    sets = [list(A) for A in sets]
    for A in sets:
        for v in A:
            if not (isinstance(v, (int, np.integer)) and 0 <= v < graph.n):
                raise ValueError("site %r is not a vertex of %r" % (v, graph))
    if not sets:
        return []
    clamp, free, chunks = _chunks(graph, couplings, fields, boundary)
    bit = {v: 1 << j for j, v in enumerate(free)}
    keys = []
    for A in sets:
        mask, negative = 0, False
        for v in _reduce_multiset(A):
            if v in clamp:
                negative ^= clamp[v] < 0
            else:
                mask |= bit[v]
        keys.append((mask, negative))
    distinct = list(dict.fromkeys(keys))
    sums, den, shifts = [], [], []
    for chunk in chunks:
        sums.append(_signed_sums(chunk, distinct))
        den.append(chunk[-2])
        shifts.append(chunk[-1])
    scale = _scales(shifts)
    z = math.fsum([t * f for t, f in zip(den, scale)])
    value = {key: math.fsum([t * f for t, f in zip(num, scale)]) / z
             for key, num in zip(distinct, zip(*sums))}
    return [value[key] for key in keys]


def expectation(graph, couplings, A, fields=None, boundary=None):
    """< prod_{x in A} sigma_x > ; A is a vertex multiset."""
    return moments(graph, couplings, [A], fields, boundary)[0]


def ursell4_sets(x1, x2, x3, x4):
    """The sets whose moments ursell4_value combines, in its order."""
    if len({x1, x2, x3, x4}) != 4:
        raise ValueError("ursell4 needs four distinct sites")
    return [[x1, x2, x3, x4], [x1, x2], [x3, x4], [x1, x3], [x2, x4],
            [x1, x4], [x2, x3]]


def ursell4_value(s1234, s12, s34, s13, s24, s14, s23):
    return s1234 - (s12 * s34 + s13 * s24 + s14 * s23)


def ursell4(graph, couplings, x1, x2, x3, x4, boundary=None):
    """U4 = <1234> - <12><34> - <13><24> - <14><23>  (zero field)."""
    return ursell4_value(*moments(graph, couplings,
                                  ursell4_sets(x1, x2, x3, x4),
                                  boundary=boundary))


def truncated_pair(graph, couplings, x, y, fields=None, boundary=None):
    """<sigma_x sigma_y> - <sigma_x><sigma_y>."""
    xy, sx, sy = moments(graph, couplings, [[x, y], [x], [y]], fields,
                         boundary)
    return xy - sx * sy
