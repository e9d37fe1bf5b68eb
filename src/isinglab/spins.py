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
with every sign +, taken when it is weighed.  family reduces each set to
its key (free-spin mask, sign of its clamped spins) and evaluates
each distinct key once per chunk, keys in groups whose sign arrays hold at
most _CHUNK rows in all.

One reduction, family, gives each ask of a call (one graph and boundary)
its instance's shifted Z and its moments; every public function reads it,
so ratio_moments gives Z_a/Z_b and both instances' moments from one call.
Each call weighs exactly the instances it is asked, and nothing outlives
it: the content key of an instance, (J, beta, per-vertex field totals
h+g), only merges equal instances within one call, a field whose totals
are all zero keyed as no field, since x + (+-0.0) leaves every energy as
it is.  Up to _CHUNK rows of small instances are
weighed as one stack: the configurations and bond products are built once,
each instance's energy is its own two gemvs, full @ H and (s_u s_v) @ K,
exactly as for the instance alone, with its own exponent shift, and the
stack is binned and split once, the instance index (at most _MEMBERS = 256
of them) in the 8 bits above the bin in the sort key.  So no bin spans two
instances, and each bin partial is the exact sum of one instance's
weights, as when weighed alone.  A key asked of a run of a stack's
instances is summed over that run with one sign array; the partials are
then split back by instance, and the fsum of an instance's partials, exact
in any grouping, is the float it gets alone, bit for bit.  A stack holds
at most _CHUNK rows, per row its uint16 offset and the hi and lo parts of
its weight, 18 bytes, so 1.2 MB.  An instance of more than _CHUNK rows (16
free spins) streams as a stack of one per chunk.  The size cap
DEFAULT_CAP is checked before any instance is weighed.

Overflow and underflow: a chunk whose largest exponent E_max exceeds
_MAX_EXPONENT is weighed as exp(E - c) with c = E_max - _MAX_EXPONENT, and
one whose E_max is below _MIN_EXPONENT (every weight subnormal or zero) with
c = E_max.  Chunk sums are combined with the factors exp(c_k - max c).  As
2^26 e^690 is below the float64 maximum and the leading chunk holds a weight
of at least e^-709, every sum stays finite and positive at any beta, and a
chunk that needs no shift is weighed exactly as without one.  An
expectation is a ratio, so the common factor cancels; a partition function
outside the float64 range is returned as inf or 0; Z_a / Z_b divides the
shifted sums without forming either.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_CAP = 26
_CHUNK_BITS = 16
_CHUNK = 1 << _CHUNK_BITS
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
_BIN = np.uint64(55)                  # stored exponent // 8, below 2^8
_MEMBERS = 256                        # instances a uint16 bin key can index
# the instance index of a stack, above the 8 bits of the bin
_MEMBER_KEYS = np.arange(_MEMBERS, dtype=np.uint16)[:, None] << 8
_MEMBER_KEYS.flags.writeable = False


class SizeError(ValueError):
    pass


def _clamped_from(boundary):
    if boundary is None:
        return {}
    return boundary.clamped()


def _split(w, members):
    """(rows, parts, starts, bounds, totals) for a stack of `members`
    instances of size = len(w) // members weights each, sorted by a key
    that holds the instance index above the bin of the weight (its stored
    exponent // 8): the stack rows m * size + r of the sorted weights
    (instance m, row offset r), their hi (parts[0]) and lo (parts[1])
    parts, the first position of each bin, and per instance m its bins
    bounds[m] .. bounds[m + 1] (its weights are the sorted positions m *
    size ..) and fsum of its weights: the exact sum of its bins, every
    sign +."""
    size = len(w) // members
    bins = (w.view(np.uint64) >> _BIN).astype(np.uint16)
    keyed = bins.reshape(members, size)
    keyed |= _MEMBER_KEYS[:members]
    order = bins.argsort(kind="stable")
    bins = bins[order]
    first = np.empty(len(w), dtype=bool)
    first[0] = True
    np.not_equal(bins[1:], bins[:-1], out=first[1:])
    starts = first.nonzero()[0]
    w = w[order]
    hi = (w.view(np.uint64) & _HIGH).view(np.float64)
    parts = np.array((hi, w - hi))
    his, los = np.add.reduceat(parts, starts, axis=1).tolist()
    bounds = starts.searchsorted(np.arange(0, len(w) + 1, size)).tolist()
    totals = [math.fsum(his[i:j] + los[i:j])
              for i, j in zip(bounds, bounds[1:])]
    return order.astype(_ROW), parts, starts, bounds, totals


def _signed_sums(stack, asked):
    """{m: {key: fsum of instance m's weights w_r * (-1)^popcount(~(lo +
    r) & mask), negated when `negative`}} for each key (mask, negative) of
    `asked` and each instance m of the stack in asked[key], exactly.  The
    keys whose last asking instance is m1 - 1 are summed over the stack's
    first m1 instances, in groups whose sign arrays hold at most _CHUNK
    rows in all; mask < size, so the sign of stack row m * size + r is
    that of its row offset r."""
    lo, size, rows, parts, starts, bounds = stack[:6]
    runs = {}
    out = {}
    for key, ms in asked.items():
        runs.setdefault(max(ms) + 1, []).append(key)
        for m in ms:
            out[m] = {}
    for m1, keys in runs.items():
        run = rows[:m1 * size], parts[:, None, :m1 * size], starts[:bounds[m1]]
        step = _CHUNK // len(run[0])
        for k in range(0, len(keys), step):
            group = keys[k:k + step]
            low = np.array([mask & (_CHUNK - 1) for mask, _ in group],
                           dtype=_ROW)
            sign = _SIGN.take(run[0] & low[:, None])
            his, los = np.add.reduceat(run[1] * sign, run[2],
                                       axis=2).tolist()
            for key, a, b in zip(group, his, los):
                flip = key[1] ^ (int.bit_count(~lo & key[0]) & 1)
                for m in asked[key]:
                    i, j = bounds[m], bounds[m + 1]
                    s = math.fsum(a[i:j] + b[i:j])
                    # 0.0 - s: a zero sum stays +0.0, as fsum of the
                    # negated terms
                    out[m][key] = 0.0 - s if flip else s
    return out


def _weigh(graph, clamp, free, lo, members):
    """The stack (lo, size, *_split(w), shifts) of rows lo .. lo + size of
    each instance (couplings, field totals) of `members`, size = min(2^|free|,
    _CHUNK), weighed in one pass with w = exp(energy - c), c the
    instance's own shift.

    The spin configurations and bond products are built once.  Each energy
    is, as for the instance alone, the float64 products full @ H and
    (s_u s_v) @ K, one gemv each; without fields there is no field term."""
    tabled = np.array(free[:_CHUNK_BITS], dtype=np.intp)
    base = np.zeros(graph.n, dtype=np.int8)
    for v, s in clamp.items():
        base[v] = s
    # free spin j is bit j of the row lo + r: of r (_SPINS) below
    # _CHUNK_BITS, of lo above
    for j in range(_CHUNK_BITS, len(free)):
        base[free[j]] = 1 if lo >> j & 1 else -1
    size = min(1 << len(free), _CHUNK)
    full = np.empty((size, graph.n), dtype=np.int8)
    full[:] = base
    full[:, tabled] = _SPINS[:size, :len(tabled)]
    energy = np.zeros((len(members), size))
    if any(totals is not None for _, totals in members):
        full_f = full.astype(np.float64)
        for m, (couplings, totals) in enumerate(members):
            if totals is not None:
                energy[m] = full_f @ np.array([couplings.beta * t
                                               for t in totals])
    if graph.n_edges:
        ends = np.array(graph.edges, dtype=np.intp).reshape(-1, 2)
        bonds = (full[:, ends[:, 0]] * full[:, ends[:, 1]]).astype(np.float64)
        K = np.array([[couplings.beta * j for j in couplings.J]
                      for couplings, _ in members])
        for m in range(len(members)):
            energy[m] += bonds @ K[m]
    shifts = [top - _MAX_EXPONENT if top > _MAX_EXPONENT
              else top if top < _MIN_EXPONENT else 0.0
              for top in energy.max(axis=1).tolist()]
    if any(shifts):     # x - 0.0 is x
        energy -= np.array(shifts)[:, None]
    rows, parts, starts, bounds, totals = _split(np.exp(energy).ravel(),
                                                 len(members))
    for a in (rows, parts, starts):
        a.flags.writeable = False
    # tuples of numbers only: the garbage collector need not track a stack
    return (lo, size, rows, parts, starts, tuple(bounds), tuple(totals),
            tuple(shifts))


def _chunks(graph, clamp, free, instances):
    """Yield (batch, stack) per round: a batch of instances, each [couplings,
    field totals, ...], weighed as one stack.  A batch holds up to _CHUNK
    rows of small instances, or one large instance, one round per chunk."""
    if len(free) > DEFAULT_CAP:
        raise SizeError("2^%d spin configurations exceed the cap 2^%d"
                        % (len(free), DEFAULT_CAP))
    size = 1 << len(free)
    per = min(_CHUNK // size, _MEMBERS) if size <= _CHUNK else 1
    for first in range(0, len(instances), per):
        batch = instances[first:first + per]
        for lo in range(0, size, _CHUNK):
            yield batch, _weigh(graph, clamp, free, lo,
                                [instance[:2] for instance in batch])


def _instance(couplings, fields, n):
    """(content key, field totals) of an instance on n vertices: the key
    holds J, beta and the per-vertex field totals h+g, all that tells the
    instances of one call apart.  A field whose totals are all zero is no
    field: x + (+-0.0) = x leaves every energy as it is."""
    totals = None
    if fields is not None:
        totals = tuple([fields.total(v) for v in range(n)])
        if not any(totals):
            totals = None
    return (tuple(couplings.J), couplings.beta, totals), totals


def _scales(shifts):
    """The factors exp(c - max c) that bring chunk sums to one scale."""
    top = max(shifts)
    return [math.exp(c - top) for c in shifts]


class _Partition(tuple):
    """Z = z * exp(shift) as the pair (z, shift), z finite and positive.

    float(Z) is inf or 0 outside the float64 range.  Z_a / Z_b divides the
    shifted sums first and multiplies exp(shift_a - shift_b) in after, so
    no Z past the float range is formed; when neither sum needed a shift
    the factor is exactly 1 and the ratio is the plain quotient of the two
    partition functions, bit for bit."""

    __slots__ = ()

    def __float__(self):
        try:
            return self[0] * math.exp(self[1])
        except OverflowError:
            return math.inf

    def __truediv__(self, other):
        try:
            return self[0] / other[0] * math.exp(self[1] - other[1])
        except OverflowError:
            return math.inf


def family(graph, asks, boundary=None):
    """[(Z, moments) for (couplings, fields, sets) in asks]: the partition
    function of the ask's instance as a _Partition (float(Z), Z_a / Z_b)
    and the moments of `moments`.  Every site is checked first.  Equal
    instances are weighed once; each distinct key (mask, sign of the
    clamped spins) is one exact signed sum per chunk over the instances of
    a stack that ask it, so every result is the float its instance gives
    alone."""
    if not asks:
        return []
    clamp = _clamped_from(boundary)
    free = [v for v in graph.vertices if v not in clamp]
    bit = {v: 1 << j for j, v in enumerate(free)}
    n, sites = graph.n, (int, np.integer)
    # content key -> [couplings, field totals, {set key: None}, and per
    # chunk: {set key: signed sum}, fsum(w), shift]
    asked = {}
    keyed = []
    for couplings, fields, sets in asks:
        keys = []
        for A in sets:
            # sigma^2 = 1: a site met twice cancels
            mask, negative = 0, False
            for v in A:
                if not (isinstance(v, sites) and 0 <= v < n):
                    raise ValueError("site %r is not a vertex of %r"
                                     % (v, graph))
                if v in bit:
                    mask ^= bit[v]
                else:
                    negative ^= clamp[v] < 0
            keys.append((mask, negative))
        content, totals = _instance(couplings, fields, n)
        entry = asked.setdefault(content, [couplings, totals, {}, [], [], []])
        entry[2].update(dict.fromkeys(keys))
        keyed.append((entry, keys))
    for batch, stack in _chunks(graph, clamp, free, list(asked.values())):
        # set key -> [each m of the batch that asks it]
        wants = {}
        for m, entry in enumerate(batch):
            entry[4].append(stack[6][m])
            entry[5].append(stack[7][m])
            for key in entry[2]:
                wants.setdefault(key, []).append(m)
        for m, sums in _signed_sums(stack, wants).items():
            batch[m][3].append(sums)
    for entry in asked.values():
        scale = _scales(entry[5])
        z = math.fsum([t * f for t, f in zip(entry[4], scale)])
        entry[2] = {key: math.fsum([s[key] * f for s, f
                                    in zip(entry[3], scale)]) / z
                    for key in entry[2]}
        entry[3] = _Partition((z / (1 << len(free)), max(entry[5])))
    return [(entry[3], [entry[2][key] for key in keys])
            for entry, keys in keyed]


def partition_function(graph, couplings, fields=None, boundary=None):
    return float(family(graph, [(couplings, fields, [])], boundary)[0][0])


def ratio_moments(graph, couplings_a, couplings_b, sets, boundary_a=None,
                  boundary_b=None):
    """(Z_a / Z_b, moments under a, moments under b) at zero field, with
    Z_a = Z(couplings_a, boundary_a) and the moments those of `moments`
    for the same sets.  Under one clamp both instances are asked in one
    family call, so equal ones are weighed once."""
    sets = list(sets)
    asks = [(couplings_a, None, sets), (couplings_b, None, sets)]
    if _clamped_from(boundary_a) == _clamped_from(boundary_b):
        (za, a), (zb, b) = family(graph, asks, boundary_a)
    else:
        (za, a), = family(graph, asks[:1], boundary_a)
        (zb, b), = family(graph, asks[1:], boundary_b)
    return za / zb, a, b


def partition_ratio(graph, couplings_a, couplings_b, boundary_a=None,
                    boundary_b=None):
    """Z(couplings_a, boundary_a) / Z(couplings_b, boundary_b), zero field."""
    return ratio_moments(graph, couplings_a, couplings_b, [], boundary_a,
                         boundary_b)[0]


def family_moments(graph, asks, boundary=None):
    """[moments(graph, couplings, sets, fields, boundary) for (couplings,
    fields, sets) in asks], the instances weighed together; an ask with no
    sets weighs nothing."""
    asks = [(couplings, fields, list(sets)) for couplings, fields, sets
            in asks]
    got = iter(family(graph, [ask for ask in asks if ask[2]], boundary))
    return [next(got)[1] if sets else [] for _, _, sets in asks]


def moments(graph, couplings, sets, fields=None, boundary=None):
    """[< prod_{x in A} sigma_x > for A in sets]; each A is a vertex
    multiset: the one-instance family."""
    return family_moments(graph, [(couplings, fields, sets)], boundary)[0]


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

