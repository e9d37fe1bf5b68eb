"""Spin moments set by set, kept apart from the library's summation kernel.

The library sums the signed weights of all its sets at once, from exponent
bins of split weights (`spins._signed_sums`).  Here each chunk's weights are
built as float64 spin configurations and each set is its own
`math.fsum(np.where(odd, -w, w).tolist())`, one Python float per row, so the
two share no summation, sign or multiset code.  Only the chunk length and
the exponent shift bounds are read from `spins`: the per-chunk sums are
combined after a shift, so the result depends on where the chunks end.
"""

import math

import numpy as np

from isinglab.spins import _CHUNK, _MAX_EXPONENT, _MIN_EXPONENT


def _spin_chunks(n_free):
    """Yield (lo, spins) with spins in {-1,+1}, shape (chunk, n_free)."""
    total = 1 << n_free
    for lo in range(0, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.uint64)
        bits = (idx[:, None] >> np.arange(n_free, dtype=np.uint64)) & 1
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
        yield lo, w, math.fsum(w.tolist()), shift


def _rescaled(sums, shifts):
    top = max(shifts)
    return [s * math.exp(c - top) for s, c in zip(sums, shifts)]


def moments(graph, couplings, sets, fields=None, boundary=None):
    """[<prod_{x in A} sigma_x> for A in sets], one weighing, set by set."""
    clamp = {} if boundary is None else boundary.clamped()
    free = [v for v in graph.vertices if v not in clamp]
    bit = {v: j for j, v in enumerate(free)}
    signs = []
    for A in sets:
        odd = [v for v in set(A) if list(A).count(v) % 2]
        mask = sum(1 << bit[v] for v in odd if v not in clamp)
        negative = sum(clamp[v] < 0 for v in odd if v in clamp) % 2
        signs.append((mask, negative))
    nums = [[] for _ in sets]
    den, shifts = [], []
    rows = np.arange(_CHUNK, dtype=np.int64)
    for lo, w, total, shift in _weigh(graph, couplings, fields, clamp, free):
        for num, (mask, negative) in zip(nums, signs):
            parity = (~(lo + rows[:len(w)]) & mask).astype(np.uint64)
            odd = np.zeros(len(w), dtype=bool)
            for j in range(mask.bit_length()):
                odd ^= ((parity >> np.uint64(j)) & np.uint64(1)).astype(bool)
            odd ^= bool(negative)
            num.append(math.fsum(np.where(odd, -w, w).tolist()))
        den.append(total)
        shifts.append(shift)
    z = math.fsum(_rescaled(den, shifts))
    return [math.fsum(_rescaled(num, shifts)) / z for num in nums]


def shifted_partition(graph, couplings, fields=None, boundary=None):
    """(z, c): Z = z * exp(c), z finite and positive."""
    clamp = {} if boundary is None else boundary.clamped()
    free = [v for v in graph.vertices if v not in clamp]
    den, shifts = [], []
    for _, _, total, shift in _weigh(graph, couplings, fields, clamp, free):
        den.append(total)
        shifts.append(shift)
    return math.fsum(_rescaled(den, shifts)) / (1 << len(free)), max(shifts)


def partition_function(graph, couplings, fields=None, boundary=None):
    z, shift = shifted_partition(graph, couplings, fields, boundary)
    try:
        return z * math.exp(shift)
    except OverflowError:
        return math.inf
