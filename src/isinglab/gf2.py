"""GF(2) elimination on int bitmasks and chunked coset enumeration.

A generator is an id with a boundary, an int bitmask; a combination of
generators is an int bitmask over their ids, and its boundary is the xor of
theirs.  The combinations with boundary `target` are empty or one coset
x0 ^ span(basis) of the kernel.  `solve` finds x0 and a kernel basis,
`coset_chunks` lists cosets in numpy chunks of uint64 word rows and
`popcount` counts the bits of each row with np.bitwise_count (numpy 2),
one word column at a time.

The odd sets of a current with sources A are such a coset: the generators
are edges, the boundary of edge uv is 1<<u | 1<<v (Aizenman 1982).  So are
the closed plaquette chains one dimension up, with target 0 (Wegner 1971).
The spin oracle, the sweep engine, the samplers and the gauge oracle do not
use this module, so every identity between it and them keeps a leg that
shares no code with it.
"""

from __future__ import annotations

import numpy as np

_CHUNK_BITS = 16          # coset rows per numpy chunk: 2^16
_WORD = (1 << 64) - 1


def solve(boundaries, target):
    """Gaussian elimination of the generators {id: boundary}, from the
    largest id down.  Returns (basis, x0).

    basis holds one kernel vector per dependent generator i: i plus
    independent generators above i, listed from the largest i down.  x0 is a
    combination of independent generators with boundary `target`, or None
    if there is none.  So in the rows of `coset_chunks(basis, [x0], ...)`
    the bit of each dependent generator is a bit of the row index, and the
    rows come in the order of a depth-first walk that leaves generator 0 out
    before it takes it in, then generator 1, and so on."""
    pivots = {}   # leading boundary bit -> (boundary, combination)
    basis = []
    for i in sorted(boundaries, reverse=True):
        vec, combo = _reduce(pivots, boundaries[i], 1 << i)
        if vec:
            pivots[vec.bit_length() - 1] = (vec, combo)
        else:
            basis.append(combo)
    vec, x0 = _reduce(pivots, target, 0)
    return basis, None if vec else x0


def _reduce(pivots, vec, combo):
    while vec and vec.bit_length() - 1 in pivots:
        pv, pc = pivots[vec.bit_length() - 1]
        vec ^= pv
        combo ^= pc
    return vec, combo


def words(mask, n_words):
    """An int bitmask as n_words little-endian uint64 words."""
    return np.array([mask >> 64 * i & _WORD for i in range(n_words)],
                    dtype=np.uint64)


def coset_chunks(basis, shifts, n_words):
    """The cosets s ^ span(basis), s in shifts, as rows of n_words uint64
    words.  Row r is s ^ the xor of basis[t] over the bits t of r.  Yields,
    per chunk of 2^_CHUNK_BITS rows at most, an iterator with one array per
    shift.  The span of the low _CHUNK_BITS basis vectors is built once."""
    low, high = basis[:_CHUNK_BITS], basis[_CHUNK_BITS:]
    span = np.zeros((1, n_words), dtype=np.uint64)
    for b in low:
        span = np.concatenate([span, span ^ words(b, n_words)])
    for j in range(1 << len(high)):
        prefix = 0
        for t, b in enumerate(high):
            if j >> t & 1:
                prefix ^= b
        yield (span ^ w for w in [words(s ^ prefix, n_words)
                                  for s in shifts])


def popcount(rows):
    """The number of set bits in each row of a 2D uint64 array: the
    np.bitwise_count of its word columns added up, 0 for rows of no words."""
    bits = np.bitwise_count(rows)
    out = np.zeros(len(rows), dtype=np.intp)
    for word in bits.T:
        out += word
    return out
