"""Truncated flux series, kept apart from the library as an oracle.

The library sums currents over odd sets, with the even and odd flux series
in closed form (cosh K, sinh K).  Here the series are summed term by term up
to a per-edge flux cutoff, and every edge subset is visited, so the two
share no weight code.
"""

import math

from isinglab.currents import _check_sources

FLUX_CUTOFF = 40          # largest per-edge flux in truncated_flux_sum


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
