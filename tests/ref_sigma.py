"""Sigma-sum weights of the three current laws, kept apart from the library.

The library weighs support patterns by positive subgraph sums
(`currents._subgraph_sums`).  Here each law is its spin form: the source
constraints are sums over +-1 spins at the constrained vertices, with chi_e
the product of the spins at the ends of e, summed for all patterns at once
by meet-in-the-middle product tables.  The sum is signed, so it leaves
rounding residues where the exact weight is 0; `pairable_mask` gives the
patterns where a source set pairs, which is where the double law's Q and G
can be nonzero.  Every function returns
the weights of the 2^m patterns in a 1-D array, bit i of the index adding
pattern edge i.
"""

import numpy as np

from isinglab.currents import edge_weight_table
from ref_support import pattern_labels


def _signs(k):
    """The 2^k x k matrix of +-1 spins: row r holds the bits of r."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1) * 2 - 1


def _chi(signs, sites, pos):
    """Per row of `signs`: the product of the spins in columns pos[v] over
    the sites v found in pos (the others are not summed over)."""
    out = np.ones(len(signs))
    for v in sites:
        if v in pos:
            out = out * signs[:, pos[v]]
    return out


def _sigma_sum(tabs, src):
    """W[p] = sum_sigma src(sigma) prod tabs[i](sigma) over the bits i of
    p; tabs[i] and src are arrays over the sigma rows.  Each half of the
    pattern bits gets a product table, and the sum is one matrix product."""
    def table(half):
        out = np.empty((1 << len(half), len(src)))
        out[0] = 1.0
        for mask in range(1, len(out)):
            low = mask & -mask
            out[mask] = out[mask ^ low] * half[low.bit_length() - 1]
        return out

    m = len(tabs)
    TA = table(tabs[:m // 2]) * src
    return (TA @ table(tabs[m // 2:]).T).T.ravel()


def single_weights(graph, couplings):
    """W(S) = 2^-n sum_sigma prod_{e in S} ((cosh K - 1) + sinh K chi_e)."""
    signs = _signs(graph.n)
    pos = {v: v for v in graph.vertices}
    tabs = [even + odd * _chi(signs, uv, pos) for uv, (_, odd, even)
            in zip(graph.edges, edge_weight_table(couplings))]
    return _sigma_sum(tabs, np.ones(len(signs))) / len(signs)


def double_weights(graph, couplings, constrained, A1, A2, edges2=None):
    """W(S) = 2^-2k Q(S & E2; A2) G(S; A1 xor A2), with
    Q = sum_rho chi_rho(A2) prod_{S & E2} (1 + chi_e) and
    G = sum_sigma chi_sigma(A1 xor A2) prod_{S & E2} (s^2 + s c chi_e)
        prod_{S - E2} ((c - 1) + s chi_e), unmasked."""
    constrained = sorted(constrained)
    shared = set(range(graph.n_edges) if edges2 is None else edges2)
    pos = {v: i for i, v in enumerate(constrained)}
    signs = _signs(len(constrained))
    q_tabs, g_tabs = [], []
    for e, (uv, (_, s, c1)) in enumerate(
            zip(graph.edges, edge_weight_table(couplings))):
        chi = _chi(signs, uv, pos)
        if e in shared:
            q_tabs.append(1.0 + chi)
            g_tabs.append(s * s + s * (c1 + 1.0) * chi)
        else:
            q_tabs.append(np.ones(len(signs)))
            g_tabs.append(c1 + s * chi)
    Q = _sigma_sum(q_tabs, _chi(signs, frozenset(A2), pos))
    G = _sigma_sum(g_tabs, _chi(signs, frozenset(A1) ^ frozenset(A2), pos))
    return Q * G / float(len(signs)) ** 2


def pairable_mask(graph, B, wired, edges=None):
    """Per pattern S of the graph's edges: every component of S & edges
    (all of S for None) that holds no `wired` vertex holds an even number
    of B vertices."""
    keep = range(graph.n_edges) if edges is None else set(edges)
    lab = pattern_labels(graph, [(e,) if e in keep else ()
                                 for e in range(graph.n_edges)], 0,
                         graph.n_edges)
    rows = np.arange(len(lab))
    odd = np.zeros(lab.shape, dtype=bool)
    for b in B:
        odd[rows, lab[:, b]] ^= True
    odd[rows[:, None], lab[:, list(wired)]] = False
    return ~odd.any(1)


def folded_weights(reflection, sources=(), relaxed_boundary=frozenset()):
    """The folded law in sigma variables alpha (n1 parities at constrained
    side-1 vertices), gamma (mirrored n2 parities there) and delta (joint
    parities at constrained plane vertices), over the patterns of
    e0 + e1."""
    r = reflection
    graph = r.graph
    constrained = set(graph.vertices) - set(relaxed_boundary)
    c1 = sorted(constrained & r.lambda1)
    c0 = sorted(constrained & r.lambda0)
    alpha = {v: i for i, v in enumerate(c1)}
    gamma = {v: len(c1) + i for i, v in enumerate(c1)}
    delta = {v: 2 * len(c1) + i for i, v in enumerate(c0)}
    signs = _signs(2 * len(c1) + len(c0))
    side_a, side_g = {**delta, **alpha}, {**delta, **gamma}
    w = edge_weight_table(r.couplings)
    tabs = []
    for e in r.e0:
        s, c = w[e][1], w[e][2] + 1.0
        tabs.append((c - 1.0) + s * _chi(signs, graph.edges[e], delta))
    for e in r.e1:
        s, c = w[e][1], w[e][2] + 1.0
        xa = _chi(signs, graph.edges[e], side_a)
        xg = _chi(signs, graph.edges[e], side_g)
        tabs.append((c * c - 1.0) + s * c * (xa + xg) + s * s * (xa * xg))
    # a side-2 source is the gamma spin of its mirror image
    mirror = {r.involution[v]: i for v, i in gamma.items()}
    src = _chi(signs, sources, {**mirror, **delta, **alpha})
    return _sigma_sum(tabs, src) / len(signs)
