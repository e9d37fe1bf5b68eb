"""The support kernel's passes against their plain forms: `_exact_sum` is
math.fsum by repr on both sides of its size switch, `_subgraph_sums` and
FK's edge pass are the per-bit loops of `ref_support` byte for byte, and
the bool tables of `_pairs` are a count's `!= 0`."""

import math

import numpy as np
import pytest

from isinglab import fk
from isinglab.currents import (_BINNED_MIN, _exact_sum, _pairs,
                               _subgraph_sums, _SupportLabels, _syndromes)
from isinglab.graphs import BoxGraph, Couplings, Graph
from ref_support import edge_factors_loop, subgraph_sums_loop

SIZES = [1, 7, _BINNED_MIN - 1, _BINNED_MIN, 5000, 1 << 17]


def _outcome(f, x):
    try:
        return repr(f(x))
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


def _assert_fsum(x):
    x = np.asarray(x, dtype=float)
    assert _outcome(_exact_sum, x) == _outcome(math.fsum, x.tolist())


def _wide(rng, n, lo=-1074, hi=1000):
    """n signed terms whose exponents spread over [lo, hi)."""
    return rng.choice([-1.0, 1.0], n) * np.ldexp(
        rng.uniform(1.0, 2.0, n), rng.integers(lo, hi, n))


@pytest.mark.parametrize("n", SIZES)
def test_exact_sum_is_fsum_across_the_exponent_range(rng, n):
    for lo, hi in ((-1074, 1000), (-40, 40), (-1074, -1000), (990, 1000)):
        _assert_fsum(_wide(rng, n, lo, hi))
    # cancellation: a sum far below its terms, and one that is exactly 0
    x = _wide(rng, n, -60, 60)
    _assert_fsum(np.concatenate((x, -x[::-1], [1e-300])))
    _assert_fsum(np.concatenate((x, -x)))


@pytest.mark.parametrize("n", SIZES)
def test_exact_sum_of_subnormals_and_signed_zeros(rng, n):
    tiny = rng.integers(-1 << 52, 1 << 52, n) * 2.0 ** -1074
    _assert_fsum(tiny)
    _assert_fsum(np.concatenate((tiny, [2.2250738585072014e-308])))
    _assert_fsum(np.full(n, -0.0))
    _assert_fsum(rng.choice([-0.0, 0.0], n))


def test_exact_sum_of_one_term_and_of_none():
    for x in (0.0, -0.0, 5e-324, 1.5, -3.0e300, math.inf, math.nan):
        _assert_fsum([x])
    _assert_fsum([])


def test_exact_sum_of_two_to_the_twenty_terms_near_the_top(rng):
    # 2^20 terms below 2^1001 stay binned; their sum reaches 2^1020
    n = 1 << 20
    _assert_fsum(np.ldexp(rng.uniform(1.0, 2.0, n), 999))
    _assert_fsum(np.ldexp(rng.uniform(1.0, 2.0, n),
                          rng.integers(997, 1001, n)))
    _assert_fsum(_wide(rng, n, 995, 1000))
    # past 2^20 terms, and terms past 2^1001, math.fsum sums them itself
    _assert_fsum(_wide(rng, n + 1, -60, 60))
    _assert_fsum(np.ldexp(rng.uniform(1.0, 2.0, 4096), 1005))


@pytest.mark.parametrize("n", [3, 5000])
def test_exact_sum_of_non_finite_terms_and_overflow(rng, n):
    x = _wide(rng, n, -40, 40)
    for bad in ([math.inf], [-math.inf], [math.nan], [math.inf, math.nan],
                [math.inf, -math.inf]):
        _assert_fsum(np.concatenate((x, bad)))
    # finite terms whose sum leaves the float range: OverflowError
    _assert_fsum(np.concatenate((x, [1.7e308, 1.7e308])))
    _assert_fsum(np.full(n, 1e308))


def _random_instance(rng, E):
    """bounds and a target of E random edges on 8 vertices, some of them
    constrained, and signed weights a, b with exact 0s and 1s among them."""
    n = 8
    edges = [tuple(rng.choice(n, 2, replace=False).tolist())
             for _ in range(E)]
    constrained = set(rng.choice(n, int(rng.integers(1, n + 1)),
                                 replace=False).tolist())
    target = set(rng.choice(sorted(constrained), 2, replace=False).tolist()
                 if len(constrained) > 1 and rng.random() < 0.7 else ())
    bounds, t = _syndromes(edges, constrained, target)
    pool = [0.0, 1.0, -1.0, 0.5, 3.0]
    a, b = ([float(pool[k]) if k < len(pool) else float(x) for k, x in zip(
        rng.integers(0, 2 * len(pool), E), _wide(rng, E, -8, 8))]
        for _ in range(2))
    return bounds, t, a, b


@pytest.mark.parametrize("E", range(21))
def test_subgraph_sums_equal_the_per_bit_loop(rng, E):
    for _ in range(3 if E < 18 else 1):
        bounds, t, a, b = _random_instance(rng, E)
        got = _subgraph_sums(bounds, t, a, b)
        assert got.tobytes() == subgraph_sums_loop(bounds, t, a, b).tobytes()
        ones = [1.0] * E
        carried = [bool(x) for x in rng.integers(0, 2, E)]
        count = subgraph_sums_loop(bounds, t, ones, [float(c)
                                                     for c in carried])
        assert np.array_equal(_pairs(bounds, t, carried), count != 0)
        assert np.array_equal(_pairs(bounds, t),
                              subgraph_sums_loop(bounds, t, ones, ones) != 0)


@pytest.mark.parametrize("sides, beta", [((2, 3), 0.4), ((3, 3), 0.05),
                                         ((3, 4), 0.9), ((3, 4), 80.0)])
def test_fk_edge_pass_equals_the_per_bit_loop(rng, sides, beta):
    box = BoxGraph(2, sides)
    J = rng.uniform(-1.5, 1.5, box.n_edges)
    c = Couplings(box, [float(j) for j in J], beta)
    signs = [-1.0 if j < 0 else 1.0 for j in J]
    for free, target, s in ((set(box.vertices), set(), None),
                            (set(box.vertices) - {0, 1}, {4}, signs)):
        got = fk._fk_law(box, c, free)(target, s)
        ones = [1.0] * box.n_edges
        want = subgraph_sums_loop(*_syndromes(box.edges, free, target),
                                  ones, s or ones) * fk.Q ** len(free)
        edge_factors_loop(want, fk.fk_weights(c), fk.Q)
        assert got.tobytes() == want.tobytes()


def test_reach_column_is_the_count_nonzero(rng):
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6),
                  (6, 4), (1, 5), (2, 6)])
    W = rng.choice([0.0, 0.25, 1.0, 3.0], 1 << g.n_edges)
    labels = _SupportLabels(g, [(e,) for e in range(g.n_edges)], W)
    ones = [1.0] * g.n_edges
    for S, v in (({0}, 6), ({0, 4}, 2), ({5}, 0), ({1, 2, 3}, 6)):
        count = subgraph_sums_loop(*_syndromes(
            g.edges, set(g.vertices) - S, {v}), ones, ones)
        assert np.array_equal(labels._reach(S, v),
                              (count != 0)[labels.masks])
