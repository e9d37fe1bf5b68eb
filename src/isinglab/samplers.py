"""Seeded Monte Carlo estimators, validated against the exact engines.

All chains use numpy's PCG64 with per-chain seeding (seed XOR chain index),
so a ChainSpec determines the sample stream bit-for-bit.  Error bars come
from batch means over 20 batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .currents import EdgeStateConfig, edge_weight_table

N_BATCHES = 20


@dataclass(frozen=True)
class ChainSpec:
    seed: int
    burn_in: int = 200
    sweeps: int = 2000
    thinning: int = 1


@dataclass
class EstimatorResult:
    mean: float
    stderr: float
    n_samples: int
    acceptance: float = float("nan")


def _batch_stats(values):
    values = np.asarray(values, dtype=float)
    n = len(values)
    k = min(N_BATCHES, n)
    usable = n - n % k
    means = values[:usable].reshape(k, -1).mean(axis=1)
    mean = float(values.mean())
    if k > 1:
        stderr = float(means.std(ddof=1) / math.sqrt(k))
    else:
        stderr = float("nan")
    return mean, stderr, n


def _rng(spec, chain=0):
    return np.random.Generator(np.random.PCG64(spec.seed ^ chain))


def _init_state(graph, boundary, rng):
    state = rng.integers(0, 2, size=graph.n) * 2 - 1
    clamp = boundary.clamped() if boundary is not None else {}
    for v, s in clamp.items():
        state[v] = s
    free = np.array([v for v in graph.vertices if v not in clamp], dtype=np.intp)
    return state.astype(np.int8), free, clamp


def metropolis_spin(graph, couplings, observables, fields=None, boundary=None,
                    spec=ChainSpec(seed=0)):
    """Single-site Metropolis with random site selection.

    A fixed sequential scan is NOT used: with the min(1, e^{-beta dH}) rule
    every uphill-or-flat proposal is accepted deterministically, and on
    bipartite graphs that creates absorbing flip-flop orbits (a second
    invariant class besides the Gibbs measure; easy to exhibit on a
    4-cycle).  Random scan restores irreducibility while keeping the run
    reproducible from the seed.

    observables: dict name -> fn(spin array) -> float.  Returns a dict of
    EstimatorResult.
    """
    rng = _rng(spec)
    state, free, _ = _init_state(graph, boundary, rng)
    beta = couplings.beta
    H = np.zeros(graph.n)
    if fields is not None:
        for v in graph.vertices:
            H[v] = beta * fields.total(v)
    # local field bookkeeping via adjacency
    K = [beta * j for j in couplings.J]
    neighbors = [[] for _ in range(graph.n)]
    for e, (u, v) in enumerate(graph.edges):
        neighbors[u].append((v, K[e]))
        neighbors[v].append((u, K[e]))

    def sweep():
        for v in free[rng.integers(0, len(free), size=len(free))]:
            local = H[v]
            for u, k in neighbors[v]:
                local += k * state[u]
            delta = -2.0 * state[v] * local   # energy gain of flipping
            if delta >= 0 or rng.random() < math.exp(delta):
                state[v] = -state[v]

    for _ in range(spec.burn_in):
        sweep()
    series = {name: [] for name in observables}
    for t in range(spec.sweeps):
        sweep()
        if t % spec.thinning == 0:
            for name, fn in observables.items():
                series[name].append(fn(state))
    return {name: EstimatorResult(*_batch_stats(vals))
            for name, vals in series.items()}


def swendsen_wang(graph, couplings, observables, boundary=None,
                  spec=ChainSpec(seed=0)):
    """Swendsen-Wang cluster dynamics (ferromagnetic only).

    Alternates: open each agreeing edge with probability p_b; then resample
    cluster spins uniformly, with clusters containing clamped sites forced
    to the clamped value.  observables receive (spin array, open edge list).
    """
    if not couplings.is_ferromagnetic:
        raise ValueError("Swendsen-Wang requires ferromagnetic couplings")
    from .unionfind import UnionFind
    rng = _rng(spec)
    state, free, clamp = _init_state(graph, boundary, rng)
    p = [1.0 - math.exp(-2.0 * couplings.K_abs(e))
         for e in range(graph.n_edges)]

    def step():
        open_edges = []
        uf = UnionFind(graph.n)
        for e, (u, v) in enumerate(graph.edges):
            if state[u] == state[v] and rng.random() < p[e]:
                open_edges.append(e)
                uf.union(u, v)
        forced = {}
        for v, s in clamp.items():
            r = uf.find(v)
            if forced.get(r, s) != s:
                raise AssertionError("clamped sites of opposite sign joined")
            forced[r] = s
        fresh = rng.integers(0, 2, size=graph.n) * 2 - 1
        for v in graph.vertices:
            r = uf.find(v)
            state[v] = forced.get(r, fresh[r])
        return open_edges

    for _ in range(spec.burn_in):
        step()
    series = {name: [] for name in observables}
    for t in range(spec.sweeps):
        open_edges = step()
        if t % spec.thinning == 0:
            for name, fn in observables.items():
                series[name].append(fn(state, open_edges))
    return {name: EstimatorResult(*_batch_stats(vals))
            for name, vals in series.items()}


class AcceptanceError(RuntimeError):
    pass


def current_rejection_sampler(graph, couplings, A, spec=ChainSpec(seed=0),
                              n_samples=None, min_acceptance=1e-6,
                              relaxed_boundary=None):
    """Exact draws from the (parity, support) current measure with sources A.

    Each proposal draws every edge state independently with probabilities
    proportional to (1, sinh K, cosh K - 1) and accepts iff the odd-set
    boundary matches A (or, with relaxed_boundary, matches A off that set).
    Returns (list of EdgeStateConfig, acceptance rate).
    """
    A = frozenset(A)
    if len(A) % 2 and relaxed_boundary is None:
        raise AcceptanceError("odd source sets have acceptance zero")
    if n_samples is None:
        n_samples = spec.sweeps
    rng = _rng(spec)
    w = edge_weight_table(couplings)
    E = graph.n_edges
    probs = np.array([[x / sum(t) for x in t] for t in w])
    boundary = frozenset(relaxed_boundary or ())
    samples = []
    proposals = 0
    probe = max(1000, 10 * n_samples)
    while len(samples) < n_samples:
        proposals += 1
        states = tuple(int(rng.choice(3, p=probs[e])) for e in range(E))
        cfg = EdgeStateConfig(graph, states)
        if cfg.odd_vertices() - boundary == A:
            samples.append(cfg)
        if proposals >= probe and len(samples) / proposals < min_acceptance:
            raise AcceptanceError(
                "acceptance %.2e below %.0e after %d proposals"
                % (len(samples) / proposals, min_acceptance, proposals))
    return samples, len(samples) / proposals
