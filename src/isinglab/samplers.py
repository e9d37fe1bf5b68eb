"""Seeded Monte Carlo estimators, validated against the exact engines.

All chains use numpy's PCG64 with per-chain seeding (seed XOR chain index),
so a ChainSpec determines the sample stream bit-for-bit.  Error bars come
from batch means over 20 batches.

Stream contract.  Each sampler makes exactly these draws, in this order;
the one-call-per-draw loops in `tests/ref_samplers.py` make the same ones
and must give equal results:
- Metropolis and Swendsen-Wang start with `integers(0, 2, size=n)` for the
  initial spins; clamped sites then take their clamped value.
- Metropolis, per sweep: one `integers(0, f, size=f)` picking the f free
  sites to visit, then, in visit order, one `random()` for each visit whose
  flip would lower the Boltzmann weight (delta < 0).  Other visits draw
  nothing.
- Swendsen-Wang, per step: one `random()` for each edge whose ends agree,
  in edge order (drawn as one `random(k)`), then `integers(0, 2, size=n)`;
  a cluster takes the entry at its union-find root, or its clamped value.
- Rejection sampler, per proposal: one `random()` per edge, in edge order,
  mapped to a state through the cdf of that edge's normalised weights
  (1, sinh K, cosh K - 1), as `Generator.choice(3, p=...)` maps it.
  Proposals are drawn in blocks of about CHUNK uniforms; the draws past the
  proposal that ends the run are never read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .currents import EdgeStateConfig, edge_weight_table
from .unionfind import UnionFind

N_BATCHES = 20
CHUNK = 1 << 16     # uniforms per block of rejection proposals


@dataclass(frozen=True)
class ChainSpec:
    seed: int
    burn_in: int = 200
    sweeps: int = 2000

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError("sweeps must be at least 1, got %r"
                             % (self.sweeps,))
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative, got %r"
                             % (self.burn_in,))


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
    H = H.tolist()
    # local field bookkeeping via adjacency
    K = [beta * j for j in couplings.J]
    neighbors = [[] for _ in range(graph.n)]
    for e, (u, v) in enumerate(graph.edges):
        neighbors[u].append((v, K[e]))
        neighbors[v].append((u, K[e]))
    # the inner loop runs on Python ints and floats; `state` is refreshed
    # from `spins` before the observables read it
    spins = state.tolist()
    sites = free.tolist()
    n_free = len(sites)
    uniform, exp = rng.random, math.exp

    def sweep():
        for i in rng.integers(0, n_free, size=n_free).tolist():
            v = sites[i]
            local = H[v]
            for u, k in neighbors[v]:
                local += k * spins[u]
            delta = -2.0 * spins[v] * local   # log weight ratio of the flip
            if delta >= 0 or uniform() < exp(delta):
                spins[v] = -spins[v]

    for _ in range(spec.burn_in):
        sweep()
    series = {name: [] for name in observables}
    for _ in range(spec.sweeps):
        sweep()
        state[:] = spins
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
    rng = _rng(spec)
    state, free, clamp = _init_state(graph, boundary, rng)
    p = np.array([1.0 - math.exp(-2.0 * couplings.K_abs(e))
                  for e in range(graph.n_edges)])
    heads, tails = np.array(graph.edges, dtype=np.intp).reshape(-1, 2).T

    def step():
        agree = np.flatnonzero(state[heads] == state[tails])
        open_edges = agree[rng.random(len(agree)) < p[agree]].tolist()
        uf = UnionFind(graph.n)
        for e in open_edges:
            uf.union(*graph.edges[e])
        forced = {}
        for v, s in clamp.items():
            r = uf.find(v)
            if forced.get(r, s) != s:
                raise AssertionError("clamped sites of opposite sign joined")
            forced[r] = s
        fresh = rng.integers(0, 2, size=graph.n) * 2 - 1
        for r, s in forced.items():
            fresh[r] = s
        state[:] = fresh[[uf.find(v) for v in graph.vertices]]
        return open_edges

    for _ in range(spec.burn_in):
        step()
    series = {name: [] for name in observables}
    for _ in range(spec.sweeps):
        open_edges = step()
        for name, fn in observables.items():
            series[name].append(fn(state, open_edges))
    return {name: EstimatorResult(*_batch_stats(vals))
            for name, vals in series.items()}


class AcceptanceError(RuntimeError):
    pass


def current_rejection_sampler(graph, couplings, A, spec=ChainSpec(seed=0),
                              n_samples=None, min_acceptance=1e-6):
    """Exact draws from the (parity, support) current measure with sources A.

    Each proposal draws every edge state independently with probabilities
    proportional to (1, sinh K, cosh K - 1) and accepts iff the odd-set
    boundary is A.  After every proposal, the run gives up with
    AcceptanceError once it has made max(1000, 10 n_samples) proposals and
    its acceptance is below min_acceptance.  Returns (list of
    EdgeStateConfig, acceptance rate).
    """
    A = frozenset(A)
    if len(A) % 2:
        raise AcceptanceError("odd source sets have acceptance zero")
    bad = [v for v in A if v not in graph.vertices]
    if bad:
        raise ValueError("source %r is not a vertex (0..%d)"
                         % (bad[0], graph.n - 1))
    if n_samples is None:
        n_samples = spec.sweeps
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1, got %r" % (n_samples,))
    rng = _rng(spec)
    w = edge_weight_table(couplings)
    E = graph.n_edges
    probs = np.array([[x / sum(t) for x in t] for t in w]).reshape(E, 3)
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    incidence = np.zeros((E, graph.n), dtype=np.int64)
    for e, (u, v) in enumerate(graph.edges):
        incidence[e, u] = incidence[e, v] = 1
    sources = np.zeros(graph.n, dtype=np.int64)
    sources[[int(v) for v in A]] = 1
    rows = max(1, CHUNK // max(E, 1))
    samples = []
    proposals = 0
    probe = max(1000, 10 * n_samples)
    while True:
        # searchsorted(cdf, u, side="right") is the count of cdf entries <= u
        states = (rng.random((rows, E))[:, :, None] >= cdf).sum(axis=2)
        odd = states == 1      # column 1 of the weight table: sinh K
        accept = ((odd @ incidence) % 2 == sources).all(axis=1)
        count = len(samples) + np.cumsum(accept)
        seen = proposals + np.arange(1, rows + 1)
        give_up = (seen >= probe) & (count / seen < min_acceptance)
        stop = give_up | (count == n_samples)
        used = int(np.argmax(stop)) + 1 if stop.any() else rows
        samples += [EdgeStateConfig(graph, tuple(s))
                    for s in states[:used][accept[:used]].tolist()]
        proposals += used
        if give_up[used - 1]:
            raise AcceptanceError(
                "acceptance %.2e below %.0e after %d proposals"
                % (len(samples) / proposals, min_acceptance, proposals))
        if len(samples) == n_samples:
            return samples, len(samples) / proposals
