"""Reference samplers: one Python call per random draw.

These are the step-by-step loops that `isinglab.samplers` replaced with
block draws on the same PCG64 stream.  They make the same draws in the same
order (see the stream contract in `samplers`' docstring), so every sample,
mean, stderr, acceptance and `AcceptanceError` message must equal the
package's exactly.  They keep no input validation of their own beyond what
the loops needed.
"""

import math

import numpy as np

from isinglab.currents import EdgeStateConfig, edge_weight_table
from isinglab.samplers import (AcceptanceError, ChainSpec, EstimatorResult,
                               _batch_stats, _init_state, _rng)
from isinglab.unionfind import UnionFind


def metropolis_spin(graph, couplings, observables, fields=None, boundary=None,
                    spec=ChainSpec(seed=0)):
    rng = _rng(spec)
    state, free, _ = _init_state(graph, boundary, rng)
    beta = couplings.beta
    H = np.zeros(graph.n)
    if fields is not None:
        for v in graph.vertices:
            H[v] = beta * fields.total(v)
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
            delta = -2.0 * state[v] * local
            if delta >= 0 or rng.random() < math.exp(delta):
                state[v] = -state[v]

    for _ in range(spec.burn_in):
        sweep()
    series = {name: [] for name in observables}
    for _ in range(spec.sweeps):
        sweep()
        for name, fn in observables.items():
            series[name].append(fn(state))
    return {name: EstimatorResult(*_batch_stats(vals))
            for name, vals in series.items()}


def swendsen_wang(graph, couplings, observables, boundary=None,
                  spec=ChainSpec(seed=0)):
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
            forced[uf.find(v)] = s
        fresh = rng.integers(0, 2, size=graph.n) * 2 - 1
        for v in graph.vertices:
            r = uf.find(v)
            state[v] = forced.get(r, fresh[r])
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


def current_rejection_sampler(graph, couplings, A, spec=ChainSpec(seed=0),
                              n_samples=None, min_acceptance=1e-6):
    A = frozenset(A)
    if len(A) % 2:
        raise AcceptanceError("odd source sets have acceptance zero")
    if n_samples is None:
        n_samples = spec.sweeps
    rng = _rng(spec)
    w = edge_weight_table(couplings)
    E = graph.n_edges
    probs = np.array([[x / sum(t) for x in t] for t in w])
    samples = []
    proposals = 0
    probe = max(1000, 10 * n_samples)
    while len(samples) < n_samples:
        proposals += 1
        states = tuple(int(rng.choice(3, p=probs[e])) for e in range(E))
        cfg = EdgeStateConfig(graph, states)
        if cfg.odd_vertices() == A:
            samples.append(cfg)
        if proposals >= probe and len(samples) / proposals < min_acceptance:
            raise AcceptanceError(
                "acceptance %.2e below %.0e after %d proposals"
                % (len(samples) / proposals, min_acceptance, proposals))
    return samples, len(samples) / proposals
