"""The block-drawn samplers against the one-draw-per-call reference loops.

Both make the same PCG64 draws in the same order, so every state a chain
visits, every sample, mean, stderr, acceptance and AcceptanceError message
must be equal, not close.
"""

import numpy as np
import pytest

import ref_samplers as ref
from conftest import random_instance
from isinglab import samplers
from isinglab.graphs import (BoundarySpec, BoxGraph, Couplings, FieldSpec,
                             Graph)
from isinglab.samplers import AcceptanceError, ChainSpec

N_INSTANCES = 40
DESIGNATIONS = (BoundarySpec.PLUS, BoundarySpec.MINUS, BoundarySpec.FREE)


def _instance(seed, ferro):
    """(graph, couplings, boundary or None); every third one a clamped box,
    half of those with one uniform coupling, where flips of zero energy
    change are common."""
    rng = np.random.default_rng(seed)
    if seed % 3:
        graph, c = random_instance(rng, max_vertices=6, ferro=ferro)
        return graph, c, None
    graph = BoxGraph(2, tuple(int(x) for x in rng.integers(2, 4, size=2)))
    lo = 0.0 if ferro else -1.0
    J = 1.0 if seed % 6 else rng.uniform(lo, 1.0, size=graph.n_edges).tolist()
    c = Couplings(graph, J, float(rng.uniform(0.05, 1.2)))
    bc = BoundarySpec({v: DESIGNATIONS[int(rng.integers(3))]
                       for v in graph.boundary_vertices()})
    return graph, c, bc


def _recorder(log, with_edges):
    """Observables that log every state (and open edge list) they see."""
    if with_edges:
        return {"m": lambda s, oe: log.append((s.tolist(), oe))
                or float(s.sum()),
                "c": lambda s, oe: float(s[0] * s[-1])}
    return {"m": lambda s: log.append(s.tolist()) or float(s.sum()),
            "c": lambda s: float(s[0] * s[-1])}


def _results(res):
    return {k: (r.mean, r.stderr, r.n_samples) for k, r in res.items()}


def _spec(seed):
    return ChainSpec(seed=seed, burn_in=seed % 7, sweeps=40 + seed % 23)


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_metropolis_matches_reference(seed):
    graph, c, bc = _instance(seed, ferro=False)
    rng = np.random.default_rng(1000 + seed)
    fields = None if seed % 6 == 3 else FieldSpec(
        graph.n, h=rng.uniform(0.0, 0.5, size=graph.n).tolist(),
        g=rng.uniform(-0.8, 0.8, size=graph.n).tolist())
    runs = []
    for sampler in (samplers.metropolis_spin, ref.metropolis_spin):
        log = []
        res = sampler(graph, c, _recorder(log, False), fields=fields,
                      boundary=bc, spec=_spec(seed))
        runs.append((log, _results(res)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_swendsen_wang_matches_reference(seed):
    graph, c, bc = _instance(seed, ferro=True)
    runs = []
    for sampler in (samplers.swendsen_wang, ref.swendsen_wang):
        log = []
        res = sampler(graph, c, _recorder(log, True), boundary=bc,
                      spec=_spec(seed))
        runs.append((log, _results(res)))
    assert runs[0] == runs[1]


def _rejection(sampler, *args, **kwargs):
    """States of every sample and the acceptance, or the error's text."""
    try:
        ss, acc = sampler(*args, **kwargs)
    except AcceptanceError as exc:
        return "AcceptanceError: %s" % exc
    return [s.states for s in ss], acc


def _rejection_case(seed):
    """Sources empty for every fourth seed, else a random pair; a
    min_acceptance high enough to bound the reference loop's proposals."""
    rng = np.random.default_rng(2000 + seed)
    graph, c = random_instance(rng, max_vertices=5, max_edges=8,
                               ferro=bool(seed % 2))
    A = () if seed % 4 == 0 else tuple(
        int(v) for v in rng.choice(graph.n, 2, replace=False))
    return (graph, c, A), dict(spec=ChainSpec(seed=seed),
                               n_samples=20 + seed % 17,
                               min_acceptance=(0.02, 0.05, 0.2)[seed % 3])


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_rejection_sampler_matches_reference(seed):
    args, kwargs = _rejection_case(seed)
    got = _rejection(samplers.current_rejection_sampler, *args, **kwargs)
    assert got == _rejection(ref.current_rejection_sampler, *args, **kwargs)


def test_rejection_cases_both_complete_and_give_up():
    gave_up = {isinstance(_rejection(samplers.current_rejection_sampler,
                                     *args, **kwargs), str)
               for args, kwargs in map(_rejection_case, range(N_INSTANCES))}
    assert gave_up == {False, True}


# On the 4-cycle at beta 0.3 with sources {0, 2} and seed 0, the 51st
# accepted proposal is proposal 1000, the last of the probe.
CYCLE = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
CYCLE_ARGS = (CYCLE, Couplings(CYCLE, 1.0, 0.3), {0, 2})


@pytest.mark.parametrize("n_samples, min_acceptance, expected", [
    (51, 0.0, 51 / 1000),
    (51, 0.06, "AcceptanceError: acceptance 5.10e-02 below 6e-02 "
               "after 1000 proposals"),
    (50, 0.06, None),
])
def test_completing_proposal_on_the_probe(n_samples, min_acceptance,
                                          expected):
    runs = [_rejection(sampler, *CYCLE_ARGS, spec=ChainSpec(seed=0),
                       n_samples=n_samples, min_acceptance=min_acceptance)
            for sampler in (samplers.current_rejection_sampler,
                            ref.current_rejection_sampler)]
    assert runs[0] == runs[1]
    if isinstance(expected, str):
        # the give-up check runs on the proposal that completes the run
        assert runs[0] == expected
    elif expected is not None:
        assert runs[0][1] == expected
    else:
        # completed on proposal 990, below min_acceptance but before the
        # probe, so the give-up check cannot fire
        assert len(runs[0][0]) == 50 and runs[0][1] == 50 / 990


def test_odd_sources_give_the_same_error():
    runs = [_rejection(sampler, *CYCLE_ARGS[:2], {1},
                       spec=ChainSpec(seed=0), n_samples=5)
            for sampler in (samplers.current_rejection_sampler,
                            ref.current_rejection_sampler)]
    assert runs[0] == runs[1] == ("AcceptanceError: odd source sets have "
                                  "acceptance zero")


def test_parity_past_64_vertices():
    # a 70-vertex path, sources at its last two vertices: only that edge
    # carries a strong coupling, so about a quarter of proposals accept
    n = 70
    path = Graph(n, [(i, i + 1) for i in range(n - 1)])
    c = Couplings(path, [0.01] * (n - 2) + [1.0], 2.0)
    runs = [_rejection(sampler, path, c, {n - 2, n - 1},
                       spec=ChainSpec(seed=4), n_samples=20)
            for sampler in (samplers.current_rejection_sampler,
                            ref.current_rejection_sampler)]
    assert runs[0] == runs[1]
    states, acc = runs[0]
    assert len(states) == 20 and 0.0 < acc < 1.0
    odd = [{e for e, s in enumerate(st) if s == 1} for st in states]
    assert all(o == {n - 2} for o in odd)


# ---------------------------------------------------------------------------
# input validation


@pytest.mark.parametrize("n_samples", [0, -3])
def test_rejection_sample_count_must_be_positive(n_samples):
    g = BoxGraph(2, (2, 2))
    with pytest.raises(ValueError, match="n_samples"):
        samplers.current_rejection_sampler(g, Couplings(g, 1.0, 0.4), (),
                                           n_samples=n_samples)


def test_rejection_source_must_be_a_vertex():
    g = BoxGraph(2, (2, 2))
    with pytest.raises(ValueError, match="not a vertex"):
        samplers.current_rejection_sampler(g, Couplings(g, 1.0, 0.4), {0, 7},
                                           n_samples=5)


@pytest.mark.parametrize("kwargs", [dict(sweeps=0), dict(sweeps=-1),
                                    dict(burn_in=-1)])
def test_chain_spec_rejects_empty_runs(kwargs):
    with pytest.raises(ValueError):
        ChainSpec(seed=0, **kwargs)
