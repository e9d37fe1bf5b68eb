import math

import numpy as np
import pytest

from isinglab.graphs import BoundarySpec, BoxGraph, Couplings, Graph
from isinglab import samplers, spins
from isinglab.samplers import (AcceptanceError, ChainSpec,
                               current_rejection_sampler, metropolis_spin,
                               swendsen_wang)


BOX = BoxGraph(2, (3, 3))
COUP = Couplings(BOX, 1.0, 0.35)
OBS = {"c": lambda s: float(s[0] * s[4])}
EXACT = spins.expectation(BOX, COUP, [0, 4])


def test_metropolis_determinism():
    spec = ChainSpec(seed=123, burn_in=50, sweeps=400)
    a = metropolis_spin(BOX, COUP, OBS, spec=spec)["c"]
    b = metropolis_spin(BOX, COUP, OBS, spec=spec)["c"]
    assert a.mean == b.mean and a.stderr == b.stderr


def test_metropolis_agrees_with_oracle():
    spec = ChainSpec(seed=5, burn_in=300, sweeps=6000)
    r = metropolis_spin(BOX, COUP, OBS, spec=spec)["c"]
    assert abs(r.mean - EXACT) <= 4.0 * r.stderr


def test_sw_determinism_and_accuracy():
    spec = ChainSpec(seed=9, burn_in=200, sweeps=4000)
    obs = {"c": lambda s, oe: float(s[0] * s[4])}
    a = swendsen_wang(BOX, COUP, obs, spec=spec)["c"]
    b = swendsen_wang(BOX, COUP, obs, spec=spec)["c"]
    assert a.mean == b.mean
    assert abs(a.mean - EXACT) <= 4.0 * a.stderr


def test_sw_rejects_mixed_signs():
    g = Graph(3, [(0, 1), (1, 2)])
    c = Couplings(g, [1.0, -1.0], 0.5)
    with pytest.raises(ValueError):
        swendsen_wang(g, c, {})


def test_sw_clamped_boundary():
    bc = BoundarySpec({v: BoundarySpec.PLUS for v in BOX.boundary_vertices()})
    exact = spins.expectation(BOX, COUP, [4], boundary=bc)
    r = swendsen_wang(BOX, COUP, {"m": lambda s, oe: float(s[4])},
                      boundary=bc,
                      spec=ChainSpec(seed=2, burn_in=200, sweeps=5000))["m"]
    assert abs(r.mean - exact) <= 4.0 * r.stderr


def test_rejection_single_edge_acceptance():
    # one edge, empty sources: acceptance = cosh K / e^K exactly in law
    g = Graph(2, [(0, 1)])
    K = 0.6
    c = Couplings(g, 1.0, K)
    _, acc = current_rejection_sampler(g, c, (), n_samples=4000,
                                       spec=ChainSpec(seed=3))
    assert acc == pytest.approx(math.cosh(K) / math.exp(K), abs=0.03)


def test_rejection_event_estimate(triangle):
    c = Couplings(triangle, 1.0, 0.5)
    from isinglab.currents import SupportView, single_support_expectations
    ev = lambda sv: 1.0 if sv.connected(0, 1) else 0.0
    exact = single_support_expectations(
        triangle, c, {"c": lambda labels: labels.connected(0, 1)})["c"]
    ss, _ = current_rejection_sampler(triangle, c, (), n_samples=4000,
                                      spec=ChainSpec(seed=7))
    vals = [ev(SupportView(triangle, s.support)) for s in ss]
    mean, stderr, _ = samplers._batch_stats(vals)
    assert abs(mean - exact) <= 4.0 * stderr


def test_rejection_gives_up():
    g = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
    c = Couplings(g, 1.0, 0.01)
    with pytest.raises(AcceptanceError):
        current_rejection_sampler(g, c, {0, 4}, n_samples=50,
                                  min_acceptance=1e-2)
    with pytest.raises(AcceptanceError):
        current_rejection_sampler(g, c, {0}, n_samples=5)


def test_sampled_sources_are_correct(triangle):
    c = Couplings(triangle, 1.0, 0.8)
    ss, _ = current_rejection_sampler(triangle, c, {0, 2}, n_samples=200,
                                      spec=ChainSpec(seed=1))
    assert all(s.odd_vertices() == {0, 2} for s in ss)


def test_coverage_over_seeds():
    """4-sigma coverage: >= 95 of 100 seeded chains bracket the truth."""
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    c = Couplings(g, 1.0, 0.45)
    exact = spins.expectation(g, c, [0, 2])
    hits = 0
    for seed in range(100):
        r = metropolis_spin(g, c, {"c": lambda s: float(s[0] * s[2])},
                            spec=ChainSpec(seed=seed, burn_in=100,
                                           sweeps=800))["c"]
        if abs(r.mean - exact) <= 4.0 * r.stderr:
            hits += 1
    assert hits >= 95
