import itertools

import numpy as np
import pytest

from isinglab.graphs import Couplings, Graph


def random_instance(rng, max_vertices=5, max_edges=None, ferro=True,
                    beta_max=1.5):
    """A connected-ish random weighted graph for fuzz tests."""
    n = int(rng.integers(2, max_vertices + 1))
    pairs = list(itertools.combinations(range(n), 2))
    keep = [p for p in pairs if rng.random() < 0.6]
    if not keep:
        keep = [pairs[int(rng.integers(len(pairs)))]]
    if max_edges is not None and len(keep) > max_edges:
        keep = [keep[i] for i in
                rng.choice(len(keep), max_edges, replace=False)]
    graph = Graph(n, keep)
    lo = 0.0 if ferro else -1.0
    J = [float(x) for x in rng.uniform(lo, 1.0, size=len(keep))]
    beta = float(rng.uniform(0.05, beta_max))
    return graph, Couplings(graph, J, beta)


@pytest.fixture
def triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


@pytest.fixture
def work(monkeypatch):
    """What the calls that follow build: 'tables', the double law's
    `_subgraph_sums` tables, and 'weighed', per spin instance weighed (per
    chunk of one past 2^16 rows) its graph, clamped spins and the rest of
    its content key: J, beta and the field totals."""
    from isinglab import doubled, spins
    out = {"tables": 0, "weighed": []}
    sums, weigh = doubled._subgraph_sums, spins._weigh

    def counted_sums(*args):
        out["tables"] += 1
        return sums(*args)

    def counted_weigh(graph, clamp, free, lo, members):
        clamped = tuple(sorted(clamp.items()))
        out["weighed"] += [(graph, clamped, tuple(couplings.J),
                            couplings.beta, totals)
                           for couplings, totals in members]
        return weigh(graph, clamp, free, lo, members)

    monkeypatch.setattr(doubled, "_subgraph_sums", counted_sums)
    monkeypatch.setattr(spins, "_weigh", counted_weigh)
    return out
