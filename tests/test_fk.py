import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_instance
from isinglab.graphs import BoundarySpec, BoxGraph, Couplings, Graph
from isinglab import fk, spins


def test_single_edge_connection():
    g = Graph(2, [(0, 1)])
    c = Couplings(g, 1.0, 0.9)
    assert fk.connection_probability(g, c, 0, 1) == pytest.approx(
        math.tanh(0.9), abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_connection_equals_correlation(seed):
    rng = np.random.default_rng(seed)
    g, c = random_instance(rng, max_vertices=5, max_edges=8)
    x, y = rng.choice(g.n, 2, replace=False).tolist()
    assert fk.connection_probability(g, c, x, y) == pytest.approx(
        spins.expectation(g, c, [x, y]), abs=1e-10)


def test_connection_rejects_antiferromagnetic():
    # the |J| answer here would be +0.2136 where <s_0 s_2> = -0.2136
    g = Graph(3, [(0, 1), (1, 2)])
    c = Couplings(g, [-1.0, 1.0], 0.5)
    assert spins.expectation(g, c, [0, 2]) == pytest.approx(
        -math.tanh(0.5) ** 2, abs=1e-12)
    with pytest.raises(ValueError):
        fk.connection_probability(g, c, 0, 2)


def test_fk_rcr_bridge(triangle):
    c = Couplings(triangle, [0.4, 0.8, 0.6], 1.0)
    fkp, rcr = fk.fk_rcr_bridge(triangle, c, 0, 2)
    assert fkp * fkp == pytest.approx(rcr, abs=1e-12)
    assert fkp == pytest.approx(spins.expectation(triangle, c, [0, 2]),
                                abs=1e-12)


def test_bridge_rejects_frustration(triangle):
    c = Couplings(triangle, [1.0, -1.0, 1.0], 0.5)
    with pytest.raises(ValueError):
        fk.fk_rcr_bridge(triangle, c, 0, 1)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_frustration_adjusted_fuzz(seed):
    rng = np.random.default_rng(seed)
    g, c = random_instance(rng, max_vertices=5, max_edges=7, ferro=False)
    u, v = rng.choice(g.n, 2, replace=False).tolist()
    rep = fk.fk_frustration_adjusted(g, c, u, v)
    assert rep["z_match"] <= 1e-10
    assert rep["corr_match"] <= 1e-10


def test_boundary_report():
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 0.5)
    bdry = box.boundary_vertices()
    desig = {v: (BoundarySpec.MINUS if box.coords[v][0] == 0
                 else BoundarySpec.PLUS) for v in bdry}
    bspec = BoundarySpec(desig)
    x = sorted(bspec.interior(box))[0]
    rep = fk.fk_boundary_report(box, c, bspec, x)
    assert rep["ratio_fk"] == pytest.approx(rep["ratio_spin"], abs=1e-10)
    assert rep["mag_pm_fk"] == pytest.approx(rep["mag_pm_spin"], abs=1e-10)
    # the single-cluster wired formula needs no square
    assert rep["mag_plus_fk"] == pytest.approx(rep["mag_plus_spin"],
                                               abs=1e-10)


def test_monotone_event_library(triangle):
    c = Couplings(triangle, 1.0, 0.6)
    out = fk.fk_measure_expectation(
        triangle, c,
        {"n": fk.monotone_event("open_count"),
         "a": fk.monotone_event("all_open", [0, 1])})
    assert 0.0 < out["a"] < 1.0
    assert 0.0 < out["n"] < 3.0
    with pytest.raises(ValueError):
        fk.monotone_event("parity")


@pytest.mark.parametrize("spec_f,spec_g", [
    (("connect", 0, 1), ("connect", 1, 2)),
    (("open_count",), ("connect", 0, 2)),
    (("all_open", [0]), ("all_open", [1, 2])),
])
def test_fkg_positive_association(triangle, spec_f, spec_g):
    c = Couplings(triangle, [0.7, 0.4, 0.9], 1.0)
    cov, ok = fk.fkg_spot_check(triangle, c, spec_f, spec_g)
    assert ok


def test_wired_counting():
    # wiring the whole boundary can only help connections to it
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 0.4)
    bdry = box.boundary_vertices()
    x = [v for v in box.vertices if v not in bdry][0]
    ev = {"c": lambda labels: labels.connects_sets([x], bdry)}
    free = fk.fk_measure_expectation(box, c, ev)["c"]
    wired = fk.fk_measure_expectation(box, c, ev, boundary=bdry)["c"]
    assert wired >= free - 1e-12
