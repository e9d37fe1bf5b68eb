"""The traced benchmark (bench/spans.py) attributes time by wrapping public
isinglab names.  This guards the names it reads for the support-pattern
engines, so a rename fails here instead of in `bench/run.py --trace 1`."""

import importlib.util
import os
from collections import defaultdict

from isinglab.doubled import DoubleSupportMeasure
from isinglab.folding import FoldedCurrentMeasure
from isinglab.gauge import PlaquetteComplex
from isinglab.graphs import Couplings, Graph, _build_reflection
from isinglab import backbone, cli, currents, doubled, fk, gauge, spins

SPANS_PY = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "spans.py")

ENGINE_SPANS = ("fk.fk_measure_expectation",
                "doubled.DoubleSupportMeasure.expectations",
                "folding.FoldedCurrentMeasure.expectations")
SUPPORTVIEW = "currents.SupportView.__init__"
SPIN_SPANS = ("spins.partition_function", "spins.expectation")
ORACLE_SPAN = "gauge.gauge_oracle_partition"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_sees_support_engines(capsys):
    spans = _load_spans()
    g = Graph(3, [(0, 1), (1, 2)])
    c = Couplings(g, 1.0, 0.5)
    refl = _build_reflection(g, c, {0: 2, 1: 1, 2: 0})
    event = {"c": lambda labels: labels.connected(0, 2)}
    rec = spans.Recorder()
    rec.install()
    try:
        fk.fk_measure_expectation(g, c, event)
        DoubleSupportMeasure(g, c, list(g.vertices), (), ()).expectations(
            event)
        FoldedCurrentMeasure(refl).expectations(event)
        doubled.verify_switching(g, c, {0, 1}, {1, 2}, {0, 2})
        cli.cli_dispatch(["sample", "currents", "--lattice", "box:d=2,L=2",
                          "--beta", "0.5", "--sites", "0,3", "--seed", "1"])
    finally:
        rec.uninstall()
    by_id = {r[0]: r for r in rec.records()}
    names = {r[1] for r in by_id.values()}
    assert set(ENGINE_SPANS) | {SUPPORTVIEW} <= names
    assert spans.SUPPORTVIEW == SUPPORTVIEW

    def ancestors(r):
        out = []
        while r[2] is not None:
            r = by_id[r[2]]
            out.append(r[1])
        return out

    # the kernel engines build no SupportView: the switching sums run on
    # the double support measure, and the one build left is the current
    # sampler's check in `sample currents`
    chains = [ancestors(r) for r in by_id.values() if r[1] == SUPPORTVIEW]
    assert chains
    for chain in chains:
        assert chain[-1] == "cli.cli_dispatch"
        assert not {n for n in chain if n.startswith("doubled.")}
        assert not set(ENGINE_SPANS) & set(chain)
    switching = [r for r in by_id.values()
                 if r[1] == "doubled.verify_switching"]
    assert len(switching) == 1
    under = {r[1] for r in by_id.values()
             if switching[0][1] in ancestors(r)}
    assert "doubled.DoubleSupportMeasure.__init__" in under
    assert SUPPORTVIEW not in under
    # uninstall put the originals back
    assert not hasattr(fk.fk_measure_expectation, "__wrapped__")


def test_recorder_sees_spin_oracle():
    spans = _load_spans()
    g = Graph(3, [(0, 1), (1, 2)])
    c = Couplings(g, 1.0, 0.5)
    rec = spans.Recorder()
    rec.install()
    try:
        spins.partition_function(g, c)
        for A in ([0, 2], [0, 2], [0], [2]):
            spins.expectation(g, c, A)
        # a spins.moments call is not hooked
        spins.moments(g, c, [[0, 2], [0], [2]])
    finally:
        rec.uninstall()
    names = {r[1] for r in rec.records()}
    assert set(SPIN_SPANS) <= names
    # one instance, five hooked calls: four repeats
    assert rec.work["spins.calls"] == 5
    assert rec.work["spins.repeats"] == 4
    assert not hasattr(spins.expectation, "__wrapped__")


def test_recorder_sees_gauge_oracle():
    spans = _load_spans()
    cx = PlaquetteComplex(2, (1, 2))   # 7 edges
    rec = spans.Recorder()
    rec.install()
    try:
        gauge.gauge_oracle_partition(cx, 0.5)
        gauge.gauge_oracle_partition(cx, 0.5, edge_signs=0b11)
    finally:
        rec.uninstall()
    assert ORACLE_SPAN in {r[1] for r in rec.records()}
    # the hook reads the complex by its parameter name: 2^7 fields per call
    assert rec.work["gauge.fields"] == 2 * 2.0 ** cx.n_edges
    assert not hasattr(gauge.gauge_oracle_partition, "__wrapped__")


def test_array_events_keep_engine_spans_and_work():
    # events are read off numpy labels, so no SupportView is built; the
    # engine spans still fire and the nominal work still grows by 2^E per
    # call, which keeps the *_per_s metrics comparable
    spans = _load_spans()
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c = Couplings(g, 1.0, 0.5)
    path = Graph(3, [(0, 1), (1, 2)])
    refl = _build_reflection(path, Couplings(path, 1.0, 0.5),
                             {0: 2, 1: 1, 2: 0})
    event = {"c": fk.monotone_event("connect", 0, 2)}
    rec = spans.Recorder()
    rec.install()
    try:
        for _ in range(2):
            fk.fk_measure_expectation(g, c, event)
            DoubleSupportMeasure(g, c, list(g.vertices), (), ()).expectations(
                event)
            FoldedCurrentMeasure(refl).expectations(event)
    finally:
        rec.uninstall()
    names = {r[1] for r in rec.records()}
    assert set(ENGINE_SPANS) <= names
    assert SUPPORTVIEW not in names
    assert rec.work["fk.subsets"] == 2 * 2.0 ** g.n_edges
    assert rec.work["doubled.patterns"] == 2 * 2.0 ** g.n_edges
    assert rec.work["folding.patterns"] == 2 * 2.0 ** (len(refl.e0)
                                                        + len(refl.e1))


def test_recorder_sees_current_engines():
    # the chunk enumerator is private, so its time stays inside the
    # current_sum and backbone_grouping spans that the trace reads
    spans = _load_spans()
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    c = Couplings(g, [1.0, -0.5, 0.8, 1.2, 0.7], 0.5)
    rec = spans.Recorder()
    rec.install()
    try:
        currents.correlation_via_currents(g, c, {0, 2})
        states = rec.work["currents.states"]
        groups = backbone.backbone_grouping(g, c, {1, 3})
    finally:
        rec.uninstall()
    names = {r[1] for r in rec.records()}
    assert {"currents.current_sum", "backbone.backbone_grouping"} <= names
    assert not {n for n in names if n.split(".")[-1].startswith("_")}
    # two sums for the correlation, one for the grouping's Z
    assert states == 2 * 3.0 ** g.n_edges
    assert rec.work["currents.calls"] == 3
    assert rec.work["currents.states"] == 3 * 3.0 ** g.n_edges
    assert rec.work["backbone.groups"] == len(groups) > 0
    assert not hasattr(currents.current_sum, "__wrapped__")


def test_duality_span_and_independence(monkeypatch):
    # the chain leg stays inside the lgm_partition span that gauge.chain_s
    # reads; the dual leg is the sweep engine, which the recorder does not
    # wrap, and the spin oracle is not called at all
    spans = _load_spans()
    cx = PlaquetteComplex(3, (1, 1, 2))
    rec = spans.Recorder()
    rec.install()
    try:
        lhs, rhs, diff = gauge.verify_duality(cx, 0.45)
    finally:
        rec.uninstall()
    names = {r[1] for r in rec.records()}
    assert "gauge.lgm_partition" in names
    assert rec.work["spins.calls"] == 0
    assert not {n for n in names if "sweep" in n
                or any(part.startswith("_") for part in n.split("."))}
    metrics = spans.layer_metrics(rec, 1, defaultdict(float))
    assert metrics["gauge.chain_s"][0] > 0
    assert metrics["spins.calls"][0] == 0
    assert diff <= 1e-10 * abs(lhs)

    def boom(*args, **kwargs):
        raise AssertionError("the duality used the spin oracle")

    monkeypatch.setattr(spins, "partition_function", boom)
    monkeypatch.setattr(spins, "expectation", boom)
    assert gauge.verify_duality(cx, 0.45) == (lhs, rhs, diff)
