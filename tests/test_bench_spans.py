"""The traced benchmark (bench/spans.py) attributes time by wrapping public
isinglab names.  This guards the names it reads for the support-pattern
engines, so a rename fails here instead of in `bench/run.py --trace 1`."""

import importlib.util
import os

from isinglab.doubled import DoubleSupportMeasure
from isinglab.folding import FoldedCurrentMeasure
from isinglab.graphs import Couplings, Graph, _build_reflection
from isinglab import fk

SPANS_PY = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "spans.py")

ENGINE_SPANS = ("fk.fk_measure_expectation",
                "doubled.DoubleSupportMeasure.expectations",
                "folding.FoldedCurrentMeasure.expectations")
SUPPORTVIEW = "currents.SupportView.__init__"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_sees_support_engines():
    spans = _load_spans()
    g = Graph(3, [(0, 1), (1, 2)])
    c = Couplings(g, 1.0, 0.5)
    refl = _build_reflection(g, c, {0: 2, 1: 1, 2: 0})
    event = {"c": lambda sv: 1.0 if sv.connected(0, 2) else 0.0}
    rec = spans.Recorder()
    rec.install()
    try:
        fk.fk_measure_expectation(g, c, event)
        DoubleSupportMeasure(g, c, list(g.vertices), (), ()).expectations(
            event)
        FoldedCurrentMeasure(refl).expectations(event)
    finally:
        rec.uninstall()
    by_id = {r[0]: r for r in rec.records()}
    names = {r[1] for r in by_id.values()}
    assert set(ENGINE_SPANS) | {SUPPORTVIEW} <= names
    assert spans.SUPPORTVIEW == SUPPORTVIEW
    # every SupportView build is charged to the engine that enumerates it
    parents = {by_id[r[2]][1] for r in by_id.values() if r[1] == SUPPORTVIEW}
    assert parents == set(ENGINE_SPANS)
    # uninstall put the originals back
    assert not hasattr(fk.fk_measure_expectation, "__wrapped__")
