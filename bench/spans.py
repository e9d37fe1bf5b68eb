"""Span recorder installed from outside around isinglab's public entry points.

`install` wraps every public function of the layer modules, the listed class
methods, and every name bound to one of them in another isinglab module
(`from .x import y`).  Each call becomes a span with a name, start, end and
parent.  Repeated calls along the same call path under one certification are
merged into one span record carrying a call count and the summed duration,
which keeps the millions of per-pattern calls (SupportView builds) in
bounded memory while leaving every self time exact:

    self time = a span's duration minus the time its child spans cover.

Spans stay in memory and are written out by `Recorder.write`.  Counts of
nominal work (states, patterns, sweeps) and the spin-instance sharing
counter are taken at the same boundaries from the call arguments.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("spins", "currents", "doubled", "fk", "folding", "backbone",
          "gauge", "inequalities", "samplers", "cli")

CLASS_METHODS = {
    "currents": {"SupportView": ("__init__",)},
    "doubled": {"DoubleSupportMeasure": ("__init__", "expectations")},
    "folding": {"FoldedCurrentMeasure": ("__init__", "expectations")},
}

SUPPORTVIEW = "currents.SupportView.__init__"


class Span:
    """One span record; `count` calls merged along the same call path."""
    __slots__ = ("id", "name", "parent", "count", "total", "start", "end",
                 "children")

    def __init__(self, span_id, name, parent):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.count = 0
        self.total = 0.0
        self.start = None
        self.end = None
        self.children = {}

    def record(self):
        return (self.id, self.name,
                None if self.parent is None else self.parent.id,
                self.count, self.total, self.start, self.end)


def self_times(records):
    """id -> self time for records (id, name, parent_id, count, total, start,
    end): each total minus the totals of its direct children."""
    out = {r[0]: r[4] for r in records}
    for r in records:
        if r[2] is not None:
            out[r[2]] -= r[4]
    return out


# ---------------------------------------------------------------------------
# nominal work and sharing, observed from call arguments


def _instance_key(graph, couplings, fields, boundary):
    f = None
    if fields is not None and not fields.is_zero():
        f = (tuple(fields.h), tuple(fields.g))
    b = None if boundary is None else tuple(sorted(
        boundary.designation.items()))
    return (graph.n, tuple(graph.edges), tuple(couplings.J), couplings.beta,
            f, b)


def _spins(rec, a, result):
    boundary = a.get("boundary")
    clamped = boundary.clamped() if boundary is not None else {}
    rec.work["spins.calls"] += 1
    rec.work["spins.configs"] += 2.0 ** (a["graph"].n - len(clamped))
    key = _instance_key(a["graph"], a["couplings"], a.get("fields"), boundary)
    if key in rec.instances:
        rec.work["spins.repeats"] += 1
    else:
        rec.instances.add(key)


def _current_sum(rec, a, result):
    rec.work["currents.calls"] += 1
    rec.work["currents.states"] += 3.0 ** a["graph"].n_edges


def _fk(rec, a, result):
    rec.work["fk.calls"] += 1
    rec.work["fk.subsets"] += 2.0 ** a["graph"].n_edges


def _double_patterns(rec, a, result):
    rec.work["doubled.patterns"] += 2.0 ** a["self"].graph.n_edges


def _double_direct(rec, a, result):
    graph, edges2 = a["graph"], a.get("edges2")
    shared = graph.n_edges if edges2 is None else len(set(edges2))
    rec.work["doubled.direct_classes"] += (5.0 ** shared
                                           * 3.0 ** (graph.n_edges - shared))


def _folded_build(rec, a, result):
    r = a["reflection"]
    rec.folded_patterns[id(a["self"])] = 2.0 ** (len(r.e0) + len(r.e1))


def _folded_patterns(rec, a, result):
    rec.work["folding.patterns"] += rec.folded_patterns.get(id(a["self"]), 0)


def _gauge_oracle(rec, a, result):
    rec.work["gauge.fields"] += 2.0 ** a["cx"].n_edges


def _grouping(rec, a, result):
    rec.work["backbone.groups"] += len(result)


def _chain(kind):
    def hook(rec, a, result):
        rec.work["samplers.%s_sweeps" % kind] += (a["spec"].burn_in
                                                  + a["spec"].sweeps)
    return hook


def _rejection(rec, a, result):
    draws, acceptance = result
    rec.work["samplers.rejection_accepted"] += len(draws)
    rec.work["samplers.rejection_proposals"] += len(draws) / acceptance


HOOKS = {
    "spins.partition_function": _spins,
    "spins.expectation": _spins,
    "currents.current_sum": _current_sum,
    "fk.fk_measure_expectation": _fk,
    "doubled.DoubleSupportMeasure.expectations": _double_patterns,
    "doubled.double_sum_direct": _double_direct,
    "folding.FoldedCurrentMeasure.__init__": _folded_build,
    "folding.FoldedCurrentMeasure.expectations": _folded_patterns,
    "gauge.gauge_oracle_partition": _gauge_oracle,
    "backbone.backbone_grouping": _grouping,
    "samplers.metropolis_spin": _chain("metropolis"),
    "samplers.swendsen_wang": _chain("sw"),
    "samplers.current_rejection_sampler": _rejection,
}


# ---------------------------------------------------------------------------
# recorder


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.work = defaultdict(float)
        self.instances = set()
        self.folded_patterns = {}
        self._undo = []

    def _new(self, name, parent):
        span = Span(len(self.spans), name, parent)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name):
        """A span of the benchmark's own that never merges with another."""
        span = self._new(name, self.stack[-1] if self.stack else None)
        self.stack.append(span)
        t0 = perf_counter()
        try:
            yield span
        finally:
            t1 = perf_counter()
            self.stack.pop()
            span.count, span.total, span.start, span.end = 1, t1 - t0, t0, t1

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = rec.stack[-1] if rec.stack else None
            span = parent.children.get(name) if parent is not None else None
            if span is None:
                span = rec._new(name, parent)
                if parent is not None:
                    parent.children[name] = span
            rec.stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec.stack.pop()
                span.count += 1
                span.total += t1 - t0
                if span.start is None:
                    span.start = t0
                span.end = t1
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(rec, bound.arguments, result)
            return result

        return traced

    def install(self):
        """Wrap the entry points; `uninstall` restores the originals."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module("isinglab." + layer)
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapped[id(obj)] = self._wrap(layer + "." + attr, obj)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(
                        "%s.%s.%s" % (layer, cls_name, meth), orig))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "isinglab" and not mod_name.startswith(
                    "isinglab."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def records(self):
        return [s.record() for s in self.spans]

    def write(self, path):
        """Write every span as a tab-separated line, times relative to the
        first span's start."""
        records = self.records()
        starts = [r[5] for r in records if r[5] is not None]
        t0 = min(starts) if starts else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tcount\ttotal_s\tstart_s\tend_s\n")
            for sid, name, parent, count, total, start, end in records:
                fh.write("%d\t%s\t%s\t%d\t%.9f\t%.9f\t%.9f\n" % (
                    sid, "" if parent is None else parent, name, count, total,
                    (start or t0) - t0, (end or t0) - t0))


# ---------------------------------------------------------------------------
# per-layer metrics


def _inclusive_outermost(spans, names):
    """Summed duration of spans in `names` with no ancestor in `names`."""
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p.name not in names:
            p = p.parent
        if p is None:
            total += s.total
    return total


def layer_metrics(rec, n_batteries, counts):
    """Per-layer metrics per traced battery.  `counts` holds the benchmark's
    own per-battery tallies summed over the traced batteries."""
    records = rec.records()
    selfs = self_times(records)
    layer_self = defaultdict(float)
    name_self = defaultdict(float)
    name_count = defaultdict(int)
    bench_self = 0.0
    for sid, name, _, count, _, _, _ in records:
        layer = name.split(".", 1)[0]
        if layer == "bench":
            bench_self += selfs[sid]
            continue
        layer_self[layer] += selfs[sid]
        name_self[name] += selfs[sid]
        name_count[name] += count
    w = rec.work
    nb = float(n_batteries)

    def per(x):
        return x / nb

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    def names(*ns):
        return sum(name_self[n] for n in ns)

    spins_enum = names("spins.partition_function", "spins.expectation")
    m = {
        "spins.calls": (per(w["spins.calls"]), "count"),
        "spins.self_s": (per(layer_self["spins"]), "s"),
        "spins.configs_per_s": (rate(w["spins.configs"], spins_enum), "1/s"),
        "spins.repeat_instance_frac": (
            w["spins.repeats"] / w["spins.calls"] if w["spins.calls"] else 0.0,
            "ratio"),
        "currents.calls": (per(w["currents.calls"]), "count"),
        "currents.self_s": (per(layer_self["currents"]), "s"),
        "currents.states_per_s": (
            rate(w["currents.states"], names("currents.current_sum")), "1/s"),
        "currents.supportview_builds": (per(name_count[SUPPORTVIEW]), "count"),
        "currents.supportview_s": (per(name_self[SUPPORTVIEW]), "s"),
        "fk.calls": (per(w["fk.calls"]), "count"),
        "fk.self_s": (per(layer_self["fk"]), "s"),
        "fk.subsets_per_s": (
            rate(w["fk.subsets"], names("fk.fk_measure_expectation")), "1/s"),
        "doubled.self_s": (per(layer_self["doubled"]), "s"),
        "doubled.build_s": (
            per(names("doubled.DoubleSupportMeasure.__init__")), "s"),
        "doubled.events_s": (
            per(names("doubled.DoubleSupportMeasure.expectations")), "s"),
        "doubled.patterns_per_s": (rate(
            w["doubled.patterns"],
            names("doubled.DoubleSupportMeasure.expectations")), "1/s"),
        "doubled.direct_s": (per(names("doubled.double_sum_direct")), "s"),
        "doubled.direct_classes_per_s": (rate(
            w["doubled.direct_classes"], names("doubled.double_sum_direct")),
            "1/s"),
        "folding.self_s": (per(layer_self["folding"]), "s"),
        "folding.build_s": (
            per(names("folding.FoldedCurrentMeasure.__init__")), "s"),
        "folding.events_s": (
            per(names("folding.FoldedCurrentMeasure.expectations")), "s"),
        "folding.patterns_per_s": (rate(
            w["folding.patterns"],
            names("folding.FoldedCurrentMeasure.expectations")), "1/s"),
        "backbone.self_s": (per(layer_self["backbone"]), "s"),
        "backbone.grouping_s": (per(names("backbone.backbone_grouping")), "s"),
        "backbone.rho_s": (per(_inclusive_outermost(
            rec.spans, {"backbone.rho_weight", "backbone.zeta_weight"})), "s"),
        "backbone.groups": (per(w["backbone.groups"]), "count"),
        "gauge.self_s": (per(layer_self["gauge"]), "s"),
        "gauge.oracle_s": (per(names("gauge.gauge_oracle_partition")), "s"),
        "gauge.fields_per_s": (rate(
            w["gauge.fields"], names("gauge.gauge_oracle_partition")), "1/s"),
        "gauge.chain_s": (
            per(names("gauge.lgm_partition", "gauge.wilson_expectation")),
            "s"),
        "inequalities.self_s": (per(layer_self["inequalities"]), "s"),
        "inequalities.reports": (per(counts["inequalities.reports"]), "count"),
        "samplers.self_s": (per(layer_self["samplers"]), "s"),
        "samplers.metropolis_sweeps_per_s": (rate(
            w["samplers.metropolis_sweeps"],
            names("samplers.metropolis_spin")), "1/s"),
        "samplers.sw_sweeps_per_s": (rate(
            w["samplers.sw_sweeps"], names("samplers.swendsen_wang")), "1/s"),
        "samplers.rejection_proposals_per_s": (rate(
            w["samplers.rejection_proposals"],
            names("samplers.current_rejection_sampler")), "1/s"),
        "samplers.rejection_accept_ratio": (
            w["samplers.rejection_accepted"] / w["samplers.rejection_proposals"]
            if w["samplers.rejection_proposals"] else 0.0, "ratio"),
        "cli.self_s": (per(layer_self["cli"]), "s"),
        "cli.rows": (per(counts["cli.rows"]), "count"),
        "bench.unattributed_s": (per(bench_self), "s"),
    }
    return m
