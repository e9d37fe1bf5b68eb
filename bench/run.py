"""Certification benchmark for isinglab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; isinglab is imported from ./src.
One process per run, closed loop: the workload's batteries of
certifications (see battery.py) run one after another, each on fresh
instances drawn from --seed, until the next battery would end past
--seconds.  Every certification is rechecked here with checker.py.

--trace 0 prints the end-to-end metrics: wall_s (median battery wall time),
setup_s (median over SETUP_PROBES fresh processes of the time from process
start to the first timed certification) and peak_rss_mb (ru_maxrss of this
process).  --trace 1 alternates untraced and traced batteries and prints the
per-layer metrics of the traced ones (spans.py); the spans are written to
.bench_out/.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; `failed / attempted` is the
failure fraction, listed certification by certification above it.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from checker import check
from spans import Recorder, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7
MAX_BATTERIES = 16
PROBE_TIMEOUT_S = 120


class BenchError(RuntimeError):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=26.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Put ./src first on the path and check isinglab really comes from it."""
    init = os.path.join(SRC, "isinglab", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError("no isinglab sources at %s" % init)
    sys.path.insert(0, SRC)
    import isinglab
    if os.path.realpath(isinglab.__file__) != os.path.realpath(init):
        raise BenchError("isinglab was imported from %s, not %s"
                         % (isinglab.__file__, init))


def _setup(args):
    """Everything before the first timed certification: import isinglab,
    generate instances, build graphs, reflections and plaquette complexes."""
    _import_program()
    import battery
    if args.workload not in battery.WORKLOADS:
        raise BenchError("unknown workload %r (choose from %s)"
                         % (args.workload, ", ".join(battery.WORKLOADS)))
    os.makedirs(OUT_DIR, exist_ok=True)
    return [battery.build(args.workload, args.seed, i, OUT_DIR)
            for i in range(MAX_BATTERIES)]


def _setup_seconds(args):
    """Median over fresh processes of process start to end of set-up.

    perf_counter reads the system-wide monotonic clock, so the parent's
    reading before the spawn and the child's after set-up are comparable.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError("set-up probe failed: %s" % proc.stderr.strip())
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or -1 if unknown."""
    import numpy
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return -1


# ---------------------------------------------------------------------------
# running batteries


@dataclass
class BatteryResult:
    wall: float
    attempted: int = 0
    failures: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    max_abs_diff: float = 0.0
    max_rel_diff: float = 0.0


def run_battery(certs, rec=None):
    """Run every certification of a battery; with a Recorder, inside spans."""
    res = BatteryResult(wall=0.0)
    t0 = perf_counter()
    with rec.span("bench.battery") if rec else nullcontext():
        for cert in certs:
            with rec.span("bench.cert") if rec else nullcontext():
                try:
                    sides = cert.run()
                except Exception as exc:  # a raising call is a failed cert
                    res.attempted += 1
                    res.failures.append("%s: raised %s: %s; instance %s" % (
                        cert.name, type(exc).__name__, exc, cert.instance))
                    continue
                for side in sides:
                    ok, diff = check(side)
                    res.attempted += 1
                    if not ok:
                        res.failures.append(
                            "%s [%s] %s: lhs=%.17g rhs=%.17g stderr=%.3g;"
                            " instance %s" % (
                                cert.name, side.label, side.kind, side.lhs,
                                side.rhs, side.stderr, cert.instance))
                    elif side.kind == "abs":
                        res.max_abs_diff = max(res.max_abs_diff, diff)
                    elif side.kind == "rel":
                        res.max_rel_diff = max(res.max_rel_diff, diff)
                if cert.counter:
                    res.counts[cert.counter] += len(sides)
    res.wall = perf_counter() - t0
    return res


def _measure(batteries, seconds, trace):
    """Closed loop over batteries until the next unit would end past
    `seconds`; a unit is one battery, or with tracing an untraced/traced
    pair.  Returns (untraced results, traced results, recorder)."""
    plain, traced = [], []
    rec = Recorder() if trace else None
    start = perf_counter()
    i = 0
    while i + (2 if trace else 1) <= len(batteries):
        if plain:
            unit = statistics.median(r.wall for r in plain)
            if traced:
                unit += statistics.median(r.wall for r in traced)
            if perf_counter() - start + unit > seconds:
                break
        plain.append(run_battery(batteries[i]))
        i += 1
        if trace:
            rec.install()
            try:
                traced.append(run_battery(batteries[i], rec))
            finally:
                rec.uninstall()
            i += 1
    return plain, traced, rec


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(plain, setup_s):
    walls = [r.wall for r in plain]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("wall_s       %.4f s   median of %d batteries: %s" % (
        statistics.median(walls), len(walls),
        " ".join("%.3f" % w for w in walls)))
    print("setup_s      %.4f s   median of %d fresh processes" % (
        setup_s, SETUP_PROBES))
    print("peak_rss_mb  %.1f MB" % rss_mb)
    return {"wall_s": _metric(statistics.median(walls), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(rss_mb, "MB")}


def _per_layer(args, plain, traced, rec):
    counts = Counter()
    for r in traced:
        counts.update(r.counts)
    m = layer_metrics(rec, len(traced), counts)
    traced_wall = statistics.median(r.wall for r in traced)
    plain_wall = statistics.median(r.wall for r in plain)
    n = len(traced)
    m["bench.certs"] = (sum(r.attempted for r in traced) / n, "count")
    m["bench.max_abs_diff"] = (max(r.max_abs_diff for r in traced), "abs")
    m["bench.max_rel_diff"] = (max(r.max_rel_diff for r in traced), "ratio")
    m["bench.traced_wall_s"] = (sum(r.wall for r in traced) / n, "s")
    m["bench.trace_overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    m["bench.blas_threads"] = (_blas_threads(), "count")
    self_sum = sum(v for k, (v, u) in m.items()
                   if k.endswith(".self_s") or k == "bench.unattributed_s")
    print("traced batteries %d: layer self times + unattributed = %.4f s,"
          " traced wall %.4f s" % (n, self_sum, m["bench.traced_wall_s"][0]))
    for k, (v, u) in m.items():
        print("%-36s %.6g %s" % (k, v, u))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-seed%d.tsv" % (args.workload,
                                                          args.seed))
    rec.write(path)
    print("spans written to %s" % os.path.relpath(path, ROOT))
    return {k: _metric(v, u) for k, (v, u) in m.items()}


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if args.setup_probe:
            _setup(args)
            print("%.9f" % perf_counter())
            return 0
        batteries = _setup(args)
        setup_s = None if args.trace else _setup_seconds(args)
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    plain, traced, rec = _measure(batteries, args.seconds, args.trace)
    runs = plain + traced
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    print("workload %s seed %d: %d batteries, %d certifications, "
          "BLAS threads %d" % (args.workload, args.seed, len(runs),
                               attempted, _blas_threads()))
    for f in failures:
        print("FAILED %s" % f)
    print("fail_frac    %.6g     %d of %d certifications" % (
        len(failures) / attempted, len(failures), attempted))
    if args.trace:
        metrics = _per_layer(args, plain, traced, rec)
    else:
        metrics = _end_to_end(plain, setup_s)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
