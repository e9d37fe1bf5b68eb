"""Command-line harness for the exact engines, verifiers and samplers.

Every run emits CSV rows `instance_id, quantity, lhs, rhs, abs_diff, slack,
pass, runtime_ms` (17 significant digits, '.' decimal) with the run
configuration echoed in a leading comment line, so a file can be re-created
byte-for-byte (modulo runtime_ms) from its own header.  Exit status: 0 when
all checks pass, 1 on a verification failure, 2 on usage or size errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from .graphs import (BoxGraph, FieldSpec, parse_graph_file,
                     parse_lattice_spec, reflection_for_axis)
from .spins import SizeError
from . import (backbone, currents, doubled, fk, folding, gauge,
               inequalities as iq, samplers, spins)

FMT = "%.17g"


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# row plumbing


class Row:
    def __init__(self, instance_id, quantity, lhs, rhs, kind="eq", tol=1e-10):
        self.instance_id = instance_id
        self.quantity = quantity
        self.lhs = float(lhs)
        self.rhs = float(rhs)
        self.kind = kind
        self.tol = tol
        self.runtime_ms = 0.0

    @property
    def abs_diff(self):
        return abs(self.lhs - self.rhs)

    @property
    def slack(self):
        return self.rhs - self.lhs

    @property
    def ok(self):
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            return False
        if self.kind == "eq":
            return self.abs_diff <= self.tol
        if self.kind == "ineq":
            return self.slack >= -self.tol
        return True     # finite plain values always pass

    def csv(self):
        return ",".join([
            self.instance_id, self.quantity, FMT % self.lhs, FMT % self.rhs,
            FMT % self.abs_diff, FMT % self.slack, str(self.ok).lower(),
            "%.3f" % self.runtime_ms])


HEADER = "instance_id,quantity,lhs,rhs,abs_diff,slack,pass,runtime_ms"


def _emit(rows, config_line, out_path):
    lines = ["# run: " + config_line, HEADER]
    lines += [r.csv() for r in sorted(rows, key=lambda r: (r.instance_id,
                                                           r.quantity))]
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r.ok for r in rows) else 1


# ---------------------------------------------------------------------------
# one command: its instance, loaded once, and its beta loop


class Verb(NamedTuple):
    """What a verb reads, and `rows(run)`, its rows at `run.beta`: an
    `instance` "none", "graph" (--graph or --lattice), "box" or "3d box"
    (--lattice); `fields` or not; a `boundary` "none", "any" or "own pm"
    (only bc=pm, the box's own Dobrushin split); its other `flags`."""
    rows: Callable
    instance: str = "graph"
    fields: bool = False
    boundary: str = "none"
    flags: str = ""

    @property
    def reads(self):
        """Every flag the verb's parser takes."""
        instance = "--graph --lattice " if self.instance != "none" else ""
        return (instance + "--beta --beta-sweep --out " + self.flags).split()


def _betas(args):
    if args.beta_sweep:
        try:
            a, b, step = (float(x) for x in args.beta_sweep.split(":"))
        except ValueError:
            raise UsageError("--beta-sweep wants a:b:step")
        if not all(map(math.isfinite, (a, b, step))):
            raise UsageError("--beta-sweep wants finite values")
        if step <= 0 or b < a:
            raise UsageError("--beta-sweep wants a <= b and step > 0")
        out = []
        v = a
        while v <= b + 1e-12:
            out.append(round(v, 12))
            v += step
        return out
    if not math.isfinite(args.beta):
        raise UsageError("--beta wants a finite value")
    return [args.beta]


class _Run:
    """One verb command: its flags (read as attributes, `r.tol`), the
    instance loaded once, and the beta the loop is at, with `iid` and `c`,
    the couplings at that beta."""
    coup = None

    def __init__(self, args):
        """Load the instance, refused where the verb would ignore part of
        it: a zero-field or free row would answer another question."""
        self.args = args
        self.verb = verb = VERBS[args.command][args.what]
        if "--seed" in verb.flags:      # one stream across the betas
            self.rng = np.random.default_rng(args.seed)
        if verb.instance == "none":
            return
        name = "%s %s" % (args.command, args.what)
        if args.graph and args.lattice:
            raise UsageError("give one of --graph or --lattice, not both")
        if args.graph:
            try:
                with open(args.graph) as fh:
                    text = fh.read()
            except OSError as exc:
                raise UsageError("cannot read graph file: %s" % exc)
            graph, coup, fields, bspec = parse_graph_file(text)
        elif args.lattice:
            graph, coup, bspec = parse_lattice_spec(args.lattice)
            fields = FieldSpec(graph.n)
        else:
            raise UsageError("one of --graph or --lattice is required")
        if not (verb.fields or fields.is_zero()):
            raise UsageError("%s does not support fields (h=/g= in --graph)"
                             % name)
        if verb.instance != "graph" and not (isinstance(graph, BoxGraph) and (
                verb.instance == "box" or graph.d == 3)):
            raise UsageError("%s needs a %s--lattice box" % (
                args.what, "d=3 " if verb.instance == "3d box" else ""))
        if bspec is not None and (verb.boundary == "none" or (
                verb.boundary == "own pm" and bspec.designation
                != graph.dobrushin_boundary().designation)):
            raise UsageError("%s does not support a boundary%s (bc= in "
                             "--lattice, boundary lines in --graph)" % (
                                 name, "" if verb.boundary == "none" else
                                 " other than its own bc=pm split"))
        self.graph, self.coup = graph, coup
        self.fields, self.bspec = fields, bspec

    def __getattr__(self, flag):
        return getattr(self.args, flag)

    def at(self, beta):
        self.beta, self.iid = beta, "beta=%g" % beta
        if self.coup is not None:
            self.c = self.coup.with_beta(beta * self.coup.beta)
        return self

    def sites(self, need):
        n = self.graph.n
        ids = ([int(s) for s in self.args.sites.split(",")] if self.args.sites
               else list(range(n))[:need] if need > 2 else [0, n - 1][:need])
        if len(ids) < need:
            raise UsageError("need %d site ids (--sites a,b,...)" % need)
        bad = [v for v in ids[:need] if not 0 <= v < n]
        if bad:
            raise UsageError("site id %d is not a vertex (0..%d)"
                             % (bad[0], n - 1))
        return ids[:need]

    def eq(self, quantity, lhs, rhs):
        return Row(self.iid, quantity, lhs, rhs, tol=self.tol)

    def value(self, quantity, v):
        return Row(self.iid, quantity, v, v, kind="value")

    @functools.cached_property
    def cx(self):
        return gauge.PlaquetteComplex(self.graph.d,
                                      [s - 1 for s in self.graph.sides])


def _wilson_tol(mean, n, exact):
    """Distance from the mean of n 0/1 draws to the end of their z = 4
    Wilson score interval on the side of `exact`, so |mean - exact| <= tol
    iff `exact` lies in the interval.  At mean 0 or 1 the interval's end is
    the mean itself, which rounding can leave just inside it, so the
    distance is clamped at 0."""
    z = 4.0
    q = z * z / n
    center = (mean + q / 2.0) / (1.0 + q)
    half = z * math.sqrt(mean * (1.0 - mean) / n + q / (4.0 * n)) / (1.0 + q)
    return max(0.0, center + half - mean if exact >= mean
               else mean - center + half)


# ---------------------------------------------------------------------------
# the verbs: each returns its rows at one beta


def _value(quantity, value):
    """The verb whose one row is the plain value `value(run)`."""
    return lambda r: [r.value(quantity, value(r))]


def _exact_corr(r):
    ids = r.sites(2)
    return [r.value("corr_%d_%d" % tuple(ids), spins.expectation(
        r.graph, r.c, ids, fields=r.fields, boundary=r.bspec))]


def _verify_switching(r):
    V = list(r.graph.vertices)
    rows = []
    for t in range(r.trials):
        A1, A2, B = (frozenset(r.rng.choice(V, 2, replace=False).tolist())
                     for _ in range(3))
        lhs, rhs, _ = doubled.verify_switching(r.graph, r.c, A1, A2, B)
        rows.append(Row("%s/t%d" % (r.iid, t), "switching", lhs, rhs,
                        tol=r.tol))
    return rows


def _verify_xtoy(r):
    if not r.c.is_ferromagnetic:
        raise ValueError("the x-to-y identity needs ferromagnetic couplings")
    x, y = r.sites(2)
    corr = spins.expectation(r.graph, r.c, [x, y])
    p = doubled.double_event_probability(
        r.graph, r.c, frozenset(), frozenset(),
        lambda labels: labels.connected(x, y))
    return [r.eq("corr_sq_vs_double_connect", corr * corr, p)]


def _verify_ursell(r):
    ids = r.sites(4)
    spin = spins.moments(r.graph, r.c, spins.ursell4_sets(*ids))
    u4 = spins.ursell4_value(*spin)
    va, vb = doubled.ursell4_via_currents(r.graph, r.c, *ids, spin)
    return [r.eq("ursell4_formA", u4, va), r.eq("ursell4_formB", u4, vb)]


def _verify_frustration(r):
    x, y = r.sites(2)
    z_ratio, (sj,), (sa,) = spins.ratio_moments(r.graph, r.c, r.c.with_abs(),
                                                [[x, y]])
    ff, corr = doubled.frustration_identities(r.graph, r.c, x, y)
    return [r.eq("z_ratio_ff", z_ratio, ff),
            r.eq("corr_product_ff", sj * sa, corr)]


def _verify_boundary(r):
    bspec = r.bspec
    if bspec is None or not bspec.minus_set:
        raise UsageError("boundary checks need a pm boundary spec")
    interior = sorted(bspec.interior(r.graph))
    x = interior[len(interior) // 2] if interior else None
    ratio, plus, pm = doubled.boundary_identities(r.graph, r.c, bspec, x)
    z_ratio, mpm, mp = spins.ratio_moments(
        r.graph, r.c, r.c, [[x]] if interior else [], bspec, bspec.all_plus())
    rows = [r.eq("z_ratio_boundary", z_ratio, ratio)]
    if interior:
        rows += [r.eq("mag_plus_sq", mp[0] * mp[0], plus),
                 r.eq("mag_pm_times_plus", mpm[0] * mp[0], pm)]
    return rows


def _verify_disorder(r):
    flips = []
    for t in range(r.trials):
        nflip = int(r.rng.integers(0, r.graph.n_edges + 1))
        flips.append(r.rng.choice(r.graph.n_edges, nflip,
                                  replace=False).tolist())
    # one spin family call and one law serve every trial
    plain, *flipped = spins.family(r.graph, [(r.c, None, [])] + [
        (r.c.with_flipped(flip), None, []) for flip in flips])
    laws = doubled.disorder_expectations(r.graph, r.c, flips)
    return [Row("%s/t%d" % (r.iid, t), "disorder_ratio", z / plain[0], law,
                tol=r.tol)
            for t, ((z, _), law) in enumerate(zip(flipped, laws))]


def _reflected_pair(r):    # the mid-plane reflection, two sites of lambda1
    refl = reflection_for_axis(r.graph, r.c, 0, (r.graph.sides[0] - 1) / 2)
    return (refl, *sorted(refl.lambda1)[:2])


def _verify_fold(r):
    lhs, rhs = folding.folded_correlation_identity(*_reflected_pair(r))
    return [r.eq("folded_correlation", lhs, rhs)]


def _verify_dobrushin(r):
    rep = folding.dobrushin_identities(r.graph, r.c)
    return [r.eq("dobrushin_ratio", rep["ratio_spin"], rep["ratio_folded"]),
            r.eq("dobrushin_mag", rep["mag_spin"], rep["mag_folded"])]


def _verify_fkrcr(r):
    x, y = r.sites(2)
    fkp, rcr = fk.fk_rcr_bridge(r.graph, r.c, x, y)
    corr = spins.expectation(r.graph, r.c, [x, y])
    return [r.eq("fk_sq_vs_rcr", fkp * fkp, rcr),
            r.eq("fk_vs_corr", corr, fkp),
            r.eq("rcr_vs_corr_sq", corr * corr, rcr)]


def _duality(r):
    """The gauge_duality row; --tol is scaled by max(1, |lhs|)."""
    lhs, rhs, _ = gauge.verify_duality(r.cx, r.beta)
    return [Row(r.iid, "gauge_duality", lhs, rhs,
                tol=r.tol * max(1.0, abs(lhs)))]


def _verify_pathprops(r):
    rep = backbone.check_path_properties(r.graph, r.c, set(r.sites(2)))
    return [r.eq("backbone_" + key, rep[key], 0.0) for key in (
        "completeness", "rho_vs_grouping", "resummation")] + [
        r.eq("backbone_zeta_bounded", 1.0 if rep["zeta_bounded"] else 0.0,
             1.0)]


def _ineq(suite):
    """The verb whose rows are the reports of `suite(run)`."""
    return lambda r: [Row("%s/%d" % (r.iid, i), rep.ineq_id, rep.lhs,
                          rep.rhs, kind="ineq", tol=r.tol)
                      for i, rep in enumerate(suite(r))]


def _simon_lieb(r):
    x, y = r.sites(2)
    S = [v for v in r.graph.vertices if v not in (x, y)]
    return iq.simon_lieb_suite(r.graph, r.c, x, y, S)


def _dss(r):
    f = r.fields if not r.fields.is_zero() else FieldSpec(
        r.graph.n, h={v: 0.3 for v in r.graph.vertices},
        g={v: 0.2 * (-1) ** v for v in r.graph.vertices})
    return iq.dss_suite(r.graph, r.c, 0, f)


def _tree(r):
    lhs, rhs, _ = backbone.tree_diagram_check(r.graph, r.c, *r.sites(4))
    return [iq.IneqReport("tree_diagram", "", lhs, rhs)]


def _gauge_wilson(r):
    ell = r.loop
    loop = gauge.rectangular_loop(r.cx, (0, 1), (0,) * r.cx.d, (ell, ell))
    w = gauge.wilson_expectation(r.cx, r.beta, loop)
    if r.cx.d == 2:
        return [r.eq("wilson_%dx%d" % (ell, ell), w,
                     math.tanh(r.beta) ** loop.area)]
    return [r.value("wilson_%dx%d" % (ell, ell), w)]


def _gauge_dualbeta(r):
    v = gauge.dual_beta(r.beta)
    print(FMT % v)
    return [r.value("dual_beta", v)]


def _gauge_deconfine(r):
    sides = r.graph.sides
    rep = gauge.deconfinement_bound_report(
        r.graph, r.c, 0, sides[0] // 2 - 0.5, window={1: (0, sides[1] // 2)})
    # the chain compares support-law engines; <T_F> gets a spin leg
    rows = [r.eq("disorder_vs_spin", rep["disorder_spin"], rep["disorder"])]
    for name, hi, lo in (
            ("wilson_ge_disconnect", "disorder", "fk_disconnect"),
            ("disconnect_ge_product", "fk_disconnect", "product_bound"),
            ("product_ge_exp", "product_bound", "exp_bound")):
        rows.append(Row(r.iid, name, rep[lo], rep[hi], kind="ineq", tol=r.tol))
    return rows


def _sampler(draw):
    """The verb that gates `draw(run, x, y, spec)`, an estimate of
    <s_x s_y> and the exact value, at four batch standard errors."""
    def rows(r):
        if r.trials < samplers.N_BATCHES:
            raise UsageError("--trials must be at least %d (one draw per "
                             "batch)" % samplers.N_BATCHES)
        spec = samplers.ChainSpec(seed=r.seed, sweeps=r.trials)
        res, exact = draw(r, *r.sites(2), spec)
        # with no spread between the batches, gate on the score interval
        # of iid exact 0/1 current draws, or on the iid error of n exact
        # draws of the +-1 spin observable, variance 1 - exact^2
        tol = max(4.0 * res.stderr, 1e-12)
        if r.what == "currents" and res.stderr == 0.0:
            tol = _wilson_tol(res.mean, res.n_samples, exact)
        elif res.stderr == 0.0:
            tol = 4.0 * math.sqrt(max(1.0 - exact * exact, 0.0)
                                  / res.n_samples)
        return [Row(r.iid, "sampler_" + r.what, res.mean, exact, tol=tol),
                r.value("sampler_stderr", res.stderr)]
    return rows


def _metropolis(r, x, y, spec):
    exact = spins.expectation(r.graph, r.c, [x, y], fields=r.fields,
                              boundary=r.bspec)
    return samplers.metropolis_spin(
        r.graph, r.c, {"corr": lambda s: float(s[x] * s[y])},
        fields=r.fields, boundary=r.bspec, spec=spec)["corr"], exact


def _swendsen_wang(r, x, y, spec):
    exact = spins.expectation(r.graph, r.c, [x, y], boundary=r.bspec)
    return samplers.swendsen_wang(
        r.graph, r.c, {"corr": lambda s, oe: float(s[x] * s[y])},
        boundary=r.bspec, spec=spec)["corr"], exact


def _currents(r, x, y, spec):
    exact = currents.single_support_expectations(
        r.graph, r.c, {"c": lambda labels: labels.connected(x, y)})["c"]
    try:
        ss, acc = samplers.current_rejection_sampler(
            r.graph, r.c, (), spec=spec, n_samples=r.trials)
    except samplers.AcceptanceError as exc:
        raise UsageError(str(exc)) from exc
    vals = [1.0 if currents.SupportView(r.graph, s.support).connected(x, y)
            else 0.0 for s in ss]
    return samplers.EstimatorResult(*samplers._batch_stats(vals), acc), exact


# Every verb, in the order of its command's choices.  README's verb table
# lists the same inputs; a test compares the two.
VERBS = {
    "exact": {
        "z": Verb(_value("partition_function", lambda r: (
            spins.partition_function(r.graph, r.c, fields=r.fields,
                                     boundary=r.bspec))),
            fields=True, boundary="any"),
        "corr": Verb(_exact_corr, fields=True, boundary="any",
                     flags="--sites"),
        "u4": Verb(_value("ursell4", lambda r: spins.ursell4(
            r.graph, r.c, *r.sites(4), boundary=r.bspec)), boundary="any",
            flags="--sites"),
        "tension": Verb(_value("surface_tension", lambda r: (
            doubled.surface_tension_ratio(r.graph, r.c))), "box",
            boundary="own pm"),
    },
    "verify": {
        "switching": Verb(_verify_switching, flags="--seed --trials --tol"),
        "xtoy": Verb(_verify_xtoy, flags="--sites --tol"),
        "ursell": Verb(_verify_ursell, flags="--sites --tol"),
        "frustration": Verb(_verify_frustration, flags="--sites --tol"),
        "boundary": Verb(_verify_boundary, boundary="any", flags="--tol"),
        "disorder": Verb(_verify_disorder, flags="--seed --trials --tol"),
        "fold": Verb(_verify_fold, "box", flags="--tol"),
        "dobrushin": Verb(_verify_dobrushin, "box", boundary="own pm",
                          flags="--tol"),
        "fkrcr": Verb(_verify_fkrcr, flags="--sites --tol"),
        "duality": Verb(_duality, "3d box", flags="--tol"),
        "pathprops": Verb(_verify_pathprops, flags="--sites --tol"),
    },
    "ineq": {
        "griffiths": Verb(_ineq(lambda r: iq.griffiths_suite(
            r.graph, r.c, fields=r.fields, max_sets=r.trials)), fields=True,
            flags="--trials --tol"),
        "ghs": Verb(_ineq(lambda r: iq.ghs_suite(r.graph, r.c)),
                    flags="--tol"),
        "simonlieb": Verb(_ineq(_simon_lieb), flags="--sites --tol"),
        "dss": Verb(_ineq(_dss), fields=True, flags="--tol"),
        "smms": Verb(_ineq(lambda r: iq.smms_suite(*_reflected_pair(r))),
                     "box", flags="--tol"),
        "vanbeijeren": Verb(_ineq(lambda r: iq.van_beijeren_suite(
            r.graph, r.c)), "box", flags="--tol"),
        "tree": Verb(_ineq(_tree), flags="--sites --tol"),
    },
    "gauge": {
        "z": Verb(_value("gauge_partition", lambda r: gauge.lgm_partition(
            r.cx, r.beta)), "box"),
        "wilson": Verb(_gauge_wilson, "box", flags="--tol --loop"),
        "dualbeta": Verb(_gauge_dualbeta, "none"),
        "dualcheck": Verb(_duality, "3d box", flags="--tol"),
        "deconfine": Verb(_gauge_deconfine, "box", flags="--tol"),
    },
    "sample": {
        "metropolis": Verb(_sampler(_metropolis), fields=True,
                           boundary="any", flags="--seed --trials --sites"),
        "sw": Verb(_sampler(_swendsen_wang), boundary="any",
                   flags="--seed --trials --sites"),
        "currents": Verb(_sampler(_currents),
                         flags="--seed --trials --sites"),
    },
}


def _cmd_report(args):
    """Aggregate CSVs: per-file pass counts, max |diff|, min slack."""
    lines_out = ["file,rows,passed,max_abs_diff,min_slack"]
    plot_rows = []
    ok = True
    for path in args.files:
        try:
            with open(path) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise UsageError("cannot read %s: %s" % (path, exc))
        n = passed = 0
        max_diff, min_slack = 0.0, math.inf
        for i, line in enumerate(lines, 1):
            if not line or line.startswith(("#", "instance_id")):
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise UsageError("%s:%d: malformed CSV row" % (path, i))
            n += 1
            if parts[6] == "true":
                passed += 1
            else:
                ok = False
            max_diff = max(max_diff, float(parts[4]))
            min_slack = min(min_slack, float(parts[5]))
            if parts[0].startswith("beta="):
                b = parts[0].split("/")[0][len("beta="):]
                plot_rows.append((parts[1], b, parts[2]))
        lines_out.append("%s,%d,%d,%s,%s" % (
            path, n, passed, FMT % max_diff,
            FMT % min_slack if n else "nan"))
    sys.stdout.write("\n".join(lines_out) + "\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("# quantity beta value\n")
            for q, b, v in sorted(plot_rows):
                fh.write("%s %s %s\n" % (q, b, v))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _Choices(dict):
    """Subcommand name -> parser builder.  argparse looks a chosen name up
    in its subparsers' `_name_parser_map`, so only that parser is built."""
    def __getitem__(self, name):
        return super().__getitem__(name)()


def _ranged(kind, ok, wants):
    """An argparse type: kind(text), refused unless ok(value)."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError("wants %s, not %s"
                                             % (wants, text))
        return value
    parse.__name__ = kind.__name__      # as in "invalid int value: 'x'"
    return parse


_COUNT = _ranged(int, lambda n: n >= 1, "a positive integer")
_FLAGS = {"--beta": dict(type=float, default=1.0),
          "--seed": dict(type=int, default=0),
          "--tol": dict(type=_ranged(float, lambda t: 0.0 < t < math.inf,
                                     "a positive finite number"),
                        default=1e-10),
          "--trials": dict(type=_COUNT, default=20),
          "--loop": dict(type=_COUNT, default=1)}


def _parser(*words):
    """The parser of `isinglab <words>`; a dispatch builds the three on its
    path (program, command, verb) and no other."""
    p = _Parser(prog=" ".join(["isinglab", *words]),
                description=None if words else __doc__)
    if len(words) == 2:
        for flag in VERBS[words[0]][words[1]].reads:
            p.add_argument(flag, **_FLAGS.get(flag, {}))
    elif words == ("report",):
        p.add_argument("files", nargs="*")
        p.add_argument("--out")
    else:
        sub = p.add_subparsers(dest="what" if words else "command",
                               required=True)
        sub.choices = sub._name_parser_map = _Choices({
            name: functools.partial(_parser, *words, name)
            for name in (VERBS[words[0]] if words else [*VERBS, "report"])})
    return p


def cli_dispatch(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "report":
            return _cmd_report(args)
        t0 = time.perf_counter()
        run = _Run(args)
        rows = [row for beta in _betas(args)
                for row in run.verb.rows(run.at(beta))]
        elapsed = (time.perf_counter() - t0) * 1000.0
        for r in rows:
            r.runtime_ms = elapsed / max(1, len(rows))
        config = " ".join([args.command] + argv[1:])
        return _emit(rows, config, args.out)
    except (UsageError, SizeError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def main():
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
