"""Command-line harness for the exact engines, verifiers and samplers.

Every run emits CSV rows `instance_id, quantity, lhs, rhs, abs_diff, slack,
pass, runtime_ms` (17 significant digits, '.' decimal) with the run
configuration echoed in a leading comment line, so a file can be re-created
byte-for-byte (modulo runtime_ms) from its own header.  Exit status: 0 when
all checks pass, 1 on a verification failure, 2 on usage or size errors.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .graphs import (FieldSpec, parse_graph_file, parse_lattice_spec,
                     reflection_for_axis)
from .spins import SizeError
from . import spins

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
# input handling


def _load_instance(args):
    """(graph, couplings-at-beta-1, fields, boundary) from --graph/--lattice."""
    if getattr(args, "graph", None):
        try:
            with open(args.graph) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError("cannot read graph file: %s" % exc)
        return parse_graph_file(text)
    if getattr(args, "lattice", None):
        box, coup, bspec = parse_lattice_spec(args.lattice)
        return box, coup, FieldSpec(box.n), bspec
    raise UsageError("one of --graph or --lattice is required")


def _betas(args):
    if getattr(args, "beta_sweep", None):
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


def _sites(args, need, graph):
    if getattr(args, "sites", None):
        ids = [int(s) for s in args.sites.split(",")]
    else:
        ids = sorted(graph.vertices)[:need] if need > 2 else \
            [0, graph.n - 1][:need]
    if len(ids) < need:
        raise UsageError("need %d site ids (--sites a,b,...)" % need)
    bad = [v for v in ids[:need] if not 0 <= v < graph.n]
    if bad:
        raise UsageError("site id %d is not a vertex (0..%d)"
                         % (bad[0], graph.n - 1))
    return ids[:need]


def _refuse_fields(fields, command):
    """UsageError for a command that carries no fields: a zero-field row
    would pass while answering a different question."""
    if not fields.is_zero():
        raise UsageError("%s does not support fields (h=/g= in --graph)"
                         % command)


def _refuse_boundary(bspec, command, own=None):
    """UsageError for a command that takes no boundary, or only its own
    split `own`: its rows would answer the free (or own) instance's
    question, with `pass=true`."""
    if bspec is not None and (own is None
                              or bspec.designation != own.designation):
        raise UsageError("%s does not support %s (bc= in --lattice, boundary "
                         "lines in --graph)" % (
                             command, "a boundary" if own is None else
                             "a boundary other than its own bc=pm split"))


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
# subcommand handlers (each returns a list of Row)


def _cmd_exact(args):
    graph, coup, fields, bspec = _load_instance(args)
    rows = []
    for beta in _betas(args):
        c = coup.with_beta(beta * coup.beta)
        iid = "beta=%g" % beta
        if args.what == "z":
            z = spins.partition_function(graph, c, fields=fields,
                                         boundary=bspec)
            rows.append(Row(iid, "partition_function", z, z, kind="value"))
        elif args.what == "corr":
            ids = _sites(args, 2, graph)
            v = spins.expectation(graph, c, ids, fields=fields, boundary=bspec)
            rows.append(Row(iid, "corr_%d_%d" % tuple(ids), v, v,
                            kind="value"))
        elif args.what == "u4":
            _refuse_fields(fields, "exact u4")
            ids = _sites(args, 4, graph)
            v = spins.ursell4(graph, c, *ids, boundary=bspec)
            rows.append(Row(iid, "ursell4", v, v, kind="value"))
        elif args.what == "tension":
            from .doubled import surface_tension_ratio
            if not hasattr(graph, "coords"):
                raise UsageError("tension needs a --lattice box")
            _refuse_boundary(bspec, "exact tension",
                             own=graph.dobrushin_boundary())
            v = surface_tension_ratio(graph, c)
            rows.append(Row(iid, "surface_tension", v, v, kind="value"))
    return rows


def _cmd_verify(args):
    from . import doubled, fk, folding, backbone
    graph, coup, fields, bspec = _load_instance(args)
    _refuse_fields(fields, "verify")
    if args.what not in ("boundary", "dobrushin"):
        _refuse_boundary(bspec, "verify " + args.what)
    rng = np.random.default_rng(args.seed)
    rows = []
    for beta in _betas(args):
        c = coup.with_beta(beta * coup.beta)
        iid = "beta=%g" % beta
        w = args.what
        if w == "xtoy":
            if not c.is_ferromagnetic:
                raise ValueError("the x-to-y identity needs ferromagnetic "
                                 "couplings")
            x, y = _sites(args, 2, graph)
            corr = spins.expectation(graph, c, [x, y])
            p = doubled.double_event_probability(
                graph, c, frozenset(), frozenset(),
                lambda labels: labels.connected(x, y))
            rows.append(Row(iid, "corr_sq_vs_double_connect", corr * corr, p,
                            tol=args.tol))
        elif w == "switching":
            V = list(graph.vertices)
            for t in range(args.trials):
                A1 = frozenset(rng.choice(V, 2, replace=False).tolist())
                A2 = frozenset(rng.choice(V, 2, replace=False).tolist())
                B = frozenset(rng.choice(V, 2, replace=False).tolist())
                lhs, rhs, _ = doubled.verify_switching(graph, c, A1, A2, B)
                rows.append(Row("%s/t%d" % (iid, t), "switching", lhs, rhs,
                                tol=args.tol))
        elif w == "ursell":
            ids = _sites(args, 4, graph)
            spin = spins.moments(graph, c, spins.ursell4_sets(*ids))
            u4 = spins.ursell4_value(*spin)
            va, vb = doubled.ursell4_via_currents(graph, c, *ids, spin)
            rows.append(Row(iid, "ursell4_formA", u4, va, tol=args.tol))
            rows.append(Row(iid, "ursell4_formB", u4, vb, tol=args.tol))
        elif w == "frustration":
            x, y = _sites(args, 2, graph)
            z_ratio, (sj,), (sa,) = spins.ratio_moments(
                graph, c, c.with_abs(), [[x, y]])
            ff, corr = doubled.frustration_identities(graph, c, x, y)
            rows.append(Row(iid, "z_ratio_ff", z_ratio, ff, tol=args.tol))
            rows.append(Row(iid, "corr_product_ff", sj * sa, corr,
                            tol=args.tol))
        elif w == "boundary":
            if bspec is None or not bspec.minus_set:
                raise UsageError("boundary checks need a pm boundary spec")
            interior = sorted(bspec.interior(graph))
            x = interior[len(interior) // 2] if interior else None
            ratio, plus, pm = doubled.boundary_identities(graph, c, bspec, x)
            z_ratio, mpm, mp = spins.ratio_moments(
                graph, c, c, [[x]] if interior else [], bspec,
                bspec.all_plus())
            rows.append(Row(iid, "z_ratio_boundary", z_ratio, ratio,
                            tol=args.tol))
            if interior:
                mp, mpm = mp[0], mpm[0]
                rows.append(Row(iid, "mag_plus_sq", mp * mp, plus,
                                tol=args.tol))
                rows.append(Row(iid, "mag_pm_times_plus", mpm * mp, pm,
                                tol=args.tol))
        elif w == "disorder":
            flips = []
            for t in range(args.trials):
                nflip = int(rng.integers(0, graph.n_edges + 1))
                flips.append(rng.choice(graph.n_edges, nflip,
                                        replace=False).tolist())
            if not flips:   # --trials 0 asks nothing
                continue
            # one spin family call and one law serve every trial
            plain, *flipped = spins.family(graph, [(c, None, [])] + [
                (c.with_flipped(flip), None, []) for flip in flips])
            laws = doubled.disorder_expectations(graph, c, flips)
            for t, ((z, _), law) in enumerate(zip(flipped, laws)):
                rows.append(Row("%s/t%d" % (iid, t), "disorder_ratio",
                                z / plain[0], law, tol=args.tol))
        elif w == "fold":
            box = graph
            if not hasattr(box, "sides"):
                raise UsageError("fold needs a --lattice box")
            mid = (box.sides[0] - 1) / 2
            refl = reflection_for_axis(box, c, 0, mid)
            x, y = sorted(refl.lambda1)[:2]
            lhs, rhs = folding.folded_correlation_identity(refl, x, y)
            rows.append(Row(iid, "folded_correlation", lhs, rhs,
                            tol=args.tol))
        elif w == "dobrushin":
            box = graph
            if not hasattr(box, "sides"):
                raise UsageError("dobrushin needs a --lattice box")
            _refuse_boundary(bspec, "verify dobrushin",
                             own=box.dobrushin_boundary())
            rep = folding.dobrushin_identities(box, c)
            rows.append(Row(iid, "dobrushin_ratio", rep["ratio_spin"],
                            rep["ratio_folded"], tol=args.tol))
            rows.append(Row(iid, "dobrushin_mag", rep["mag_spin"],
                            rep["mag_folded"], tol=args.tol))
        elif w == "fkrcr":
            x, y = _sites(args, 2, graph)
            fkp, rcr = fk.fk_rcr_bridge(graph, c, x, y)
            corr = spins.expectation(graph, c, [x, y])
            rows.append(Row(iid, "fk_sq_vs_rcr", fkp * fkp, rcr,
                            tol=args.tol))
            rows.append(Row(iid, "fk_vs_corr", corr, fkp, tol=args.tol))
            rows.append(Row(iid, "rcr_vs_corr_sq", corr * corr, rcr,
                            tol=args.tol))
        elif w == "duality":
            from .gauge import PlaquetteComplex
            box = graph
            if not hasattr(box, "sides") or box.d != 3:
                raise UsageError("duality needs a d=3 --lattice box")
            cx = PlaquetteComplex(box.d, [s - 1 for s in box.sides])
            rows.append(_duality_row(iid, cx, beta, args.tol))
        elif w == "pathprops":
            x, y = _sites(args, 2, graph)
            rep = backbone.check_path_properties(graph, c, {x, y})
            for key in ("completeness", "rho_vs_grouping", "resummation"):
                rows.append(Row(iid, "backbone_" + key, rep[key], 0.0,
                                tol=args.tol))
            rows.append(Row(iid, "backbone_zeta_bounded",
                            1.0 if rep["zeta_bounded"] else 0.0, 1.0,
                            tol=args.tol))
        else:
            raise UsageError("unknown verify target %r" % w)
    return rows


def _cmd_ineq(args):
    from . import inequalities as iq, backbone
    graph, coup, fields, bspec = _load_instance(args)
    if args.what in ("ghs", "simonlieb", "tree"):
        _refuse_fields(fields, "ineq " + args.what)
    _refuse_boundary(bspec, "ineq " + args.what)
    rows = []
    for beta in _betas(args):
        c = coup.with_beta(beta * coup.beta)
        iid = "beta=%g" % beta
        w = args.what
        if w == "griffiths":
            reps = iq.griffiths_suite(graph, c, fields=fields,
                                      max_sets=args.trials)
        elif w == "ghs":
            reps = iq.ghs_suite(graph, c)
        elif w == "simonlieb":
            x, y = _sites(args, 2, graph)
            S = [v for v in graph.vertices if v not in (x, y)]
            reps = iq.simon_lieb_suite(graph, c, x, y, S)
        elif w == "dss":
            f = fields if not fields.is_zero() else FieldSpec(
                graph.n, h={v: 0.3 for v in graph.vertices},
                g={v: 0.2 * (-1) ** v for v in graph.vertices})
            reps = iq.dss_suite(graph, c, 0, f)
        elif w == "smms":
            box = graph
            if not hasattr(box, "sides"):
                raise UsageError("smms needs a --lattice box")
            mid = (box.sides[0] - 1) / 2
            refl = reflection_for_axis(box, c, 0, mid)
            x, y = sorted(refl.lambda1)[:2]
            reps = iq.smms_suite(refl, x, y)
        elif w == "vanbeijeren":
            if not hasattr(graph, "sides"):
                raise UsageError("vanbeijeren needs a --lattice box")
            reps = iq.van_beijeren_suite(graph, c)
        elif w == "tree":
            ids = _sites(args, 4, graph)
            lhs, rhs, _ = backbone.tree_diagram_check(graph, c, *ids)
            reps = [iq.IneqReport("tree_diagram", "", lhs, rhs)]
        else:
            raise UsageError("unknown inequality suite %r" % w)
        for i, rep in enumerate(reps):
            rows.append(Row("%s/%d" % (iid, i), rep.ineq_id, rep.lhs,
                            rep.rhs, kind="ineq", tol=args.tol))
    return rows


def _duality_row(iid, cx, beta, tol):
    """The gauge_duality row of a plaquette complex; `tol` is scaled by
    max(1, |lhs|)."""
    from .gauge import verify_duality
    lhs, rhs, _ = verify_duality(cx, beta)
    return Row(iid, "gauge_duality", lhs, rhs, tol=tol * max(1.0, abs(lhs)))


def _cmd_gauge(args):
    from .gauge import (PlaquetteComplex, deconfinement_bound_report,
                        dual_beta, lgm_partition, rectangular_loop,
                        wilson_expectation)
    rows = []
    for beta in _betas(args):
        iid = "beta=%g" % beta
        if args.what == "dualbeta":
            v = dual_beta(beta)
            print(FMT % v)
            rows.append(Row(iid, "dual_beta", v, v, kind="value"))
            continue
        if args.what == "deconfine":
            graph, coup, _, bspec = _load_instance(args)
            if not hasattr(graph, "sides"):
                raise UsageError("deconfine needs a --lattice box")
            _refuse_boundary(bspec, "gauge deconfine")
            c = coup.with_beta(beta * coup.beta)
            plane = graph.sides[0] // 2 - 0.5
            rep = deconfinement_bound_report(
                graph, c, 0, plane,
                window={1: (0, graph.sides[1] // 2)})
            # the chain compares support-law engines; <T_F> gets a spin leg
            rows.append(Row(iid, "disorder_vs_spin", spins.partition_ratio(
                graph, c.with_flipped(rep["flip_edges"]), c),
                rep["disorder"], tol=args.tol))
            chain = [("wilson_ge_disconnect", rep["disorder"],
                      rep["fk_disconnect"]),
                     ("disconnect_ge_product", rep["fk_disconnect"],
                      rep["product_bound"]),
                     ("product_ge_exp", rep["product_bound"],
                      rep["exp_bound"])]
            for name, hi, lo in chain:
                rows.append(Row(iid, name, lo, hi, kind="ineq",
                                tol=args.tol))
            continue
        if not getattr(args, "lattice", None):
            raise UsageError("gauge %s needs --lattice" % args.what)
        box, _, _ = parse_lattice_spec(args.lattice)
        cx = PlaquetteComplex(box.d, [s - 1 for s in box.sides])
        if args.what == "z":
            z = lgm_partition(cx, beta)
            rows.append(Row(iid, "gauge_partition", z, z, kind="value"))
        elif args.what == "wilson":
            ell = args.loop
            loop = rectangular_loop(cx, (0, 1), (0,) * cx.d, (ell, ell))
            w = wilson_expectation(cx, beta, loop)
            if cx.d == 2:
                rows.append(Row(iid, "wilson_%dx%d" % (ell, ell), w,
                                math.tanh(beta) ** loop.area, tol=args.tol))
            else:
                rows.append(Row(iid, "wilson_%dx%d" % (ell, ell), w, w,
                                kind="value"))
        elif args.what == "dualcheck":
            rows.append(_duality_row(iid, cx, beta, args.tol))
        else:
            raise UsageError("unknown gauge target %r" % args.what)
    return rows


def _cmd_sample(args):
    from . import samplers
    from .samplers import ChainSpec
    graph, coup, fields, bspec = _load_instance(args)
    if args.what != "metropolis":
        _refuse_fields(fields, "sample " + args.what)
    if args.what == "currents":
        _refuse_boundary(bspec, "sample currents")
    if args.trials < samplers.N_BATCHES:
        raise UsageError("--trials must be at least %d (one draw per batch)"
                         % samplers.N_BATCHES)
    rows = []
    for beta in _betas(args):
        c = coup.with_beta(beta * coup.beta)
        iid = "beta=%g" % beta
        spec = ChainSpec(seed=args.seed, sweeps=args.trials)
        x, y = _sites(args, 2, graph)
        exact = spins.expectation(graph, c, [x, y], fields=fields,
                                  boundary=bspec)
        if args.what == "metropolis":
            res = samplers.metropolis_spin(
                graph, c, {"corr": lambda s: float(s[x] * s[y])},
                fields=fields, boundary=bspec, spec=spec)["corr"]
        elif args.what == "sw":
            res = samplers.swendsen_wang(
                graph, c, {"corr": lambda s, oe: float(s[x] * s[y])},
                boundary=bspec, spec=spec)["corr"]
        elif args.what == "currents":
            from .currents import SupportView, single_support_expectations
            exact = single_support_expectations(
                graph, c,
                {"c": lambda labels: labels.connected(x, y)})["c"]
            try:
                ss, acc = samplers.current_rejection_sampler(
                    graph, c, (), spec=spec, n_samples=args.trials)
            except samplers.AcceptanceError as exc:
                raise UsageError(str(exc)) from exc
            vals = [1.0 if SupportView(graph, s.support).connected(x, y)
                    else 0.0 for s in ss]
            mean, stderr, n = samplers._batch_stats(vals)
            res = samplers.EstimatorResult(mean, stderr, n, acc)
        else:
            raise UsageError("unknown sampler %r" % args.what)
        tol = max(4.0 * res.stderr, 1e-12)
        if args.what == "currents" and res.stderr == 0.0:
            # the draws are iid and exact: with no spread between the
            # batches, gate on the score interval of the 0/1 draws
            tol = _wilson_tol(res.mean, res.n_samples, exact)
        elif res.stderr == 0.0:
            # no spread between the batches: gate on the iid error of n
            # exact draws of the +-1 observable, variance 1 - exact^2
            tol = 4.0 * math.sqrt(max(1.0 - exact * exact, 0.0)
                                  / res.n_samples)
        row = Row(iid, "sampler_" + args.what, res.mean, exact, kind="eq",
                  tol=tol)
        rows.append(row)
        rows.append(Row(iid, "sampler_stderr", res.stderr, res.stderr,
                        kind="value"))
    return rows


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
        max_diff = 0.0
        min_slack = math.inf
        for i, line in enumerate(lines, 1):
            if not line or line.startswith("#") or line.startswith(
                    "instance_id"):
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


def _build_parser():
    p = _Parser(prog="isinglab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    # the flags each subcommand reads beyond --graph, --lattice, --beta,
    # --beta-sweep and --out: it refuses the ones it would ignore
    flags = {"--seed": dict(type=int, default=0),
             "--tol": dict(type=float, default=1e-10),
             "--trials": dict(type=int, default=20),
             "--sites": {},
             "--loop": dict(type=int, default=1)}
    for name, choices, reads in (
            ("exact", ["z", "corr", "u4", "tension"], ["--sites"]),
            ("verify", ["switching", "xtoy", "ursell", "frustration",
                        "boundary", "disorder", "fold", "dobrushin",
                        "fkrcr", "duality", "pathprops"],
             ["--seed", "--tol", "--trials", "--sites"]),
            ("ineq", ["griffiths", "ghs", "simonlieb", "dss", "smms",
                      "vanbeijeren", "tree"],
             ["--tol", "--trials", "--sites"]),
            ("gauge", ["z", "wilson", "dualbeta", "dualcheck",
                       "deconfine"], ["--tol", "--loop"]),
            ("sample", ["metropolis", "sw", "currents"],
             ["--seed", "--trials", "--sites"])):
        sp = sub.add_parser(name)
        sp.add_argument("what", choices=choices)
        sp.add_argument("--graph")
        sp.add_argument("--lattice")
        sp.add_argument("--beta", type=float, default=1.0)
        sp.add_argument("--beta-sweep", dest="beta_sweep")
        sp.add_argument("--out")
        for flag in reads:
            sp.add_argument(flag, **flags[flag])
    rp = sub.add_parser("report")
    rp.add_argument("files", nargs="*")
    rp.add_argument("--out")
    return p


_HANDLERS = {
    "exact": _cmd_exact,
    "verify": _cmd_verify,
    "ineq": _cmd_ineq,
    "gauge": _cmd_gauge,
    "sample": _cmd_sample,
}


def cli_dispatch(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "report":
            return _cmd_report(args)
        t0 = time.perf_counter()
        rows = _HANDLERS[args.command](args)
        elapsed = (time.perf_counter() - t0) * 1000.0
        for r in rows:
            r.runtime_ms = elapsed / max(1, len(rows))
        config = " ".join([args.command] + argv[1:])
        return _emit(rows, config, getattr(args, "out", None))
    except (UsageError, SizeError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def main():
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
