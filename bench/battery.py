"""Seeded certification batteries, one builder per workload.

A battery is the fixed list of certifications one workload runs; the
benchmark times whole batteries.  Box shapes are fixed per workload because
they set the work.  `--seed` and the battery index draw everything else:
couplings, beta in [0.2, 0.9], sites, flip sets, source sets and sampler
chain seeds.  Every battery gets fresh instances, so no call shares its
instance with a call of an earlier battery.  isinglab only ever receives
the generated Graph/Couplings/BoundarySpec objects or CLI argv.

Workloads, their box shapes and nominal work per battery:

oracle_bulk -- a few large brute-force enumerations, each on its own
    instance.  verify_duality on the 2x3x3-cell complex (2^18 closed-chain
    subsets + 2^19 dual spins), the same through `isinglab verify duality`,
    and the 2^20-field gauge oracle against the chain sum on 1x1x2 cells.
ineq_battery -- many small spin sums sharing their instance.
    tree_diagram_check on a 4x4 box (67 sums of 2^16 spins), ghs_suite
    and griffiths_suite on 3x3 (2925 sums of 2^9 spins), fuzz_inequalities
    with 200 trials on at most 6 vertices (about 20k sums of at most 2^6),
    and `isinglab ineq tree` (3x4) and `isinglab ineq ghs` (3x3).
support_events -- "weight each support pattern, then evaluate events".
    FK connection probability on 3x4 (2^17 subsets), `isinglab verify
    boundary` on a clamped 3x4 pm box (two 2^17-pattern double-support
    measures), fk_boundary_report on 3x3 pm (2^12), disorder and
    frustration ratios on 3x3 (2^12 patterns each), the folded identity on
    5x3 (2^13 patterns), dobrushin_identities on 3x5 pm directly and through
    `isinglab verify dobrushin`.
currents_and_chains -- Python enumeration one state or step at a time.
    correlation_via_currents on 3x3 (2 x 3^12 states), check_path_properties
    on 3x3 with 4 sources (3^12 states), verify_switching on ten graphs of at
    most 6 edges (2 x 5^E classes each), Metropolis and Swendsen-Wang on 4x4
    (2200 sweeps each) and the rejection sampler on 3x3 (about 3000
    proposals).
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from isinglab import (backbone, cli, currents, doubled, fk, folding, gauge,
                      inequalities, samplers, spins)
from isinglab.gauge import PlaquetteComplex
from isinglab.graphs import BoxGraph, Couplings, Graph, reflection_for_axis

from checker import Side

WORKLOADS = ("oracle_bulk", "ineq_battery", "support_events",
             "currents_and_chains")

BETA_RANGE = (0.2, 0.9)
J_RANGE = (0.5, 1.5)
SAMPLER_J_RANGE = (0.25, 0.75)
FUZZ_TRIALS = 200
SWITCHING_GRAPHS = 10
CHAIN = dict(burn_in=200, sweeps=2000)
REJECTION_PROPOSALS = 3000
REJECTION_MIN_SAMPLES = 100


@dataclass
class Cert:
    """One call into isinglab whose result is checked side by side.

    `run` returns the list of Sides; each Side is one certification.
    `counter` names the per-battery count its Sides add to, and
    `instance` describes the generated input (for reproducibility checks).
    """
    name: str
    run: object
    instance: str
    counter: str | None = None


# ---------------------------------------------------------------------------
# seeded generator


def _rng(workload, seed, index):
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def _beta(rng):
    return float(rng.uniform(*BETA_RANGE))


def _couplings(rng, graph, j_range=J_RANGE):
    J = [float(j) for j in rng.uniform(*j_range, size=graph.n_edges)]
    return Couplings(graph, J, _beta(rng))


def _symmetric_couplings(rng, box, axis):
    """Couplings invariant under the mid-plane reflection of `axis`."""
    plane = (box.sides[axis] - 1) / 2.0
    beta = _beta(rng)
    mirror = reflection_for_axis(box, Couplings(box, 1.0, beta), axis,
                                 plane).edge_map
    J = [0.0] * box.n_edges
    for e in range(box.n_edges):
        if e <= mirror[e]:
            J[e] = J[mirror[e]] = float(rng.uniform(*J_RANGE))
    return Couplings(box, J, beta)


def _sites(rng, n, k):
    return [int(v) for v in rng.choice(n, size=k, replace=False)]


def _describe(graph, couplings, *extra):
    parts = ["n=%d" % graph.n, "E=%r" % (graph.edges,),
             "J=%s" % ",".join("%.17g" % j for j in couplings.J),
             "beta=%.17g" % couplings.beta]
    return " ".join(parts + [repr(x) for x in extra])


def _argv_beta(beta):
    return "%.17g" % beta


# ---------------------------------------------------------------------------
# leg helpers


def _reports(reps):
    return [Side(r.ineq_id + ": " + r.descriptor, "ineq", r.lhs, r.rhs)
            for r in reps]


class CliFailure(RuntimeError):
    pass


def _cli_cert(name, out_dir, argv, kind):
    """A CLI verb run in-process with --out to a temp file; every row's
    lhs/rhs is rechecked here rather than trusting the `pass` column."""

    def run():
        fd, path = tempfile.mkstemp(suffix=".csv", dir=out_dir)
        os.close(fd)
        try:
            code = cli.cli_dispatch(argv + ["--out", path])
            with open(path) as fh:
                text = fh.read()
        finally:
            os.unlink(path)
        sides = []
        for line in text.splitlines():
            if not line or line.startswith("#") or line.startswith(
                    "instance_id,"):
                continue
            parts = line.split(",")
            sides.append(Side(parts[0] + " " + parts[1], kind,
                              float(parts[2]), float(parts[3])))
        if code not in (0, 1) or not sides:
            raise CliFailure("isinglab %s exited %d with %d rows"
                             % (" ".join(argv), code, len(sides)))
        return sides

    return Cert(name, run, "argv=%r" % (argv,), counter="cli.rows")


def _batch_stderr(values):
    """Batch-means (mean, stderr) over samplers.N_BATCHES batches, the
    estimator the CLI applies to rejection samples."""
    values = np.asarray(values, dtype=float)
    k = min(samplers.N_BATCHES, len(values))
    usable = len(values) - len(values) % k
    means = values[:usable].reshape(k, -1).mean(axis=1)
    stderr = float(means.std(ddof=1) / math.sqrt(k)) if k > 1 else math.nan
    return float(values.mean()), stderr


def _sourceless_acceptance(graph, couplings):
    """Acceptance of the rejection sampler with no sources: Z e^{-sum K},
    with Z the normalized spin sum, computed here by plain enumeration."""
    K = [couplings.K(e) for e in range(graph.n_edges)]
    total = 0.0
    for mask in range(1 << graph.n):
        s = [1 if (mask >> v) & 1 else -1 for v in range(graph.n)]
        total += math.exp(sum(k * s[u] * s[v]
                              for k, (u, v) in zip(K, graph.edges)))
    return total / (1 << graph.n) * math.exp(-sum(K))


# ---------------------------------------------------------------------------
# workloads


def _oracle_bulk(rng, out_dir):
    b_direct, b_cli, b_oracle = (_beta(rng) for _ in range(3))
    cx = PlaquetteComplex(3, (2, 3, 3))
    small = PlaquetteComplex(3, (1, 1, 2))

    def duality():
        lhs, rhs, _ = gauge.verify_duality(cx, b_direct)
        return [Side("Z_gauge vs dual Ising", "rel", lhs, rhs)]

    def oracle():
        return [Side("Z oracle vs chains", "rel",
                     gauge.gauge_oracle_partition(small, b_oracle),
                     gauge.lgm_partition(small, b_oracle))]

    return [
        Cert("gauge.verify_duality 2x3x3", duality,
             "cells=2x3x3 beta=%.17g" % b_direct),
        _cli_cert("cli.verify_duality 2x3x3", out_dir,
                  ["verify", "duality", "--lattice", "box:d=3,L=3,4,4",
                   "--beta", _argv_beta(b_cli)], "rel"),
        Cert("gauge.gauge_oracle_partition 1x1x2", oracle,
             "cells=1x1x2 beta=%.17g" % b_oracle),
    ]


def _ineq_battery(rng, out_dir):
    g44 = BoxGraph(2, (4, 4))
    c44 = _couplings(rng, g44)
    quad = _sites(rng, g44.n, 4)
    g_ghs = BoxGraph(2, (3, 3))
    c_ghs = _couplings(rng, g_ghs)
    x_ghs = _sites(rng, g_ghs.n, 1)[0]
    g_gr = BoxGraph(2, (3, 3))
    c_gr = _couplings(rng, g_gr)
    fuzz_seed = int(rng.integers(2 ** 31))
    b_tree, b_ghs = _beta(rng), _beta(rng)
    tree_sites = _sites(rng, 12, 4)

    def tree():
        lhs, rhs, _ = backbone.tree_diagram_check(g44, c44, *quad)
        return [Side("|U4| <= tree diagram", "ineq", lhs, rhs)]

    reports = "inequalities.reports"
    return [
        Cert("backbone.tree_diagram_check 4x4", tree,
             _describe(g44, c44, quad)),
        Cert("inequalities.ghs_suite 3x3",
             lambda: _reports(inequalities.ghs_suite(g_ghs, c_ghs, x=x_ghs)),
             _describe(g_ghs, c_ghs, x_ghs), counter=reports),
        Cert("inequalities.griffiths_suite 3x3",
             lambda: _reports(inequalities.griffiths_suite(g_gr, c_gr)),
             _describe(g_gr, c_gr), counter=reports),
        Cert("inequalities.fuzz_inequalities %d trials" % FUZZ_TRIALS,
             lambda: _reports(inequalities.fuzz_inequalities(
                 FUZZ_TRIALS, seed=fuzz_seed, max_vertices=6)[0]),
             "fuzz_seed=%d" % fuzz_seed, counter=reports),
        _cli_cert("cli.ineq_tree 3x4", out_dir,
                  ["ineq", "tree", "--lattice", "box:d=2,L=3,4",
                   "--beta", _argv_beta(b_tree),
                   "--sites", ",".join(map(str, tree_sites))], "ineq"),
        _cli_cert("cli.ineq_ghs 3x3", out_dir,
                  ["ineq", "ghs", "--lattice", "box:d=2,L=3",
                   "--beta", _argv_beta(b_ghs)], "ineq"),
    ]


def _support_events(rng, out_dir):
    g_fk = BoxGraph(2, (3, 4))
    c_fk = _couplings(rng, g_fk)
    x_fk, y_fk = _sites(rng, g_fk.n, 2)
    b_bdry, b_dob = _beta(rng), _beta(rng)
    g_br = BoxGraph(2, (3, 3))
    bc_br = g_br.dobrushin_boundary()
    c_br = _couplings(rng, g_br)
    x_br = sorted(bc_br.interior(g_br))[0]
    g_dis = BoxGraph(2, (3, 3))
    c_dis = _couplings(rng, g_dis)
    flip = sorted(_sites(rng, g_dis.n_edges,
                         int(rng.integers(1, g_dis.n_edges + 1))))
    g_fr = BoxGraph(2, (3, 3))
    c_fr = _couplings(rng, g_fr).with_flipped(
        [e for e in range(g_fr.n_edges) if rng.random() < 0.3])
    g_fold = BoxGraph(2, (5, 3))
    refl = reflection_for_axis(g_fold, _symmetric_couplings(rng, g_fold, 0),
                               0, 2)
    x_fold, y_fold = (sorted(refl.lambda1)[i]
                      for i in _sites(rng, len(refl.lambda1), 2))
    g_dob = BoxGraph(2, (3, 5))
    c_dob = _symmetric_couplings(rng, g_dob, 1)

    def connection():
        return [Side("P_FK(x<->y) vs <s_x s_y>", "abs",
                     fk.connection_probability(g_fk, c_fk, x_fk, y_fk),
                     spins.expectation(g_fk, c_fk, [x_fk, y_fk]))]

    def fk_boundary():
        rep = fk.fk_boundary_report(g_br, c_br, bc_br, x=x_br)
        return [Side("Z+-/Z+", "abs", rep["ratio_fk"], rep["ratio_spin"]),
                Side("<s_x>+-", "abs", rep["mag_pm_fk"], rep["mag_pm_spin"]),
                Side("<s_x>+", "abs", rep["mag_plus_fk"],
                     rep["mag_plus_spin"])]

    def disorder():
        ratio = (spins.partition_function(g_dis, c_dis.with_flipped(flip))
                 / spins.partition_function(g_dis, c_dis))
        return [Side("<T_F>", "abs",
                     doubled.disorder_expectation(g_dis, c_dis, flip), ratio)]

    def frustration():
        ratio = (spins.partition_function(g_fr, c_fr)
                 / spins.partition_function(g_fr, c_fr.with_abs()))
        return [Side("Z(J)/Z(|J|)", "abs",
                     doubled.frustrated_partition_ratio(g_fr, c_fr), ratio)]

    def folded():
        lhs, rhs = folding.folded_correlation_identity(refl, x_fold, y_fold)
        return [Side("<s_x s_Ry> vs folded", "abs", lhs, rhs)]

    def dobrushin():
        rep = folding.dobrushin_identities(g_dob, c_dob)
        return [Side("Z+-/Z+", "abs", rep["ratio_spin"], rep["ratio_folded"]),
                Side("<s_x>+-", "abs", rep["mag_spin"], rep["mag_folded"]),
                Side("plane lower bound", "ineq", rep["mag_plane_lower"],
                     rep["mag_spin"])]

    return [
        Cert("fk.connection_probability 3x4", connection,
             _describe(g_fk, c_fk, x_fk, y_fk)),
        _cli_cert("cli.verify_boundary 3x4 pm", out_dir,
                  ["verify", "boundary", "--lattice", "box:d=2,L=3,4,bc=pm",
                   "--beta", _argv_beta(b_bdry)], "abs"),
        Cert("fk.fk_boundary_report 3x3 pm", fk_boundary,
             _describe(g_br, c_br, x_br)),
        Cert("doubled.disorder_expectation 3x3", disorder,
             _describe(g_dis, c_dis, flip)),
        Cert("doubled.frustrated_partition_ratio 3x3", frustration,
             _describe(g_fr, c_fr)),
        Cert("folding.folded_correlation_identity 5x3", folded,
             _describe(g_fold, refl.couplings, x_fold, y_fold)),
        Cert("folding.dobrushin_identities 3x5 pm", dobrushin,
             _describe(g_dob, c_dob)),
        _cli_cert("cli.verify_dobrushin 3x5 pm", out_dir,
                  ["verify", "dobrushin", "--lattice", "box:d=2,L=3,5,bc=pm",
                   "--beta", _argv_beta(b_dob)], "abs"),
    ]


def _switching_instance(rng):
    n = int(rng.integers(4, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = int(rng.integers(4, 7))
    edges = [pairs[i] for i in sorted(rng.choice(len(pairs), m,
                                                 replace=False))]
    g = Graph(n, edges)
    A1, A2, B = (frozenset(_sites(rng, n, 2)) for _ in range(3))
    return g, _couplings(rng, g), A1, A2, B


def _currents_and_chains(rng, out_dir):
    g_cur = BoxGraph(2, (3, 3))
    c_cur = _couplings(rng, g_cur)
    pair = _sites(rng, g_cur.n, 2)
    g_bb = BoxGraph(2, (3, 3))
    c_bb = _couplings(rng, g_bb)
    sources = frozenset(_sites(rng, g_bb.n, 4))
    switching = [_switching_instance(rng) for _ in range(SWITCHING_GRAPHS)]
    g_mc = BoxGraph(2, (4, 4))
    c_mc = _couplings(rng, g_mc, SAMPLER_J_RANGE)
    x_mc, y_mc = _sites(rng, g_mc.n, 2)
    seed_metro, seed_sw, seed_rej = (int(s) for s in
                                     rng.integers(2 ** 31, size=3))
    g_rej = BoxGraph(2, (3, 3))
    c_rej = _couplings(rng, g_rej, SAMPLER_J_RANGE)
    n_rej = max(REJECTION_MIN_SAMPLES,
                round(REJECTION_PROPOSALS
                      * _sourceless_acceptance(g_rej, c_rej)))

    def correlation():
        return [Side("<s_x s_y> currents vs spins", "abs",
                     currents.correlation_via_currents(g_cur, c_cur, pair),
                     spins.expectation(g_cur, c_cur, pair))]

    def path_properties():
        rep = backbone.check_path_properties(g_bb, c_bb, sources)
        return [Side("completeness", "abs", rep["completeness"], 0.0),
                Side("rho vs grouping", "abs", rep["rho_vs_grouping"], 0.0),
                Side("last-path resummation", "abs", rep["resummation"], 0.0),
                Side("zeta <= 1", "abs", float(rep["zeta_bounded"]), 1.0),
                Side("zeta super-multiplicative", "ineq", 0.0,
                     rep["zeta_supermultiplicative_slack"])]

    def switch(g, c, A1, A2, B):
        lhs, rhs, _ = doubled.verify_switching(g, c, A1, A2, B)
        return [Side("switching", "rel", lhs, rhs)]

    def metropolis():
        res = samplers.metropolis_spin(
            g_mc, c_mc, {"c": lambda s: float(s[x_mc] * s[y_mc])},
            spec=samplers.ChainSpec(seed=seed_metro, **CHAIN))["c"]
        exact = spins.expectation(g_mc, c_mc, [x_mc, y_mc])
        return [Side("<s_x s_y> Metropolis", "stat", res.mean, exact,
                     res.stderr)]

    def swendsen_wang():
        res = samplers.swendsen_wang(
            g_mc, c_mc, {"c": lambda s, open_edges: float(s[x_mc] * s[y_mc])},
            spec=samplers.ChainSpec(seed=seed_sw, **CHAIN))["c"]
        exact = spins.expectation(g_mc, c_mc, [x_mc, y_mc])
        return [Side("<s_x s_y> Swendsen-Wang", "stat", res.mean, exact,
                     res.stderr)]

    def rejection():
        E = g_rej.n_edges
        draws, _ = samplers.current_rejection_sampler(
            g_rej, c_rej, (), spec=samplers.ChainSpec(seed=seed_rej),
            n_samples=n_rej)
        mean, stderr = _batch_stderr([len(d.support) / E for d in draws])
        z = spins.partition_function(g_rej, c_rej)
        exact = math.fsum(
            1.0 - spins.partition_function(g_rej, c_rej.with_depleted([e])) / z
            for e in range(E)) / E
        return [Side("support fraction, rejection", "stat", mean, exact,
                     stderr)]

    certs = [
        Cert("currents.correlation_via_currents 3x3", correlation,
             _describe(g_cur, c_cur, pair)),
        Cert("backbone.check_path_properties 3x3", path_properties,
             _describe(g_bb, c_bb, sorted(sources))),
    ]
    for i, inst in enumerate(switching):
        certs.append(Cert("doubled.verify_switching #%d" % i,
                          lambda inst=inst: switch(*inst),
                          _describe(inst[0], inst[1],
                                    *(sorted(s) for s in inst[2:]))))
    certs += [
        Cert("samplers.metropolis_spin 4x4", metropolis,
             _describe(g_mc, c_mc, x_mc, y_mc, seed_metro)),
        Cert("samplers.swendsen_wang 4x4", swendsen_wang,
             _describe(g_mc, c_mc, x_mc, y_mc, seed_sw)),
        Cert("samplers.current_rejection_sampler 3x3", rejection,
             _describe(g_rej, c_rej, n_rej, seed_rej)),
    ]
    return certs


_BUILDERS = {
    "oracle_bulk": _oracle_bulk,
    "ineq_battery": _ineq_battery,
    "support_events": _support_events,
    "currents_and_chains": _currents_and_chains,
}


def build(workload, seed, index, out_dir):
    """The certifications of the index-th battery of `workload` for `seed`;
    CLI legs write their --out files under `out_dir`."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return _BUILDERS[workload](_rng(workload, seed, index), out_dir)
