import math
import time

import pytest

from isinglab import doubled
from isinglab.cli import VERBS, cli_dispatch


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_engine_identity_example(capsys):
    code, out, _ = run(capsys, "verify", "xtoy", "--lattice",
                       "box:d=2,L=2,bc=free", "--beta", "0.5",
                       "--tol", "1e-10")
    assert code == 0
    assert "corr_sq_vs_double_connect" in out
    assert ",true," in out


def test_dualbeta_example(capsys):
    code, out, _ = run(capsys, "gauge", "dualbeta", "--beta", "0.5")
    assert code == 0
    assert out.startswith("0.3859684")


def test_missing_graph_is_usage_error(capsys):
    code, _, err = run(capsys, "exact", "z", "--graph", "missing.txt")
    assert code == 2
    assert "missing.txt" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "exact", "z", "--frobnicate")
    assert code == 2


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "exact", "entropy")
    assert code == 2


def test_csv_shape(capsys):
    code, out, _ = run(capsys, "exact", "corr", "--lattice", "box:d=2,L=2",
                       "--beta", "0.6", "--sites", "0,3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# run: exact corr")
    assert lines[1] == ("instance_id,quantity,lhs,rhs,abs_diff,slack,"
                       "pass,runtime_ms")
    assert len(lines) == 3
    assert lines[2].split(",")[0] == "beta=0.6"


def test_beta_sweep_and_roundtrip(tmp_path, capsys):
    args = ["exact", "z", "--lattice", "box:d=2,L=2",
            "--beta-sweep", "0.2:0.6:0.2"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_dispatch(args + ["--out", str(p1)]) == 0
    assert cli_dispatch(args + ["--out", str(p2)]) == 0
    strip = lambda p: [l.rsplit(",", 1)[0] for l in p.read_text().splitlines()]
    assert strip(p1) == strip(p2)
    assert len(strip(p1)) == 5  # header comment + column row + 3 betas


def test_seed_controls_sampling(tmp_path):
    args = ["sample", "metropolis", "--lattice", "box:d=2,L=2",
            "--beta", "0.4", "--trials", "400"]
    outs = []
    for seed, name in ((7, "s7a.csv"), (7, "s7b.csv"), (8, "s8.csv")):
        path = tmp_path / name
        cli_dispatch(args + ["--seed", str(seed), "--out", str(path)])
        outs.append([l.rsplit(",", 1)[0]
                     for l in path.read_text().splitlines()][2:])
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_report_aggregates(tmp_path, capsys):
    csv = tmp_path / "suite.csv"
    cli_dispatch(["verify", "xtoy", "--lattice", "box:d=2,L=2",
                  "--beta-sweep", "0.2:0.4:0.1", "--out", str(csv)])
    plot = tmp_path / "plot.dat"
    code, out, _ = run(capsys, "report", str(csv), "--out", str(plot))
    assert code == 0
    assert out.splitlines()[0] == "file,rows,passed,max_abs_diff,min_slack"
    body = plot.read_text().splitlines()
    assert body[0].startswith("#")
    assert len(body) == 4


def test_report_malformed_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("instance_id,quantity\nonly,two\n")
    code, _, err = run(capsys, "report", str(bad))
    assert code == 2
    assert "malformed" in err


def test_ineq_subcommand_exit_codes(capsys):
    code, out, _ = run(capsys, "ineq", "griffiths", "--lattice",
                       "box:d=2,L=2", "--beta", "0.5", "--trials", "5")
    assert code == 0


def test_verify_dobrushin(capsys):
    code, out, _ = run(capsys, "verify", "dobrushin", "--lattice",
                       "box:d=2,L=3", "--beta", "0.5")
    assert code == 0
    assert "dobrushin_mag" in out


def test_verify_fold_past_sixteen_pattern_bits(capsys):
    # the 5x4 fold has 17 folded pattern bits, within the one support cap
    code, out, err = run(capsys, "verify", "fold", "--lattice",
                         "box:d=2,L=5,4", "--beta", "0.4")
    assert (code, err) == (0, "")
    row = out.splitlines()[2].split(",")
    assert row[1] == "folded_correlation" and row[6] == "true"
    assert float(row[2]) == pytest.approx(float(row[3]), rel=1e-12)


def test_graph_file_input(tmp_path, capsys):
    gf = tmp_path / "tri.txt"
    gf.write_text("edge 0 1 1.0\nedge 1 2 1.0\nedge 0 2 1.0\n")
    code, out, _ = run(capsys, "verify", "fkrcr", "--graph", str(gf),
                       "--beta", str(math.atanh(0.5)))
    assert code == 0
    assert ",true," in out


def test_non_finite_row_fails(capsys):
    # Z = e^960-ish exceeds float64 at beta=80, so its value row must fail
    code, out, _ = run(capsys, "exact", "z", "--lattice", "box:d=2,L=3",
                       "--beta", "80")
    assert code == 1
    row = out.splitlines()[2].split(",")
    assert row[2] == "inf" and row[6] == "false"
    # the correlation is a ratio of shifted weights and stays finite
    code, out, _ = run(capsys, "exact", "corr", "--lattice", "box:d=2,L=3",
                       "--beta", "80", "--sites", "0,4")
    assert code == 0
    row = out.splitlines()[2].split(",")
    assert row[2] == "1" and row[6] == "true"


@pytest.mark.parametrize("argv", [
    ["gauge", "z", "--beta", "80"],
    ["gauge", "dualcheck", "--beta", "80"],
    ["verify", "duality", "--beta", "80"],
    # each term is finite but their fsum overflows
    ["gauge", "z", "--beta", "20.3"],
    # cosh beta itself is past the float range
    ["gauge", "dualcheck", "--beta", "800"],
])
def test_chain_sum_overflow_is_failing_row(capsys, argv):
    code, out, err = run(capsys, *argv, "--lattice", "box:d=3,L=3")
    assert code == 1
    assert err == ""
    row = out.splitlines()[2].split(",")
    assert row[2] == "inf" and row[6] == "false"


def test_duality_certifies_three_cubed_cells(capsys):
    # 3x3x3 cells: 2^27 closed chains, at the chain cap
    code, out, err = run(capsys, "verify", "duality", "--lattice",
                         "box:d=3,L=4", "--beta", "0.4")
    assert code == 0
    assert err == ""
    row = out.splitlines()[2].split(",")
    assert row[1] == "gauge_duality" and row[6] == "true"


def test_3d_wilson_loop_is_finite_at_large_beta(capsys):
    # both shifted chain sums leave the float range at beta 80 (this row
    # was nan); the ratio of weight-counted tanh sums stays finite
    code, out, err = run(capsys, "gauge", "wilson", "--lattice",
                         "box:d=3,L=3", "--beta", "80")
    assert code == 0
    assert err == ""
    row = out.splitlines()[2].split(",")
    assert row[1] == "wilson_1x1"
    assert row[2] == row[3] == "1" and row[6] == "true"


@pytest.mark.parametrize("beta_args", [["--beta", "nan"], ["--beta", "inf"],
                                       ["--beta-sweep", "0.1:nan:0.1"]])
def test_non_finite_beta_is_usage_error(capsys, beta_args):
    code, out, err = run(capsys, "exact", "z", "--lattice", "box:d=2,L=2",
                         *beta_args)
    assert code == 2
    assert "finite" in err
    assert out == ""


@pytest.mark.parametrize("sites", ["0,99", "3,-1"])
def test_out_of_range_site_is_usage_error(capsys, sites):
    code, out, err = run(capsys, "exact", "corr", "--lattice", "box:d=2,L=3",
                         "--beta", "0.4", "--sites", sites)
    assert code == 2
    assert "not a vertex" in err


@pytest.mark.parametrize("what", ["switching", "xtoy", "ursell",
                                  "frustration", "boundary", "disorder",
                                  "fold", "dobrushin", "fkrcr", "duality",
                                  "pathprops"])
def test_verify_rejects_fields(tmp_path, capsys, what):
    # no verify identity carries fields: a zero-field row would pass
    # (z_ratio_ff 0.92665 here, against 0.95801 with the fields)
    gf = tmp_path / "tri.txt"
    gf.write_text("vertex 0 h=0.8\nvertex 2 g=-0.6\n"
                  "edge 0 1 1.0\nedge 1 2 1.0\nedge 0 2 1.0\n")
    sites = ["--sites", "0,1"] if "--sites" in VERBS["verify"][what].reads \
        else []
    code, out, err = run(capsys, "verify", what, "--graph", str(gf),
                         "--beta", "0.5", *sites)
    assert code == 2
    assert "fields" in err
    assert out == ""


@pytest.mark.parametrize("argv", [["verify", "dobrushin"],
                                  ["ineq", "vanbeijeren"],
                                  ["verify", "fold"], ["ineq", "smms"]])
def test_box_only_commands_refuse_graph_files(tmp_path, capsys, argv):
    # dobrushin and vanbeijeren died with an AttributeError on a graph file
    gf = tmp_path / "tri.txt"
    gf.write_text("edge 0 1 1.0\nedge 1 2 1.0\nedge 0 2 1.0\n")
    code, out, err = run(capsys, *argv, "--graph", str(gf), "--beta", "0.5")
    assert code == 2
    assert "needs a --lattice box" in err
    assert out == ""


@pytest.mark.parametrize("verb, lattice, beta, kinds", [
    pytest.param(["ineq", "smms"], lattice, "0.4",
                 ["smms_monotone", "smms_remainder_le", "smms_remainder_ge"],
                 id=lattice) for lattice in ("box:d=2,L=4", "box:d=2,L=4,3")
] + [
    pytest.param(["verify", "fold"], lattice, beta, ["folded_correlation"],
                 id="fold-%s-%s" % (lattice, beta))
    for lattice in ("box:d=2,L=4", "box:d=2,L=4,3") for beta in ("0.4", "0.9")
])
def test_smms_on_an_even_side_reflects_in_the_mid_edge_plane(
        capsys, verb, lattice, beta, kinds):
    # an even first side has no vertex plane of symmetry: `ineq smms` and
    # `verify fold` took the integer plane (L - 1) // 2 and exited 2 with
    # "plane is not a symmetry plane"
    code, out, err = run(capsys, *verb, "--lattice", lattice, "--beta", beta)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert [r[1] for r in rows] == kinds
    assert all(r[6] == "true" for r in rows)


def test_boundary_refuses_free_designation(tmp_path, capsys):
    # with vertex 6 free, z_ratio_boundary compared 0.569 with 0.611 and
    # the verb exited 1: the two sides took different boundary conditions
    gf = tmp_path / "g7.txt"
    gf.write_text("edge 0 1 0.7\nedge 1 2 0.8\nedge 2 3 0.9\nedge 3 4 1.0\n"
                  "edge 1 5 0.75\nedge 5 3 0.85\nedge 5 6 0.95\n"
                  "boundary 0 minus\nboundary 4 plus\nboundary 6 free\n")
    code, out, err = run(capsys, "verify", "boundary", "--graph", str(gf),
                         "--beta", "0.7")
    assert code == 2
    assert "free" in err
    assert out == ""


@pytest.mark.parametrize("loop, lattice, message", [
    ("2", "box:d=3,L=2", "does not fit"),
    ("2", "box:d=3,L=2,3,3", "does not fit"),
    ("0", "box:d=2,L=3", "positive"),
    ("-2", "box:d=2,L=3", "positive"),
])
def test_wilson_loop_that_does_not_fit_is_usage_error(capsys, loop, lattice,
                                                      message):
    code, out, err = run(capsys, "gauge", "wilson", "--loop", loop,
                         "--lattice", lattice, "--beta", "0.3")
    assert code == 2
    assert message in err
    assert out == ""


C4_EDGES = "edge 0 1 1.0\nedge 1 2 1.0\nedge 2 3 1.0\nedge 3 0 1.0\n"


@pytest.mark.parametrize("argv", [
    ["exact", "u4"], ["ineq", "ghs"], ["ineq", "simonlieb"],
    ["ineq", "tree"], ["sample", "sw"], ["sample", "currents"]])
def test_commands_without_fields_refuse_them(tmp_path, capsys, argv):
    # these ignored the fields and passed with the zero-field answer
    # (exact u4 printed -0.83084 here)
    gf = tmp_path / "c4.txt"
    gf.write_text("vertex 0 h=0.8\nvertex 2 g=-0.6\n" + C4_EDGES)
    code, out, err = run(capsys, *argv, "--graph", str(gf), "--beta", "0.7")
    assert code == 2
    assert "fields" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["ineq", w] for w in ("griffiths", "ghs", "simonlieb", "dss", "smms",
                          "vanbeijeren")] + [
    ["ineq", "tree", "--sites", "0,2,6,8"], ["gauge", "deconfine"],
    ["sample", "currents"]] + [
    ["verify", w] for w in ("xtoy", "switching", "ursell", "frustration",
                            "disorder", "fold", "fkrcr", "pathprops")])
def test_commands_without_a_boundary_refuse_one(capsys, argv):
    # these dropped the boundary: ineq tree printed the free box's row,
    # lhs 0.032341136862245143, rhs 0.1221730261696356, pass=true
    for bc in ("pm", "plus"):
        code, out, err = run(capsys, *argv, "--lattice",
                             "box:d=2,L=3,bc=" + bc, "--beta", "0.4")
        assert code == 2
        assert "does not support a boundary" in err
        assert out == ""


@pytest.mark.parametrize("argv", [["verify", "dobrushin"],
                                  ["exact", "tension"]])
def test_own_dobrushin_split_refuses_another_boundary(capsys, argv):
    # both build the box's own Dobrushin split; bc=pm is that split
    code, out, err = run(capsys, *argv, "--lattice", "box:d=2,L=3,bc=plus",
                         "--beta", "0.4")
    assert (code, out) == (2, "")
    assert "other than its own bc=pm split" in err
    code, _, err = run(capsys, *argv, "--lattice", "box:d=2,L=3,bc=pm",
                       "--beta", "0.4")
    assert (code, err) == (0, "")


def test_metropolis_and_griffiths_use_graph_fields(tmp_path, capsys):
    from isinglab import spins
    from isinglab.graphs import parse_graph_file
    gf = tmp_path / "c4.txt"
    gf.write_text("vertex 0 h=0.8\nvertex 2 h=0.3\n" + C4_EDGES)
    graph, coup, fields, _ = parse_graph_file(gf.read_text())
    c = coup.with_beta(0.7 * coup.beta)
    code, out, _ = run(capsys, "sample", "metropolis", "--graph", str(gf),
                       "--beta", "0.7", "--sites", "0,2", "--trials", "400",
                       "--seed", "1")
    row = out.splitlines()[2].split(",")
    assert row[1] == "sampler_metropolis"
    assert float(row[3]) == spins.expectation(graph, c, [0, 2],
                                              fields=fields)
    code, out, _ = run(capsys, "ineq", "griffiths", "--graph", str(gf),
                       "--beta", "0.7")
    assert code == 0
    # with a field the one-point functions are rows too
    first = out.splitlines()[2].split(",")
    assert float(first[3]) == spins.expectation(graph, c, [0], fields=fields)


SAMPLE_CURRENTS = ["sample", "currents", "--lattice", "box:d=2,L=3",
                   "--beta", "0.35", "--sites", "0,4"]


@pytest.mark.parametrize("seed", ["3", "4", "5"])
def test_zero_variance_currents_sample_uses_score_interval(capsys, seed):
    # all 20 draws are 0, so the batch stderr is 0; the exact value 0.0237
    # lies in the z = 4 Wilson interval [0, 0.444] of 0 successes in 20
    code, out, _ = run(capsys, *SAMPLE_CURRENTS, "--seed", seed)
    row = out.splitlines()[2].split(",")
    assert row[1:3] == ["sampler_currents", "0"]
    assert row[6] == "true"
    assert code == 0


def test_currents_sample_with_spread_keeps_stderr_gate(capsys):
    # rhs is the single-current support law, a ratio of sums of positive
    # subgraph weights; it sits 5e-16 relative from the high-precision value
    code, out, _ = run(capsys, *SAMPLE_CURRENTS, "--seed", "6")
    assert code == 0
    row = out.splitlines()[2].rsplit(",", 1)[0]
    assert row == (
        "beta=0.35,sampler_currents,0.050000000000000003,"
        "0.023695369053489786,0.026304630946510216,"
        "-0.026304630946510216,true")
    rhs = float(row.split(",")[3])
    assert rhs == pytest.approx(0.02369536905348979839, rel=1e-15, abs=0)


@pytest.mark.parametrize("what,seed", [("metropolis", "1"),
                                       ("metropolis", "2"),
                                       ("metropolis", "3"), ("sw", "1")])
def test_zero_variance_chain_gates_on_exact_variance(capsys, what, seed):
    # at beta 3 every draw of s_0 s_1 is 1, so the batch stderr is 0; the
    # gate is 4 sqrt((1 - exact^2) / n), the iid error of n exact draws
    code, out, _ = run(capsys, "sample", what, "--lattice", "box:d=2,L=2",
                       "--beta", "3", "--trials", "20", "--seed", seed)
    rows = {r.split(",")[1]: r.split(",") for r in out.splitlines()[2:]}
    assert rows["sampler_stderr"][2] == "0"
    assert rows["sampler_" + what][2] == "1"
    assert rows["sampler_" + what][6] == "true"
    assert code == 0


@pytest.mark.parametrize("what", ["metropolis", "sw"])
def test_zero_variance_chain_still_fails_a_wrong_exact(capsys, monkeypatch,
                                                        what):
    from isinglab import spins
    monkeypatch.setattr(spins, "expectation", lambda *a, **kw: 0.0)
    code, out, _ = run(capsys, "sample", what, "--lattice", "box:d=2,L=2",
                       "--beta", "3", "--trials", "20", "--seed", "1")
    rows = {r.split(",")[1]: r.split(",") for r in out.splitlines()[2:]}
    assert rows["sampler_stderr"][2] == "0"
    assert rows["sampler_" + what][2:4] == ["1", "0"]
    assert rows["sampler_" + what][6] == "false"
    assert code == 1


def test_currents_sample_past_the_support_caps_is_usage_error(capsys):
    # 4x4 has 24 edges, past the 20-edge cap of the single-current law
    code, out, err = run(capsys, "sample", "currents", "--lattice",
                         "box:d=2,L=4", "--beta", "0.3")
    assert code == 2
    assert "cap" in err
    assert out == ""


def test_currents_sample_that_accepts_nothing_is_usage_error(capsys):
    # the rejection sampler's probe accepts none of its 1000 proposals here
    code, out, err = run(capsys, "sample", "currents", "--lattice",
                         "box:d=2,L=3,4", "--beta", "0.8", "--sites", "0,11",
                         "--seed", "1")
    assert code == 2
    assert err.startswith("error: acceptance")
    assert out == ""


@pytest.mark.parametrize("what", ["metropolis", "sw", "currents"])
@pytest.mark.parametrize("trials", ["0", "5"])
def test_fewer_trials_than_batches_is_usage_error(capsys, what, trials):
    code, out, err = run(capsys, "sample", what, "--lattice", "box:d=2,L=2",
                         "--beta", "0.4", "--trials", trials)
    assert code == 2
    assert "--trials" in err
    assert out == ""


@pytest.mark.parametrize("argv, quantity", [
    (["exact", "tension", "--lattice", "box:d=2,L=3,4,bc=pm"],
     "surface_tension"),
    (["verify", "disorder", "--lattice", "box:d=2,L=3", "--trials", "3"],
     "disorder_ratio"),
    (["verify", "frustration", "--lattice", "box:d=2,L=3"], "z_ratio_ff"),
    (["verify", "boundary", "--lattice", "box:d=2,L=3,bc=pm"],
     "z_ratio_boundary"),
    (["verify", "dobrushin", "--lattice", "box:d=2,L=3,5,bc=pm"],
     "dobrushin_ratio"),
])
def test_spin_side_ratios_finite_at_large_beta(capsys, argv, quantity):
    # every Z here is past the float range at beta 80 (these lhs were nan);
    # the current sides still overflow, so only the spin side is checked
    _, out, _ = run(capsys, *argv, "--beta", "80")
    rows = [line.split(",") for line in out.splitlines()[2:]]
    lhs = [float(r[2]) for r in rows if r[1] == quantity]
    assert lhs and all(math.isfinite(v) and v > 0 for v in lhs)
    if quantity == "surface_tension":
        assert rows[0][2:4] == ["160", "160"] and rows[0][6] == "true"


def test_pathprops_past_twenty_edges(capsys):
    # 3x5: 22 edges, a coset of dimension 8
    code, out, _ = run(capsys, "verify", "pathprops", "--lattice",
                       "box:d=2,L=3,5", "--sites", "0,14", "--beta", "0.4")
    assert code == 0
    rows = out.splitlines()[2:]
    assert len(rows) == 4
    assert all(row.split(",")[6] == "true" for row in rows)


def test_pathprops_with_an_odd_source_set_is_usage_error(capsys):
    # --sites 4,4 is the source set {4}: no current has it
    code, out, err = run(capsys, "verify", "pathprops", "--lattice",
                         "box:d=2,L=3", "--sites", "4,4", "--beta", "0.4")
    assert code == 2
    assert "odd source set" in err
    assert out == ""


@pytest.mark.parametrize("lattice", ["box:d=2,L=3", "box:d=2,L=3,4"])
@pytest.mark.parametrize("what", ["xtoy", "switching", "ursell", "fkrcr"])
def test_double_current_verbs_on_3x3_and_3x4(capsys, what, lattice):
    # 12 and 17 edges: the support law weighs 2^E patterns, where the
    # per-class recursion needed 5^E
    start = time.perf_counter()
    trials = ["--trials", "2"] if what == "switching" else []
    code, out, err = run(capsys, "verify", what, "--lattice", lattice,
                         *trials, "--beta", "0.4")
    assert time.perf_counter() - start < 5.0
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert rows and all(row[6] == "true" for row in rows)


def test_fkrcr_spin_leg_catches_a_wrong_double_law(capsys, monkeypatch):
    # fk_sq_vs_rcr compares two users of the support kernel; the spin leg
    # rcr_vs_corr_sq fails when the double law weighs even edges by cosh K
    # instead of cosh K - 1, while the FK side still matches the spins
    argv = ["verify", "fkrcr", "--lattice", "box:d=2,L=3", "--beta", "0.4"]
    passes = lambda out: {row.split(",")[1]: row.split(",")[6]
                          for row in out.splitlines()[2:]}
    _, out, _ = run(capsys, *argv)
    assert passes(out) == {"fk_sq_vs_rcr": "true", "fk_vs_corr": "true",
                           "rcr_vs_corr_sq": "true"}
    table = doubled.edge_weight_table
    monkeypatch.setattr(doubled, "edge_weight_table", lambda c: [
        (one, s, c1 + 1.0) for one, s, c1 in table(c)])
    _, out, _ = run(capsys, *argv)
    got = passes(out)
    assert got["rcr_vs_corr_sq"] == "false"
    assert got["fk_vs_corr"] == "true"


@pytest.mark.parametrize("trials", [20, 50])
def test_score_interval_tolerance_is_never_negative(capsys, trials):
    # every draw connects 0 and 3 and the exact law is 1 to the last digit;
    # the end of the score interval at mean 1 used to round to 1 - 1.1e-16,
    # a tolerance of -1.1e-16 that failed abs_diff 0
    from isinglab.cli import _wilson_tol
    assert _wilson_tol(1.0, trials, 1.0) == 0.0
    code, out, _ = run(capsys, "sample", "currents", "--lattice",
                       "box:d=2,L=2", "--beta", "20", "--seed", "1",
                       "--sites", "0,3", "--trials", str(trials))
    row = out.splitlines()[2].split(",")
    assert row[1:7] == ["sampler_currents", "1", "1", "0", "0", "true"]
    assert code == 0


@pytest.mark.parametrize("argv", [["sample", "currents"],
                                  ["verify", "frustration"],
                                  ["verify", "disorder"], ["verify", "xtoy"],
                                  ["verify", "fkrcr"]])
def test_overflowing_current_weights_are_usage_errors(capsys, argv):
    # sinh 800 is past the float range
    code, out, err = run(capsys, *argv, "--lattice", "box:d=2,L=2",
                         "--beta", "800")
    assert code == 2
    assert err.startswith("error: edge 0: K = 800.0 overflows")
    assert out == ""


def test_pathprops_nan_rows_fail(capsys):
    # at beta 80 the grouping is nan; a worst-of over nan used to read 0
    # and the zeta bound 1, both with pass=true
    code, out, _ = run(capsys, "verify", "pathprops", "--lattice",
                       "box:d=2,L=3", "--sites", "0,8", "--beta", "80")
    assert code == 1
    got = {line.split(",")[1]: line.split(",")[6]
           for line in out.splitlines()[2:]}
    assert got["backbone_rho_vs_grouping"] == "false"
    assert got["backbone_zeta_bounded"] == "false"


def test_pathprops_past_the_float_range_fails_its_rows(tmp_path, capsys):
    # on this signed graph at beta 80 the grouping's current sum Z is 0:
    # it used to end in a ZeroDivisionError traceback; now its weights are
    # nan and their rows fail
    gf = tmp_path / "signed.txt"
    gf.write_text(SIGNED)
    code, out, err = run(capsys, "verify", "pathprops", "--graph", str(gf),
                         "--sites", "0,4", "--beta", "80")
    assert (code, err) == (1, "")
    got = {line.split(",")[1]: line.split(",")[6]
           for line in out.splitlines()[2:]}
    assert got["backbone_completeness"] == "false"
    assert got["backbone_rho_vs_grouping"] == "false"


@pytest.mark.parametrize("what", ["xtoy", "ursell"])
def test_current_identities_refuse_signed_couplings(tmp_path, capsys, what):
    # the current sides are laws of |J|: these rows used to fail, exit 1
    gf = tmp_path / "signed.txt"
    gf.write_text("edge 0 2 1.329\nedge 0 1 0.034\nedge 1 3 1.429\n"
                  "edge 2 3 -1.257\n")
    code, out, err = run(capsys, "verify", what, "--graph", str(gf),
                         "--beta", "0.4")
    assert code == 2
    assert "ferromagnetic" in err
    assert out == ""


@pytest.mark.parametrize("argv", [["disorder", "--trials", "3"], ["fkrcr"]])
def test_support_laws_at_nineteen_edges(capsys, argv):
    # the 2x7 box has 19 edges, past the old 18-bit cap of the double law
    code, out, err = run(capsys, "verify", argv[0], "--lattice",
                         "box:d=2,L=2,7", "--beta", "0.4", *argv[1:])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 5


def test_frustration_correlation_of_a_site_with_itself(capsys):
    # <s_4 s_4> = 1 on both sides; the sign query used to need an edge at
    # site 4 in the support and gave 0.0100, 0.555 and 0.993
    code, out, err = run(capsys, "verify", "frustration", "--lattice",
                         "box:d=2,L=3", "--sites", "4,4",
                         "--beta-sweep", "0.05:0.85:0.4")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[2:]]
    corr = [row for row in rows if row[1] == "corr_product_ff"]
    assert [row[2:4] for row in corr] == [["1", "1"]] * 3


@pytest.mark.parametrize("lattice", ["box:d=2,L=4,3", "box:d=2,L=2,3"])
def test_deconfine_disorder_has_a_spin_leg(capsys, monkeypatch, lattice):
    # wilson_ge_disconnect compares two support-law users; disorder_vs_spin
    # checks <T_F> against the spin oracle and fails when the double law
    # weighs even edges by cosh K instead of cosh K - 1
    argv = ["gauge", "deconfine", "--lattice", lattice,
            "--beta-sweep", "0.2:1.2:0.5"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert [row[6] for row in rows if row[1] == "disorder_vs_spin"] == [
        "true"] * 3
    table = doubled.edge_weight_table
    monkeypatch.setattr(doubled, "edge_weight_table", lambda c: [
        (one, s, c1 + 1.0) for one, s, c1 in table(c)])
    code, out, _ = run(capsys, *argv)
    assert code == 1
    got = {(row[0], row[1]): row[6] for row in
           (line.split(",") for line in out.splitlines()[2:])}
    assert got[("beta=0.7", "disorder_vs_spin")] == "false"


# a signed graph with frustrated cycles
SIGNED = ("edge 0 1 1.0\nedge 1 2 -0.7\nedge 2 3 0.9\nedge 3 0 1.2\n"
          "edge 0 2 -0.4\nedge 3 4 0.8\nedge 4 5 -1.1\nedge 5 0 0.6\n")


def test_frustration_past_the_float_range_fails_its_rows(tmp_path, capsys):
    # at beta 80 the signed terms overflow to both infinities: their sum is
    # nan, so both rows fail (exit 1) and no usage error (exit 2) is raised
    gf = tmp_path / "signed.txt"
    gf.write_text(SIGNED)
    for beta, code, ok in (("0.4", 0, "true"), ("80", 1, "false")):
        got, out, err = run(capsys, "verify", "frustration", "--graph",
                            str(gf), "--beta", beta)
        assert (got, err) == (code, "")
        assert sorted(line.split(",")[1] + "," + line.split(",")[6]
                      for line in out.splitlines()[2:]) == [
            "corr_product_ff," + ok, "z_ratio_ff," + ok]


@pytest.mark.parametrize("argv, tables", [
    (["boundary", "--lattice", "box:d=2,L=3,4,bc=pm"], 5),
    (["frustration", "--graph", "SIGNED"], 4)])
def test_verify_builds_each_table_and_instance_once(tmp_path, capsys, work,
                                                    argv, tables):
    # one law call and one spin call per identity family: each table is
    # built once and each of the two spin instances is weighed once
    gf = tmp_path / "signed.txt"
    gf.write_text(SIGNED)
    argv = [str(gf) if a == "SIGNED" else a for a in argv]
    code, _, _ = run(capsys, "verify", *argv, "--beta", "0.4")
    assert code == 0
    assert work["tables"] == tables
    assert len(work["weighed"]) == 2


@pytest.mark.parametrize("argv, weighed, tables", [
    (["verify", "pathprops", "--lattice", "box:d=2,L=3"], 14, 0),
    (["verify", "ursell", "--lattice", "box:d=2,L=3"], 1, 4),
    (["verify", "frustration", "--lattice", "box:d=2,L=3"], 1, 4),
    (["verify", "disorder", "--lattice", "box:d=2,L=3"], 18, 22),
    (["verify", "boundary", "--lattice", "box:d=2,L=3,4,bc=pm"], 2, 5),
    (["verify", "dobrushin", "--lattice", "box:d=2,L=3,5,bc=pm"], 5, 2),
    (["verify", "fold", "--lattice", "box:d=2,L=5,3"], 1, 2),
    (["verify", "xtoy", "--lattice", "box:d=2,L=3"], 1, 2),
    (["verify", "fkrcr", "--lattice", "box:d=2,L=3"], 1, 2),
    (["gauge", "deconfine", "--lattice", "box:d=2,L=4,3"], 2, 3),
    (["exact", "corr", "--lattice", "box:d=2,L=3"], 1, 0),
    (["exact", "u4", "--lattice", "box:d=2,L=3"], 1, 0),
    (["ineq", "tree", "--lattice", "box:d=2,L=3"], 1, 0)])
def test_spin_verbs_weigh_and_tabulate_their_pinned_counts(capsys, work,
                                                           argv, weighed,
                                                           tables):
    # spin instances weighed and double-law tables built at beta 0.4, so a
    # verb that comes to weigh or build more fails here.
    # verify disorder asks its 20 trials (17 distinct flip sets) and the
    # plain box in one family call, and builds G and Q({}) once beside one
    # signed Q per trial; gauge deconfine weighs the plain box once, for its
    # pair correlations and the spin leg of <T_F>
    code, _, _ = run(capsys, *argv, "--beta", "0.4")
    assert code == 0
    assert (len(work["weighed"]), work["tables"]) == (weighed, tables)


# a value for each flag some verb reads; the graph file need not exist,
# since a verb that does not read --graph refuses it unread
FLAG_VALUES = {"--graph": "/nonexistent", "--lattice": "box:d=2,L=2",
               "--seed": "3", "--tol": "1e-3", "--trials": "5",
               "--sites": "0,1", "--loop": "1"}


@pytest.mark.parametrize("argv", [
    ["exact", "z", "--seed", "3"], ["exact", "z", "--trials", "5"],
    ["exact", "z", "--tol", "1e-3"], ["ineq", "ghs", "--seed", "3"],
    ["gauge", "z", "--seed", "3"], ["gauge", "z", "--trials", "5"],
    ["gauge", "z", "--sites", "0,1"], ["sample", "sw", "--tol", "1e-3"]] + [
    [command, what, flag, value] for command, verbs in VERBS.items()
    for what, verb in verbs.items() for flag, value in FLAG_VALUES.items()
    if flag not in verb.reads])
def test_a_subcommand_refuses_flags_it_would_ignore(capsys, argv):
    # exact z --sites, ineq ghs --trials, verify fold --sites, verify
    # duality --seed and gauge dualbeta --graph used to run and ignore them
    verb = VERBS[argv[0]][argv[1]]
    instance = ["--lattice", "box:d=2,L=2"] if "--lattice" in verb.reads \
        and "--lattice" not in argv else []
    code, out, err = run(capsys, *argv, *instance, "--beta", "0.4")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: " + " ".join(argv[2:]) in err


@pytest.mark.parametrize("what, hook", [("switching", "verify_switching"),
                                        ("disorder", "disorder_expectations")])
def test_a_beta_sweep_draws_one_stream(capsys, monkeypatch, what, hook):
    # the random sets of a sweep continue one --seed stream across the
    # betas: two betas of two trials draw what one beta of four draws
    drawn, call = [], getattr(doubled, hook)
    monkeypatch.setattr(doubled, hook, lambda graph, c, *sets: (
        drawn.append(sets), call(graph, c, *sets))[1])
    trials = lambda: drawn if what == "switching" else [
        flip for (flips,) in drawn for flip in flips]
    argv = ["verify", what, "--lattice", "box:d=2,L=3", "--seed", "5"]
    run(capsys, *argv, "--beta-sweep", "0.2:0.4:0.2", "--trials", "2")
    swept = list(trials())
    drawn.clear()
    run(capsys, *argv, "--beta", "0.2", "--trials", "4")
    assert len(swept) == 4 and swept == trials()


def test_a_dispatch_builds_only_the_parsers_on_its_path(capsys, monkeypatch):
    # one parser per verb, all built on every dispatch, cost about four
    # times the whole parse of six eager subcommand parsers
    from isinglab import cli
    built, init = [], cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, **kw: (
        built.append(kw["prog"]), init(self, **kw))[1])
    code, _, _ = run(capsys, "gauge", "dualbeta", "--beta", "0.5")
    assert code == 0
    assert built == ["isinglab", "isinglab gauge", "isinglab gauge dualbeta"]


@pytest.mark.parametrize("what", ["z", "wilson", "dualcheck"])
@pytest.mark.parametrize("bc", ["plus", "pm"])
def test_gauge_verbs_refuse_a_boundary(capsys, what, bc):
    # the plaquette complex has no boundary condition: these printed the
    # free complex's rows with pass=true
    code, out, err = run(capsys, "gauge", what, "--lattice",
                         "box:d=3,L=2,bc=" + bc, "--beta", "0.4")
    assert (code, out) == (2, "")
    assert "gauge %s does not support a boundary" % what in err


def test_graph_and_lattice_together_are_refused(tmp_path, capsys):
    # the lattice used to be ignored in favour of the graph file
    gf = tmp_path / "tri.txt"
    gf.write_text("edge 0 1 1.0\nedge 1 2 1.0\nedge 0 2 1.0\n")
    code, out, err = run(capsys, "exact", "z", "--graph", str(gf),
                         "--lattice", "box:d=2,L=2", "--beta", "0.4")
    assert (code, out) == (2, "")
    assert "one of --graph or --lattice" in err


def test_readme_verb_table_matches_cli():
    # README's per-verb table states each verb's inputs; it must say what
    # the CLI's table declares, verb for verb
    import pathlib
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    documented = {}
    for line in readme.read_text().splitlines():
        if line.startswith("| `"):
            verb, instance, boundary, fields, flags = (
                cell.strip().replace("`", "")
                for cell in line.strip("|").split("|"))
            documented[verb] = (instance, boundary, fields, flags.split())
    declared = {"%s %s" % (command, what): (
        verb.instance, verb.boundary, "yes" if verb.fields else "no",
        verb.flags.split())
        for command, verbs in VERBS.items() for what, verb in verbs.items()}
    assert documented == declared
