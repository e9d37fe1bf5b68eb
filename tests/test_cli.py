import math

import pytest

from isinglab.cli import cli_dispatch


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
    code, out, err = run(capsys, "verify", what, "--graph", str(gf),
                         "--beta", "0.5", "--sites", "0,1")
    assert code == 2
    assert "fields" in err
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
    code, out, _ = run(capsys, *SAMPLE_CURRENTS, "--seed", "6")
    assert code == 0
    assert out.splitlines()[2].rsplit(",", 1)[0] == (
        "beta=0.35,sampler_currents,0.050000000000000003,"
        "0.023695369053489786,0.026304630946510216,"
        "-0.026304630946510216,true")


@pytest.mark.parametrize("what", ["metropolis", "sw", "currents"])
@pytest.mark.parametrize("trials", ["0", "5"])
def test_fewer_trials_than_batches_is_usage_error(capsys, what, trials):
    code, out, err = run(capsys, "sample", what, "--lattice", "box:d=2,L=2",
                         "--beta", "0.4", "--trials", trials)
    assert code == 2
    assert "--trials" in err
    assert out == ""
