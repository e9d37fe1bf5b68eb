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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_row_fails(capsys):
    # the spin sums overflow at beta=80, so a value row must not pass
    code, out, _ = run(capsys, "exact", "corr", "--lattice", "box:d=2,L=3",
                       "--beta", "80")
    assert code == 1
    row = out.splitlines()[2].split(",")
    assert row[2] == "nan" and row[6] == "false"


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
