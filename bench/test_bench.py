"""Self-tests of the benchmark: python3 -m pytest bench -q"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import battery  # noqa: E402
import run  # noqa: E402
from checker import Side, check  # noqa: E402
from spans import Recorder, self_times  # noqa: E402


def test_self_times_on_nested_tree():
    # battery [0, 10] > cert [1, 9] > a [2, 8] > {b x3 summing 3, c [6, 7]}
    records = [
        (0, "bench.battery", None, 1, 10.0, 0.0, 10.0),
        (1, "bench.cert", 0, 1, 8.0, 1.0, 9.0),
        (2, "spins.a", 1, 1, 6.0, 2.0, 8.0),
        (3, "currents.b", 2, 3, 3.0, 2.5, 5.5),
        (4, "fk.c", 2, 1, 1.0, 6.0, 7.0),
    ]
    selfs = self_times(records)
    assert selfs == {0: 2.0, 1: 2.0, 2: 2.0, 3: 3.0, 4: 1.0}
    assert math.isclose(sum(selfs.values()), 10.0)


def test_recorder_merges_repeats_and_adds_up():
    rec = Recorder()

    def leaf():
        return sum(range(1000))

    def inner():
        return [traced_leaf() for _ in range(5)]

    traced_leaf = rec._wrap("currents.leaf", leaf)
    traced_inner = rec._wrap("spins.inner", inner)
    with rec.span("bench.battery") as root:
        for _ in range(3):
            traced_inner()
    records = rec.records()
    by_name = {r[1]: r for r in records}
    assert by_name["spins.inner"][3] == 3
    assert by_name["currents.leaf"][3] == 15
    assert len(records) == 3
    assert math.isclose(sum(self_times(records).values()), root.total)


def test_same_seed_same_instances(tmp_path):
    for workload in battery.WORKLOADS:
        a = battery.build(workload, 7, 2, str(tmp_path))
        b = battery.build(workload, 7, 2, str(tmp_path))
        c = battery.build(workload, 8, 2, str(tmp_path))
        d = battery.build(workload, 7, 3, str(tmp_path))
        fa = [(x.name, x.instance) for x in a]
        assert fa == [(x.name, x.instance) for x in b]
        assert fa != [(x.name, x.instance) for x in c]
        assert fa != [(x.name, x.instance) for x in d]


@pytest.mark.parametrize("side", [
    Side("nan", "abs", math.nan, 0.5),
    Side("inf", "rel", math.inf, math.inf),
    Side("1e-9 apart", "abs", 0.5, 0.5 + 1e-9),
    Side("1e-9 relative", "rel", 1e4, 1e4 * (1 + 1e-9)),
    Side("violated", "ineq", 1.0, 1.0 - 1e-11),
    Side("5 sigma", "stat", 0.5, 0.0, 0.1),
    Side("zero stderr", "stat", 0.5, 0.5 + 1e-9, 0.0),
    Side("nan stderr", "stat", 0.5, 0.5, math.nan),
])
def test_checker_flags(side):
    assert not check(side)[0]


@pytest.mark.parametrize("side", [
    Side("close", "abs", 0.5, 0.5 + 1e-11),
    Side("relative", "rel", 1e4, 1e4 * (1 + 1e-11)),
    Side("strict", "ineq", 0.0, 1.0),
    Side("rounding", "ineq", 1.0, 1.0 - 1e-13),
    Side("3 sigma", "stat", 0.3, 0.0, 0.1),
])
def test_checker_passes(side):
    assert check(side)[0]


def test_battery_counts_exceptions_and_disagreements():
    def boom():
        raise ValueError("boom")

    res = run.run_battery([
        battery.Cert("raises", boom, ""),
        battery.Cert("nan", lambda: [Side("x", "abs", math.nan, 0.0)], ""),
        battery.Cert("off", lambda: [Side("x", "abs", 0.0, 1e-9),
                                     Side("y", "abs", 0.0, 0.0)], ""),
    ])
    assert res.attempted == 4
    assert len(res.failures) == 3
    assert "raised ValueError" in res.failures[0]
