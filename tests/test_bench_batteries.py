"""Battery 0 of every benchmark workload at seed 1, run through the
benchmark's own runner: a change that breaks a name the benchmark calls, or
an answer it rechecks, fails here."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import battery  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", battery.WORKLOADS)
def test_first_battery_certifies(tmp_path, workload):
    res = run.run_battery(battery.build(workload, 1, 0, str(tmp_path)))
    assert res.attempted > 0
    assert res.failures == []
