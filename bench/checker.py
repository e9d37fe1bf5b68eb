"""The benchmark's own pass/fail rule for one certification.

A certification is one identity or inequality whose two sides come from
different engines, or a sampler estimate set against the exact value.  The
benchmark never trusts a `pass` flag computed by the program: it rechecks
both sides itself with the tolerances below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ABS_TOL = 1e-10      # probabilities and correlations
REL_TOL = 1e-10      # partition functions and other unnormalized sums
INEQ_TOL = 1e-12     # lhs <= rhs + INEQ_TOL
STAT_SIGMAS = 4.0    # sampler gate: |mean - exact| <= 4 stderr
STAT_FLOOR = 1e-12   # the gate's floor when stderr is 0, as the CLI uses

KINDS = ("abs", "rel", "ineq", "stat")


@dataclass(frozen=True)
class Side:
    """Both sides of one certification.

    kind 'abs' and 'rel' are equalities, 'ineq' asks lhs <= rhs, 'stat'
    compares an estimate (lhs) carrying `stderr` with the exact value (rhs).
    """
    label: str
    kind: str
    lhs: float
    rhs: float
    stderr: float = 0.0


def check(side):
    """(ok, discrepancy) for one Side; non-finite values always fail."""
    if side.kind not in KINDS:
        raise ValueError("unknown certification kind %r" % side.kind)
    values = [side.lhs, side.rhs]
    if side.kind == "stat":
        values.append(side.stderr)
    if not all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values):
        return False, math.inf
    diff = abs(side.lhs - side.rhs)
    if side.kind == "abs":
        return diff <= ABS_TOL, diff
    if side.kind == "rel":
        scale = max(abs(side.lhs), abs(side.rhs))
        rel = diff / scale if scale else 0.0
        return rel <= REL_TOL, rel
    if side.kind == "ineq":
        return side.lhs <= side.rhs + INEQ_TOL, max(0.0, side.lhs - side.rhs)
    return diff <= max(STAT_SIGMAS * side.stderr, STAT_FLOOR), diff
