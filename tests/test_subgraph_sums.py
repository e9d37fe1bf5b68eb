"""The three current laws weigh every support pattern by positive subgraph
sums (`currents._subgraph_sums`).  Their spin form, the signed sigma sums of
`ref_sigma`, is the reference: every law's weights must equal it to 1e-12
of the largest weight.  The double law's exact zeros must be the patterns
where A2 does not pair within S & E2, or A1 xor A2 within S, away from the
unconstrained vertices; the sigma sum leaves residues there, and it also
cancels to 0 some weights of order 1e-35."""

import math

import numpy as np
import pytest

from isinglab.currents import _subgraph_sums, single_support_expectations
from isinglab.doubled import DoubleSupportMeasure
from isinglab.folding import FoldedCurrentMeasure
from isinglab.graphs import BoxGraph, Couplings, Graph, reflection_for_axis
from ref_sigma import (double_weights, folded_weights, pairable_mask,
                       single_weights)

SIDES = [(2, 2), (2, 3), (3, 3), (3, 4)]
BETAS = [0.05, 0.4, 0.9]


def _assert_close(got, want):
    scale = np.abs(want).max()
    assert scale > 0.0
    assert np.abs(got - want).max() <= 1e-12 * scale


def _signed_box(sides, beta):
    box = BoxGraph(2, sides)
    rng = np.random.default_rng(sum(sides))
    J = [float(j) for j in rng.uniform(-1.5, 1.5, box.n_edges)]
    return box, Couplings(box, J, beta)


def test_butterfly_on_a_triangle():
    # edges 01, 12, 02 on bits 0, 1, 2; target {0, 2}: F is {02} or
    # {01, 12}, so only the patterns that hold one of them weigh
    bounds = [0b011, 0b110, 0b101]
    a, b = [2.0, 3.0, 5.0], [7.0, 11.0, 13.0]
    h = _subgraph_sums(bounds, 0b101, a, b)
    want = np.zeros(8)
    want[0b100] = 13.0
    want[0b011] = 7.0 * 11.0
    want[0b101] = 13.0 * 2.0
    want[0b110] = 13.0 * 3.0
    want[0b111] = 7.0 * 11.0 * 5.0 + 13.0 * 2.0 * 3.0
    assert h.tolist() == want.tolist()
    # a target bit no edge touches
    assert not np.any(_subgraph_sums(bounds, -1, a, b))


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("sides", SIDES)
def test_single_law_matches_sigma_sum(monkeypatch, sides, beta):
    box, c = _signed_box(sides, beta)
    seen = {}

    def keep(bounds, target, a, b):
        seen["W"] = _subgraph_sums(bounds, target, a, b)
        return seen["W"]

    monkeypatch.setattr("isinglab.currents._subgraph_sums", keep)
    single_support_expectations(box, c, {})
    _assert_close(seen["W"], single_weights(box, c))


def _double_cases(box):
    """(constrained, A1, A2, edges2): free and relaxed, sourced and not,
    on every edge and on nested edge sets."""
    V = list(box.vertices)
    last = box.n - 1
    inner = [v for v in V if v not in (0, last)]
    nested = [e for e in range(box.n_edges) if e % 3]
    on_nested = {v for e in nested for v in box.edges[e]}
    pair2 = frozenset(sorted(on_nested)[:2])
    return [
        (V, (), (), None),
        (V, {0, last}, (), None),
        (V, {0, last}, {0, 1}, None),
        (V, (), {1, last}, None),
        (inner, (), (), None),
        (inner, inner[:2], (), None),
        (inner, inner[:2], inner[-2:], None),
        (V, {0, last}, pair2, nested),
        (V, (), pair2, nested),
        (inner, (), pair2 & set(inner), nested),
    ]


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("sides", SIDES)
def test_double_law_matches_sigma_sum(sides, beta):
    box, c = _signed_box(sides, beta)
    for constrained, A1, A2, edges2 in _double_cases(box):
        if len(A2) % 2:
            continue
        m = DoubleSupportMeasure(box, c, constrained, A1, A2, edges2)
        unconstrained = set(box.vertices) - set(constrained)
        pairs = (pairable_mask(box, A2, unconstrained, edges2)
                 & pairable_mask(box, frozenset(A1) ^ frozenset(A2),
                                 unconstrained))
        want = double_weights(box, c, constrained, A1, A2, edges2)
        _assert_close(m._W, np.where(pairs, want, 0.0))
        assert np.array_equal(m._W != 0.0, pairs)


def _fold_5x3(beta):
    box = BoxGraph(2, (5, 3))
    rng = np.random.default_rng(7)
    J = list(rng.uniform(-1.5, 1.5, box.n_edges))
    r0 = reflection_for_axis(box, Couplings(box, 1.0, beta), 0, 2)
    for e in range(box.n_edges):
        J[e] = J[r0.edge_map[e]]
    c = Couplings(box, [float(j) for j in J], beta)
    return reflection_for_axis(box, c, 0, 2)


@pytest.mark.parametrize("beta", BETAS)
def test_folded_law_matches_sigma_sum(beta):
    r = _fold_5x3(beta)
    side1 = sorted(r.lambda1)
    side2 = sorted(r.lambda2)
    plane = sorted(r.lambda0)
    for sources in [(), (side1[0], side1[4]), (side1[1], side2[2]),
                    (side2[0], side2[5]), (side1[2], plane[1]),
                    (side2[3], plane[0]), (plane[0], plane[2]),
                    (side1[0], side2[0], side2[4], plane[1])]:
        m = FoldedCurrentMeasure(r, sources)
        _assert_close(m._W, folded_weights(r, sources))


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("sides", [(3, 5), (5, 3), (3, 3)])
def test_relaxed_dobrushin_fold_matches_sigma_sum(sides, beta):
    # the fold of `folding.dobrushin_identities`: the last axis, with the
    # box boundary relaxed
    box = BoxGraph(2, sides)
    c = Couplings(box, 1.0, beta)
    r = reflection_for_axis(box, c, 1, (sides[1] - 1) // 2)
    bdry = frozenset(box.boundary_vertices())
    m = FoldedCurrentMeasure(r, relaxed_boundary=bdry)
    _assert_close(m._W, folded_weights(r, (), bdry))


def test_double_law_closed_form_on_a_cycle():
    # a 4-cycle at beta 0.05 with sources {0, 2}.  On S = the cycle, n1 is
    # odd on either half and n2 odd nowhere or everywhere: four current
    # pairs, each weighing s c on two edges and s^2 on the other two
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c = Couplings(g, 1.0, 0.05)
    m = DoubleSupportMeasure(g, c, g.vertices, {0, 2}, ())
    s, ch = math.sinh(0.05), math.cosh(0.05)
    assert m._W[0b1111] == pytest.approx(4.0 * (s * ch) ** 2 * s ** 4,
                                         rel=1e-15)
    assert m._W[0b0011] == pytest.approx((s * ch) ** 2, rel=1e-15)
    assert m._W[0b0101] == 0.0
