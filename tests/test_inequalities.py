import math

import numpy as np
import pytest

from isinglab.graphs import (BoxGraph, Couplings, FieldSpec, Graph,
                             parse_graph_file, reflection_for_axis)
from isinglab import inequalities as iq
from isinglab import spins


def test_griffiths_on_field_instance():
    g = Graph(3, [(0, 1), (1, 2)])
    c = Couplings(g, [0.8, 0.4], 1.0)
    f = FieldSpec(3, h=[0.2, 0.0, 0.5])
    reps = iq.griffiths_suite(g, c, fields=f)
    assert reps and all(r.ok for r in reps)
    # odd correlators appear once a field is present
    assert any(r.ineq_id == "griffiths1" and "(0,)" in r.descriptor
               for r in reps)


def test_griffiths_rejects_mixed_signs():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        iq.griffiths_suite(g, Couplings(g, [-1.0], 0.5))


def test_ghs_suite_passes_and_reports_ratio():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    c = Couplings(g, 1.0, 0.5)
    reps = iq.ghs_suite(g, c)
    assert all(r.ok for r in reps)
    assert any("tree-ratio" in r.descriptor for r in reps)
    assert any(r.ineq_id == "ghs_concave" for r in reps)


def test_simon_lieb_both_forms():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (2, 4)])
    c = Couplings(g, 1.0, 0.6)
    reps = iq.simon_lieb_suite(g, c, 0, 4, {2, 3})
    assert len(reps) == 2 and all(r.ok for r in reps)


def test_simon_lieb_requires_cut():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    c = Couplings(g, 1.0, 0.5)
    with pytest.raises(ValueError):
        iq.simon_lieb_suite(g, c, 0, 2, {1})
    # nothing separates x from itself, even with every neighbour in S
    with pytest.raises(ValueError):
        iq.simon_lieb_suite(g, c, 0, 0, {1, 2})


def test_simon_lieb_sides_of_the_cut():
    # x = 0 with a leaf 6; S = {2, 3} joined by an S-S edge; y = 5
    g = Graph(7, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5),
                  (0, 6)])
    c = Couplings(g, [0.9, 0.5, 0.7, 0.4, 0.8, 0.6, 1.0, 0.3], 0.8)
    site, edge = iq.simon_lieb_suite(g, c, 0, 5, {2, 3})
    # the edge form's B is the x-side {0, 1, 6} plus S
    assert edge.descriptor == "cut B=[0, 1, 2, 3, 6], x=0, y=5"
    # G_{S,x}: the x-side and S, without the S-S edge (2, 3)
    sub = Graph(5, [(0, 1), (1, 2), (1, 3), (0, 4)])
    subc = Couplings(sub, [0.9, 0.5, 0.7, 0.3], 0.8)
    rhs = sum(spins.expectation(sub, subc, [0, k])
              * spins.expectation(g, c, [u, 5]) for k, u in ((2, 2), (3, 3)))
    assert site.rhs == pytest.approx(rhs, rel=1e-14)


def test_simon_lieb_tree_saturation():
    """On a tree, cutting at a path vertex makes the site bound an equality."""
    # path 0-1-2-3 with a dangling leaf at 1
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    c = Couplings(g, [0.9, 0.5, 0.7, 0.3], 1.0)
    reps = iq.simon_lieb_suite(g, c, 0, 3, {2})
    site = next(r for r in reps if r.ineq_id == "simon_lieb_site")
    assert abs(site.lhs - site.rhs) <= 1e-12
    edge = next(r for r in reps if r.ineq_id == "simon_lieb_edge")
    assert edge.ok


def test_dss_suite():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    c = Couplings(g, 1.0, 0.5)
    f = FieldSpec(4, h=[0.4, 0.1, 0.0, 0.3], g=[-0.2, 0.5, -0.1, 0.2])
    reps = iq.dss_suite(g, c, 0, f)
    assert all(r.ok for r in reps)
    ids = {r.ineq_id for r in reps}
    assert ids == {"dss_main", "dss_ghost", "dss_truncated_presumed"}
    # main and ghost forms are the same statement in two encodings
    main = next(r for r in reps if r.ineq_id == "dss_main")
    ghost = next(r for r in reps if r.ineq_id == "dss_ghost")
    assert main.lhs == pytest.approx(ghost.lhs, abs=1e-10)
    assert main.rhs == pytest.approx(ghost.rhs, abs=1e-10)


def test_smms_suite():
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 0.5)
    r = reflection_for_axis(box, c, 0, 1)
    reps = iq.smms_suite(r, 0, 1)
    assert all(rep.ok for rep in reps)


def test_van_beijeren_suite():
    box = BoxGraph(2, (3, 3))
    reps = iq.van_beijeren_suite(box, Couplings(box, 1.0, 0.6))
    assert all(r.ok for r in reps)


def test_fuzz_corpus_clean():
    reports, worst = iq.fuzz_inequalities(n_trials=40, seed=1)
    assert reports
    assert all(r.ok for r in reports)
    # the worst case is replayable: serialized graph parses back
    slack, serialized, rep = worst
    assert serialized is not None
    g2, c2, _, _ = parse_graph_file(serialized)
    assert g2.n_edges == len(c2.J)


def test_ineq_report_slack_sign():
    good = iq.IneqReport("x", "", 1.0, 2.0)
    bad = iq.IneqReport("x", "", 2.0, 1.0)
    assert good.ok and good.slack == 1.0
    assert not bad.ok
