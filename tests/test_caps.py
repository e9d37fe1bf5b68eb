"""Size caps are module constants read at the one place that allocates.

For each engine cap: the constant keeps its value, an instance one size past
it raises SizeError before any work is done, and lowering the constant moves
the boundary to the lowered value (that size still runs, the next one is
refused).  No public callable of the package takes a `cap` argument.
"""

import dataclasses
import importlib
import math
import inspect
import pkgutil

import pytest

import isinglab
from isinglab import (backbone, currents, doubled, fk, folding, gauge, gf2,
                      graphs, inequalities, samplers, spins)
from isinglab.gauge import PlaquetteComplex
from isinglab.graphs import Couplings, Graph, _build_reflection
from isinglab.spins import SizeError
import ref_flux


def _path(n_edges):
    g = Graph(n_edges + 1, [(i, i + 1) for i in range(n_edges)])
    return g, Couplings(g, 1.0, 0.3)


def _spin_sum(n_spins):
    spins.partition_function(*_path(n_spins - 1))


def _fk_sum(n_edges):
    fk.fk_measure_expectation(*_path(n_edges), {})


def _bundle(dim):
    # two vertices joined by dim + 1 parallel edges: a cycle space of
    # dimension dim, so 2^dim odd sets per source set
    g = Graph(2, [(0, 1)] * (dim + 1))
    return g, Couplings(g, 1.0, 0.3)


def _current_sum(dim):
    currents.current_sum(*_bundle(dim), {0, 1})


def _grouping(dim):
    backbone.backbone_grouping(*_bundle(dim), {0, 1})


def _single_support(n_edges):
    currents.single_support_expectations(*_path(n_edges), {})


def _double_support(n_edges):
    # 2^n_edges support patterns of a path, n_edges + 1 sigma spins
    doubled.verify_switching(*_path(n_edges), {0, 1}, {0, 1}, {0, 1})


def _folded_support(n_edges):
    # a path of 2 n_edges edges folded about its middle vertex: 2^n_edges
    # folded patterns
    g, c = _path(2 * n_edges)
    reflection = _build_reflection(g, c, {v: 2 * n_edges - v
                                          for v in g.vertices})
    folding.FoldedCurrentMeasure(reflection, {0, 2 * n_edges})


def _chain_sum(n_cells):
    # the closed chains of 1 x 1 x n cells have dimension n
    gauge.lgm_partition(PlaquetteComplex(3, (1, 1, n_cells)), 0.3)


def _gauge_oracle(n_cells):
    # 1 x 1 x n cells have 5 n + 1 plaquettes: 5 n + 2 syndrome bits
    gauge.gauge_oracle_partition(PlaquetteComplex(3, (1, 1, n_cells)), 0.3)


# module, constant, its value, engine, first refused size at that value,
# a lowered value, the largest size that runs under it
CAPS = [
    (spins, "DEFAULT_CAP", 26, _spin_sum, 27, 4, 4),
    (currents, "SUPPORT_EDGE_CAP", 20, _fk_sum, 21, 3, 3),
    (currents, "COSET_DIM_CAP", 20, _current_sum, 21, 3, 3),
    (currents, "COSET_DIM_CAP", 20, _grouping, 21, 3, 3),
    (currents, "SUPPORT_EDGE_CAP", 20, _double_support, 21, 3, 3),
    (currents, "SUPPORT_EDGE_CAP", 20, _folded_support, 21, 3, 3),
    (gauge, "CHAIN_CAP", 27, _chain_sum, 28, 2, 2),
    (gauge, "GAUGE_ORACLE_CAP", 20, _gauge_oracle, 4, 12, 2),
]
# one constant bounds both odd-set enumerations, by the coset dimension,
# and one the support patterns of all four support laws
IDS = [name + ("-" + engine.__name__[1:] if module is currents else "")
       for module, name, _, engine, *_ in CAPS]


@pytest.mark.parametrize("module, name, value, engine, refused, lowered, "
                         "runs", CAPS, ids=IDS)
def test_cap_boundary_is_kept(module, name, value, engine, refused, lowered,
                              runs):
    assert getattr(module, name) == value
    with pytest.raises(SizeError):
        engine(refused)


@pytest.mark.parametrize("module, name, value, engine, refused, lowered, "
                         "runs", CAPS, ids=IDS)
def test_lowered_cap_moves_the_boundary(monkeypatch, module, name, value,
                                        engine, refused, lowered, runs):
    monkeypatch.setattr(module, name, lowered)
    engine(runs)
    with pytest.raises(SizeError):
        engine(runs + 1)


def _public_callables():
    for info in pkgutil.iter_modules(isinglab.__path__):
        module = importlib.import_module("isinglab." + info.name)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__",
                                               None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module.__name__ + "." + attr, obj
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (meth == "__init__" or
                                                   not meth.startswith("_")):
                        yield "%s.%s.%s" % (module.__name__, attr, meth), fn


def test_no_public_callable_takes_a_cap():
    seen = dict(_public_callables())
    assert "isinglab.spins.partition_function" in seen
    assert "isinglab.gauge.PlaquetteComplex.__init__" in seen
    takes_cap = [name for name, fn in seen.items()
                 if "cap" in inspect.signature(fn).parameters]
    assert takes_cap == []


def test_single_valued_options_are_constants():
    assert [f.name for f in dataclasses.fields(samplers.ChainSpec)] == [
        "seed", "burn_in", "sweeps"]
    for fn, param in ((doubled.double_event_probability, "relaxed_boundary"),
                      (samplers.current_rejection_sampler, "relaxed_boundary"),
                      (ref_flux.truncated_flux_sum, "cutoff"),
                      (inequalities.ghs_suite, "h_grid"),
                      (graphs.generate_box_lattice, "boundary"),
                      (currents.current_sum, "signed")):
        assert param not in inspect.signature(fn).parameters
    for module, name in ((currents, "SourceConstraint"),
                         (isinglab, "SourceConstraint"),
                         (currents, "_trichotomy_chunks"),
                         (backbone, "GROUPING_EDGE_CAP"),
                         (currents, "SINGLE_EDGE_CAP"),
                         (currents, "_odd_set_chunks"),
                         (gauge, "_kernel_basis"),
                         (gauge, "_CHAIN_CHUNK_BITS"),
                         (doubled, "DOUBLE_WORK_CAP"),
                         (doubled, "double_sum_direct"),
                         (doubled, "DoubleCurrentState"),
                         (doubled, "indicator_pairable"),
                         (currents.SupportView, "pairable"),
                         (currents, "SUPPORT_SIGMA_CAP"),
                         (currents, "_sigma_sum"),
                         (currents, "_signs"),
                         (currents, "_chi"),
                         (folding, "SIGMA_CAP"),
                         (folding, "PATTERN_CAP"),
                         (gauge, "gauge_transform_mask"),
                         (doubled, "source_overlap_ratio"),
                         (backbone, "zeta_domain_monotone"),
                         (backbone, "remap_paths"),
                         (fk, "FK_EDGE_CAP"),
                         (currents, "_check_support_cap"),
                         (doubled, "double_support_expectations"),
                         (doubled.DoubleSupportMeasure, "_weigh"),
                         (doubled.DoubleSupportMeasure, "_sums"),
                         (currents, "_dobrushin_events"),
                         (currents._SupportLabels, "parity"),
                         (currents._SupportLabels, "is_ff"),
                         (currents._SupportLabels, "sgn"),
                         (currents._SupportLabels, "touched"),
                         (currents._SupportLabels, "pairable"),
                         (currents._SupportLabels, "restrict"),
                         (currents._SupportLabels, "cluster_count"),
                         (currents, "_CHUNK_BITS"),
                         (currents, "_CHUNK_CELLS"),
                         (currents, "_merge"),
                         (currents, "_pattern_labels"),
                         (currents, "cluster_count"),
                         (currents, "truncated_flux_sum"),
                         (currents, "FLUX_CUTOFF"),
                         (spins, "_shifted_partition"),
                         (doubled, "boundary_partition_ratio"),
                         (doubled, "boundary_magnetization"),
                         (doubled, "BoundaryMagnetization"),
                         (doubled, "frustrated_correlation")):
        assert not hasattr(module, name)


def test_many_constrained_vertices_need_no_cap():
    # the support laws count patterns, not constrained spins: 22 vertices,
    # all constrained, with a frustrated triangle and an edge far away.
    # Isolated spins change no normalized spin quantity, so the oracle runs
    # on the same edges over 5 vertices.
    J = [0.8, -1.1, 0.6, 0.9]
    g = Graph(22, [(0, 1), (1, 2), (0, 2), (20, 21)])
    c = Couplings(g, J, 0.7)
    h = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    ch = Couplings(h, J, 0.7)
    assert doubled.frustrated_partition_ratio(g, c) == pytest.approx(
        spins.partition_ratio(h, ch, ch.with_abs()), rel=1e-12)
    assert doubled.frustration_identities(g, c, 0, 2)[1] == pytest.approx(
        spins.expectation(h, ch, [0, 2])
        * spins.expectation(h, ch.with_abs(), [0, 2]), rel=1e-12)
    total = currents.single_support_expectations(g, c, {})["_total"]
    assert total == pytest.approx(
        spins.partition_function(h, ch.with_abs()), rel=1e-12)


def test_odd_set_cap_is_checked_before_allocating(monkeypatch):
    # both entry points reach the one check on the coset dimension before
    # any coset chunk exists
    def no_chunks(*args):
        raise AssertionError("allocated past the cap")

    monkeypatch.setattr(gf2, "coset_chunks", no_chunks)
    for engine in (_current_sum, _grouping):
        with pytest.raises(SizeError):
            engine(21)


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError("allocated past the cap")


def test_support_cap_is_checked_before_allocating(monkeypatch):
    # all four support laws reach the one check in `_subgraph_sums` before
    # any numpy array exists
    for module in (currents, fk, folding):
        monkeypatch.setattr(module, "np", _NoArrays())
    for engine in (_single_support, _double_support, _folded_support,
                   _fk_sum):
        with pytest.raises(SizeError):
            engine(21)


def test_odd_set_cap_counts_the_coset_dimension():
    # a path has a cycle space of dimension 0: no edge count binds, and a
    # 30-edge path sums its one odd set
    g, c = _path(30)
    assert currents.current_sum(g, c, {0, 30}) == pytest.approx(
        math.sinh(0.3) ** 30, rel=1e-12)
