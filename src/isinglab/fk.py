"""Exact q=2 random-cluster (FK) computations by edge-subset enumeration.

Weights: prod_{b in w} p_b prod_{b notin w} (1-p_b) * q^{N(w)}, with
p_b = 1 - exp(-2 beta |J_b|).  With a wired boundary the cluster count is
replaced by N0(w), the number of clusters not reaching a designated
boundary vertex.  Everything here is a plain 2^|E| sum over open-edge
masks, run by the support-pattern kernel of `currents`: each chunk of
masks gets numpy component labels, which give both the cluster count in
the weight and the built-in events.
"""

from __future__ import annotations

import math

import numpy as np

from .currents import _dobrushin_events, _support_expectations
from .spins import SizeError
from . import spins, doubled

FK_EDGE_CAP = 20
Q = 2.0


def fk_weights(couplings):
    """Per-edge open probability p_b = 1 - exp(-2 K_b), K_b = beta |J_b|."""
    return [1.0 - math.exp(-2.0 * couplings.K_abs(e))
            for e in range(couplings.graph.n_edges)]


def fk_measure_expectation(graph, couplings, events, boundary=None,
                           cap=FK_EDGE_CAP):
    """Normalized expectations of the named events under the FK measure.

    events: dict name -> fn(labels), where `labels` holds a chunk of open
    edge sets and the event gives one value per set, read off the label
    queries (connected, connects_sets, reached, cluster_count, is_ff, sgn,
    has_edge, touched, open_count).  `boundary` is a vertex set; when
    given, the cluster weight uses N0 (wired / plus state).
    Returns the dict of expectations plus '_total', the unnormalized sum:
    Z(|J|) e^{-beta sum |J|} 2^n, or with wired counting
    Z^+(|J|) e^{-beta sum |J|} 2^{n - |boundary|}, i.e. 2 to the number of
    free spins times the spin-oracle Z (which carries 1/2 per free spin).
    """
    E = graph.n_edges
    if E > cap:
        raise SizeError("2^%d cluster configurations exceed the cap" % E)
    p = fk_weights(couplings)

    def weigh(labels):
        w = np.ones(len(labels.masks))
        for e in range(E):
            w *= np.where(labels.masks >> e & 1, p[e], 1.0 - p[e])
        return w * Q ** labels.cluster_count(boundary)

    return _support_expectations(graph, [(e,) for e in range(E)], weigh,
                                 events)


def connection_probability(graph, couplings, x, y, cap=FK_EDGE_CAP):
    """P^FK(x <-> y); equals <s_x s_y> for ferromagnetic couplings.

    The FK measure only sees |J|, so a negative coupling raises ValueError
    instead of returning the |J| answer (see fk_frustration_adjusted)."""
    if not couplings.is_ferromagnetic:
        raise ValueError("connection_probability needs ferromagnetic "
                         "couplings; use fk_frustration_adjusted for mixed "
                         "signs")
    return fk_measure_expectation(
        graph, couplings,
        {"c": lambda labels: labels.connected(x, y)},
        cap=cap)["c"]


def fk_rcr_bridge(graph, couplings, x, y):
    """(fk_prob, rcr_prob): the FK connection probability and the
    double-current one; fk_prob^2 = rcr_prob, both tied to <s_x s_y>."""
    if not couplings.is_ferromagnetic:
        raise ValueError("the bridge identity needs ferromagnetic couplings")
    fk_prob = connection_probability(graph, couplings, x, y)
    rcr_prob = doubled.double_event_probability(
        graph, couplings, frozenset(), frozenset(),
        lambda st: 1.0 if st.view().connected(x, y) else 0.0)
    return fk_prob, rcr_prob


def fk_frustration_adjusted(graph, couplings, u=None, v=None):
    """Frustration-adjusted FK for mixed-sign J.

    Under the |J| cluster measure: Z(J)/Z(|J|) = P(w is J-frustration-free),
    and <s_u s_v>_J = E(sgn_J(u,v;w) | FF), with sgn the relative parity of
    the u-v connection across negative edges (0 when disconnected).
    Cross-checks both against the spin oracle; returns a report dict.
    """
    neg = couplings.negative_edges()
    abs_c = couplings.with_abs()
    events = {"ff": lambda labels: labels.is_ff(neg)}
    if u is not None:
        events["sgn"] = lambda labels: labels.sgn(u, v, neg)
    out = fk_measure_expectation(graph, abs_c, events)
    z_ratio = (spins.partition_function(graph, couplings)
               / spins.partition_function(graph, abs_c))
    rep = {
        "ff_prob": out["ff"],
        "z_ratio_spin": z_ratio,
        "z_match": abs(out["ff"] - z_ratio),
    }
    if u is not None:
        corr = spins.expectation(graph, couplings, [u, v])
        rep["corr_fk"] = out["sgn"] / out["ff"]
        rep["corr_spin"] = corr
        rep["corr_match"] = abs(rep["corr_fk"] - corr)
    return rep


def fk_boundary_report(graph, couplings, boundary_spec, x=None):
    """Mixed-boundary FK formulas against the clamped spin oracle.

    Computes Z^pm/Z^+ = P^{FK,+}(bdry- not<-> bdry+) and, for an interior x,
    <s_x>^pm = P(x<->bdry+ | FF) - P(x<->bdry- | FF) and
    <s_x>^+ = P(x<->bdry).
    """
    bdry = boundary_spec.plus_set | boundary_spec.minus_set
    events = _dobrushin_events(boundary_spec, x)
    out = fk_measure_expectation(graph, couplings, events, boundary=bdry)
    z_pm = spins.partition_function(graph, couplings, boundary=boundary_spec)
    z_p = spins.partition_function(graph, couplings,
                                   boundary=boundary_spec.all_plus())
    rep = {"ratio_fk": out["ff"], "ratio_spin": z_pm / z_p}
    if x is not None:
        rep["mag_pm_fk"] = (out["x_plus"] - out["x_minus"]) / out["ff"]
        rep["mag_pm_spin"] = spins.expectation(graph, couplings, [x],
                                               boundary=boundary_spec)
        rep["mag_plus_fk"] = out["x_bdry"]
        rep["mag_plus_spin"] = spins.expectation(
            graph, couplings, [x], boundary=boundary_spec.all_plus())
    return rep


# ---------------------------------------------------------------------------
# monotone event library and FKG spot checks


def monotone_event(event_id, *args):
    """Built-in increasing functions of the open edge set.

    ids: 'connect' (u, v), 'connect_sets' (U, V), 'open_count',
    'all_open' (edge list).
    """
    if event_id == "connect":
        u, v = args
        return lambda labels: labels.connected(u, v)
    if event_id == "connect_sets":
        U, V = args
        return lambda labels: labels.connects_sets(U, V)
    if event_id == "open_count":
        return lambda labels: labels.open_count()
    if event_id == "all_open":
        (edges,) = args
        need = frozenset(edges)
        return lambda labels: np.logical_and.reduce(
            [labels.has_edge(e) for e in need], initial=True)
    raise ValueError("unknown or non-monotone event id %r" % event_id)


def fkg_spot_check(graph, couplings, spec_f, spec_g, boundary=None):
    """(covariance, pass): positive association of two increasing events.

    spec_f / spec_g: (event_id, *args) tuples resolved via monotone_event.
    """
    if not couplings.is_ferromagnetic:
        raise ValueError("FKG spot checks assume ferromagnetic couplings")
    F = monotone_event(*spec_f)
    G = monotone_event(*spec_g)
    out = fk_measure_expectation(
        graph, couplings,
        {"f": F, "g": G, "fg": lambda labels: F(labels) * G(labels)},
        boundary=boundary)
    cov = out["fg"] - out["f"] * out["g"]
    return cov, cov >= -1e-12
