"""Exact q=2 random-cluster (FK) computations by edge-subset enumeration.

Weights: prod_{b in w} p_b prod_{b notin w} (1-p_b) * q^{N(w)}, with
p_b = 1 - exp(-2 beta |J_b|).  With a wired boundary the cluster count is
replaced by N0(w), the number of clusters not reaching a boundary vertex.
Everything here is a plain 2^|E| sum over open-edge masks, run by the
support-pattern kernel of `currents`, which answers the built-in events
with subgraph counts.

For q = 2 the cluster weight is a subgraph count, so FK weighs its masks
by a table of `currents._subgraph_sums`, as the current laws do.  Call the
n0 vertices off the boundary free.  The subgraphs F of w with even degree
at every free vertex, the boundary vertices left unconstrained, are the
cycle space of w with the boundary contracted to one vertex (its parity
follows from the others), of dimension |w| - n0 + N0(w).  So

    2^N0(w) = 2^(n0 - |w|) #{F within w : dF = 0 at the free vertices},

the count behind the coupling of FK clusters and even subgraphs (Grimmett
and Janson 2009, "Random even graphs"; Aizenman 1982).  The table starts as
that count, by `_subgraph_sums` with a = b = 1, times 2^n0; one pass per
edge, in edge order, then multiplies in 1 - p_b where the edge is closed and
p_b / 2 where it is open.  The count, 2^n0 and the halving are exact powers
of 2, so each weight is the float that the left-to-right product of the
plain edge factors times 2^N0 gives, unless some weight is subnormal.

Frustration and the mixed boundary are the signed counts of `doubled`: the
count built with b = s_e = +-1 and a target boundary t, before the same
edge-factor pass, is the count times 1[FF] times the sign of t's path.
"""

from __future__ import annotations

import math

import numpy as np

from .currents import _subgraph_sums, _SupportLabels, _syndromes
from . import spins, doubled

Q = 2.0


def fk_weights(couplings):
    """Per-edge open probability p_b = 1 - exp(-2 K_b), K_b = beta |J_b|."""
    return [1.0 - math.exp(-2.0 * couplings.K_abs(e))
            for e in range(couplings.graph.n_edges)]


def fk_measure_expectation(graph, couplings, events, boundary=None):
    """Normalized expectations of the named events under the FK measure.

    events: dict name -> fn(labels), where `labels` (a
    `currents._SupportLabels`) holds the open edge sets of nonzero weight and
    the event gives one value per set.  `boundary` is a vertex set; when
    given, the cluster weight uses N0 (wired / plus state).
    Returns the dict of expectations plus '_total', the unnormalized sum:
    Z(|J|) e^{-beta sum |J|} 2^n, or with wired counting
    Z^+(|J|) e^{-beta sum |J|} 2^{n - |boundary|}, i.e. 2 to the number of
    free spins times the spin-oracle Z (which carries 1/2 per free spin).
    """
    free = set(graph.vertices) - set(boundary or ())
    return _SupportLabels(graph, [(e,) for e in range(graph.n_edges)],
                          _fk_law(graph, couplings, free)(frozenset())
                          ).expectations(events)


def _fk_law(graph, couplings, free):
    """weigh(target, signs): the FK weights of all open-edge masks, with the
    count of the module docstring replaced by its signed form, the sum over
    F within w with dF = target at the free vertices of prod_F s_e;
    weigh({}) is the FK weight."""
    E, ps = graph.n_edges, fk_weights(couplings)

    def weigh(target, signs=None):
        W = _subgraph_sums(*_syndromes(graph.edges, free, target),
                           [1.0] * E, signs or [1.0] * E)
        W *= Q ** len(free)
        for i, p in enumerate(ps):
            pair = W.reshape(-1, 2, 1 << i)
            pair[:, 0] *= 1.0 - p
            pair[:, 1] *= p / Q
        return W

    return weigh


def connection_probability(graph, couplings, x, y):
    """P^FK(x <-> y); equals <s_x s_y> for ferromagnetic couplings.

    The FK measure only sees |J|, so a negative coupling raises ValueError
    instead of returning the |J| answer (see fk_frustration_adjusted)."""
    if not couplings.is_ferromagnetic:
        raise ValueError("connection_probability needs ferromagnetic "
                         "couplings; use fk_frustration_adjusted for mixed "
                         "signs")
    return fk_measure_expectation(
        graph, couplings,
        {"c": lambda labels: labels.connected(x, y)})["c"]


def fk_rcr_bridge(graph, couplings, x, y):
    """(fk_prob, rcr_prob): the FK connection probability and the
    double-current one; fk_prob^2 = rcr_prob, both tied to <s_x s_y>."""
    if not couplings.is_ferromagnetic:
        raise ValueError("the bridge identity needs ferromagnetic couplings")
    fk_prob = connection_probability(graph, couplings, x, y)
    rcr_prob = doubled.double_event_probability(
        graph, couplings, frozenset(), frozenset(),
        lambda labels: labels.connected(x, y))
    return fk_prob, rcr_prob


def fk_frustration_adjusted(graph, couplings, u=None, v=None):
    """Frustration-adjusted FK for mixed-sign J.

    Under the |J| cluster measure: Z(J)/Z(|J|) = P(w is J-frustration-free),
    and <s_u s_v>_J = E(sgn_J(u,v;w) | FF), with sgn the relative parity of
    the u-v connection across negative edges (0 when disconnected).
    Cross-checks both against the spin oracle; returns a report dict.
    """
    abs_c = couplings.with_abs()
    ff, corr_fk = doubled._frustration(
        _fk_law(graph, abs_c, set(graph.vertices)), couplings, u, v)
    z_ratio, corr, _ = spins.ratio_moments(
        graph, couplings, abs_c, [] if u is None else [[u, v]])
    rep = {
        "ff_prob": ff,
        "z_ratio_spin": z_ratio,
        "z_match": abs(ff - z_ratio),
    }
    if u is not None:
        rep["corr_fk"] = corr_fk
        rep["corr_spin"] = corr[0]
        rep["corr_match"] = abs(corr_fk - corr[0])
    return rep


def fk_boundary_report(graph, couplings, boundary_spec, x=None):
    """Mixed-boundary FK formulas against the clamped spin oracle.

    Computes Z^pm/Z^+ = P^{FK,+}(bdry- not<-> bdry+) and, for an interior x,
    <s_x>^pm = P(x<->bdry+ | FF) - P(x<->bdry- | FF) and
    <s_x>^+ = P(x<->bdry).
    """
    bdry = boundary_spec.plus_set | boundary_spec.minus_set
    ratio, plus, pm = doubled._dobrushin(
        _fk_law(graph, couplings, set(graph.vertices) - bdry), graph,
        boundary_spec, x)
    ratio_spin, mag_pm, mag_plus = spins.ratio_moments(
        graph, couplings, couplings, [] if x is None else [[x]],
        boundary_spec, boundary_spec.all_plus())
    rep = {"ratio_fk": ratio, "ratio_spin": ratio_spin}
    if x is not None:
        rep["mag_pm_fk"] = pm
        rep["mag_pm_spin"] = mag_pm[0]
        rep["mag_plus_fk"] = plus
        rep["mag_plus_spin"] = mag_plus[0]
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
