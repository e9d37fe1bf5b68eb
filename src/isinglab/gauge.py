"""Z2 lattice gauge model on 2D/3D box complexes.

Gauge variables live on edges, the energy is a sum over plaquettes of the
four-edge product.  The chain expansion mirrors the spin-system current
expansion one dimension up: expanding each plaquette factor as
cosh b + sinh b * A_dp and averaging over gauge fields leaves

    Z = sum over closed plaquette chains O of cosh^(|P|-|O|) sinh^|O|,

closed meaning every edge lies in an even number of chain plaquettes (only
parity matters, so chains are subsets).  The closed chains form the GF(2)
kernel of the plaquette-boundary matrix; we enumerate the kernel from a
basis.  Wilson loops insert a spanning surface S and shift chains by it.
A sum that leaves the float range is a signed inf, never an exception.

The brute-force oracle the chain sums are checked against shares none of
this code.  It sorts all 2^|E| gauge fields, in numpy chunks, into integer
counts per (number of odd plaquettes, insertion sign), weighs each class
once and sums count * weight exactly in rationals; rounded once, that is
math.fsum over the fields, bit for bit.

Duality (3D): dual sites sit in the cells plus one outer site, dual bonds
are the plaquettes; Z equals 2^(|V*|-1) (cosh b sinh b)^(|E*|/2) times the
dual Ising partition function at b* with tanh b* = e^(-2b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, Couplings
from .spins import SizeError
from . import spins, doubled, fk

CHAIN_CAP = 24
GAUGE_ORACLE_CAP = 20
_ORACLE_CHUNK = 1 << 16   # field masks per numpy chunk in the oracle


class PlaquetteComplex:
    """Vertices, edges and unit-square plaquettes of a d=2/3 cell box.

    `cells` counts unit cells per axis; vertex coords run 0..cells[i].
    Plaquettes are stored as 4-tuples of edge ids plus (axes, corner) tags;
    cells (for the 3D dual) are unit cubes indexed lexicographically.
    """

    def __init__(self, d, cells):
        if d not in (2, 3):
            raise ValueError("d must be 2 or 3")
        cells = [int(c) for c in cells]
        if len(cells) != d or any(c < 1 for c in cells):
            raise ValueError("need %d cell counts >= 1" % d)
        self.d = d
        self.cells = cells
        sides = [c + 1 for c in cells]
        coords = []

        def rec(prefix, rest):
            if not rest:
                coords.append(tuple(prefix))
                return
            for c in range(rest[0]):
                rec(prefix + [c], rest[1:])

        rec([], sides)
        coords.sort()
        self.coords = coords
        self.vindex = {c: i for i, c in enumerate(coords)}
        self.edges = []
        self.eindex = {}
        for c in coords:
            for axis in range(d):
                nb = list(c)
                nb[axis] += 1
                nb = tuple(nb)
                if nb in self.vindex:
                    self.eindex[(c, axis)] = len(self.edges)
                    self.edges.append((self.vindex[c], self.vindex[nb]))
        self.plaquettes = []      # 4-tuples of edge ids
        self.plaquette_tags = []  # ((axis_i, axis_j), corner)
        for c in coords:
            for i in range(d):
                for j in range(i + 1, d):
                    try:
                        eids = self._square_edges(c, i, j)
                    except KeyError:
                        continue
                    self.plaquettes.append(eids)
                    self.plaquette_tags.append(((i, j), c))
        self.pindex = {tag: p for p, tag in enumerate(self.plaquette_tags)}
        if d == 3:
            self.cell_ids = {}
            n = 0
            for x in range(cells[0]):
                for y in range(cells[1]):
                    for z in range(cells[2]):
                        self.cell_ids[(x, y, z)] = n
                        n += 1

    def _square_edges(self, corner, i, j):
        ci = list(corner)
        ci[i] += 1
        cj = list(corner)
        cj[j] += 1
        return (self.eindex[(corner, i)],
                self.eindex[(tuple(ci), j)],
                self.eindex[(tuple(cj), i)],
                self.eindex[(corner, j)])

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_plaquettes(self):
        return len(self.plaquettes)

    def edge_mask(self, plaquette_set):
        """GF(2) boundary of a plaquette subset, as an edge bitmask."""
        m = 0
        for p in plaquette_set:
            for e in self.plaquettes[p]:
                m ^= 1 << e
        return m


@dataclass(frozen=True)
class WilsonLoop:
    """A closed edge path given through a spanning plaquette set."""
    spanning: frozenset    # plaquette ids S with boundary(S) = loop edges
    edge_mask: int

    @property
    def area(self):
        return len(self.spanning)


def rectangular_loop(cx, axes, corner, size):
    """Wilson loop around an l1 x l2 rectangle of plaquettes; ValueError
    unless both sides are positive and the rectangle fits the complex."""
    i, j = axes
    if min(size) < 1:
        raise ValueError("loop sides must be positive, got %r" % (size,))
    span = set()
    for a in range(size[0]):
        for b in range(size[1]):
            c = list(corner)
            c[i] += a
            c[j] += b
            key = ((i, j), tuple(c))
            if key not in cx.pindex:
                raise ValueError("a %dx%d loop at %r does not fit the "
                                 "complex" % (size[0], size[1], tuple(corner)))
            span.add(cx.pindex[key])
    return WilsonLoop(frozenset(span), cx.edge_mask(span))


def _kernel_basis(cx):
    """Basis of plaquette subsets with empty GF(2) edge boundary."""
    pivots = {}   # leading edge bit -> (edge_vec, plaquette_combo)
    basis = []
    for p in range(cx.n_plaquettes):
        vec = cx.edge_mask([p])
        combo = 1 << p
        while vec:
            lead = vec.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (vec, combo)
                break
            pv, pc = pivots[lead]
            vec ^= pv
            combo ^= pc
        else:
            basis.append(combo)
    return basis


def _chain_sums(cx, beta, shift_masks, cap=CHAIN_CAP):
    """For each plaquette mask S in shift_masks, sum over the closed-chain
    kernel of cosh^(|P|-|S^k|) sinh^(|S^k|)."""
    P = cx.n_plaquettes
    basis = _kernel_basis(cx)
    if len(basis) > cap:
        raise SizeError("kernel dimension %d exceeds the cap" % len(basis))
    c, s = _cosh_sinh(beta)
    sums = [[] for _ in shift_masks]
    gray = 0
    for i in range(1 << len(basis)):
        if i:
            bit = (i & -i).bit_length() - 1
            gray ^= basis[bit]
        for out, S in zip(sums, shift_masks):
            w = (S ^ gray).bit_count()
            try:
                out.append(c ** (P - w) * s ** w)
            except OverflowError:
                out.append(-math.inf if s < 0 and w % 2 else math.inf)
    return [_sum_terms(out) for out in sums]


def _cosh_sinh(beta):
    """(cosh b, sinh b), with a signed inf where one leaves the float range."""
    try:
        return math.cosh(beta), math.sinh(beta)
    except OverflowError:
        return math.inf, math.copysign(math.inf, beta)


def _sum_terms(terms):
    """math.fsum, or the plain float sum (an inf) where fsum raises because
    finite terms add up past the float range.  The terms of one sum share a
    sign, since closed chains have even size, so inf - inf cannot occur."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return sum(terms)


def _plaquette_mask(plaquette_set):
    m = 0
    for p in plaquette_set:
        m |= 1 << p
    return m


def lgm_partition(cx, beta, cap=CHAIN_CAP):
    """Z with the 1/2^|E| gauge-field normalization."""
    return _chain_sums(cx, beta, [0], cap=cap)[0]


def wilson_expectation(cx, beta, loop, cap=CHAIN_CAP):
    """<prod_{b in loop} A_b> via the shifted chain sum."""
    if cx.edge_mask(loop.spanning) != loop.edge_mask:
        raise ValueError("loop is not the boundary of its spanning set")
    num, den = _chain_sums(cx, beta,
                           [_plaquette_mask(loop.spanning), 0], cap=cap)
    return num / den


# ---------------------------------------------------------------------------
# brute-force gauge-field oracle


def gauge_oracle_partition(cx, beta, edge_signs=None, cap=GAUGE_ORACLE_CAP):
    """2^|E| oracle: average of exp(beta sum_p A_dp) over gauge fields.

    edge_signs: optional edge bitmask, an int in [0, 2^|E|); the product of
    the field over its edges is multiplied into the observable (a
    Wilson-loop insertion when the mask traces a closed loop).

    Fields are counted rather than weighed one by one.  In numpy chunks of
    field masks m, plaquette (a, b, c, d) is odd when bit 0 of
    (m>>a) ^ (m>>b) ^ (m>>c) ^ (m>>d) is set; k odd plaquettes give the
    energy |P| - 2k, and the insertion's sign is the parity of
    m & edge_signs.  Each of the at most 2(|P|+1) classes (k, sign) gets an
    exact integer count and the weight +-exp(beta * energy) a single field
    would get.  The sum of count * weight is taken exactly in rationals and
    rounded once, so it equals math.fsum over all 2^|E| fields bit for bit.
    A class weight past the float range is a signed inf, and so is a sum
    past it; the result is then non-finite instead of an OverflowError.
    Independent of the chain sums: no kernel basis and no edge_mask.
    """
    E = cx.n_edges
    if E > cap:
        raise SizeError("2^%d gauge fields exceed the cap" % E)
    if edge_signs is not None and not (
            isinstance(edge_signs, int) and 0 <= edge_signs < 1 << E):
        raise ValueError("edge_signs must be an int in [0, 2^%d)" % E)
    P = len(cx.plaquettes)
    counts = np.zeros(2 * (P + 1), dtype=np.int64)
    for lo in range(0, 1 << E, _ORACLE_CHUNK):
        m = np.arange(lo, min(lo + _ORACLE_CHUNK, 1 << E), dtype=np.int64)
        odd = np.zeros_like(m)
        for a, b, c, d in cx.plaquettes:
            odd += ((m >> a) ^ (m >> b) ^ (m >> c) ^ (m >> d)) & 1
        cls = 2 * odd
        if edge_signs is not None:
            x = m & edge_signs
            for shift in (32, 16, 8, 4, 2, 1):
                x ^= x >> shift
            cls += x & 1
        counts += np.bincount(cls, minlength=counts.size)
    terms = []
    for cls, n in enumerate(counts.tolist()):
        if n:
            try:
                w = math.exp(beta * float(P - 2 * (cls >> 1)))
            except OverflowError:
                w = math.inf
            terms.append((n, -w if cls & 1 else w))
    if not all(math.isfinite(w) for _, w in terms):
        return sum(n * w for n, w in terms) / (1 << E)
    total = sum((n * Fraction(w) for n, w in terms), Fraction(0))
    try:
        return float(total) / (1 << E)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def gauge_transform_mask(cx, vertex):
    """Edge mask flipped by the gauge transformation at one vertex."""
    m = 0
    for e, (u, v) in enumerate(cx.edges):
        if vertex in (u, v):
            m ^= 1 << e
    return m


# ---------------------------------------------------------------------------
# duality


def dual_beta(beta):
    """b* = 1/2 ln coth b, i.e. tanh b* = e^{-2b}; an involution."""
    if beta <= 0:
        raise ValueError("dual_beta needs beta > 0")
    return 0.5 * math.log(1.0 / math.tanh(beta))


def build_dual_complex(cx):
    """Dual Ising graph of a 3D complex: one site per cell plus an outer
    site; one bond per plaquette joining the two cells it separates.

    Returns (graph, outer_vertex); dual bond ids equal plaquette ids.
    """
    if cx.d != 3:
        raise ValueError("the dual construction is for d=3 complexes")
    outer = len(cx.cell_ids)
    edges = []
    for (axes, corner) in cx.plaquette_tags:
        normal = ({0, 1, 2} - set(axes)).pop()
        back = list(corner)
        back[normal] -= 1
        a = cx.cell_ids.get(tuple(corner), outer)
        b = cx.cell_ids.get(tuple(back), outer)
        edges.append((a, b))
    return Graph(outer + 1, edges), outer


def verify_duality(cx, beta):
    """(lhs, rhs, diff) for the 3D partition-function duality."""
    lhs = lgm_partition(cx, beta)
    dual, outer = build_dual_complex(cx)
    bstar = dual_beta(beta)
    coup = Couplings(dual, 1.0, bstar)
    z_dual = spins.partition_function(dual, coup)
    c, s = _cosh_sinh(beta)
    try:
        scale = (c * s) ** (dual.n_edges / 2.0)
    except OverflowError:   # c * s > 0, as dual_beta needs beta > 0
        scale = math.inf
    rhs = 2.0 ** (dual.n - 1) * scale * z_dual
    return lhs, rhs, abs(lhs - rhs)


def verify_wilson_disorder_duality(cx, beta, loop):
    """(lhs, rhs, diff): Wilson expectation vs the dual disorder operator
    <T_S> with couplings flipped on the dual bonds dual to the spanning
    surface."""
    lhs = wilson_expectation(cx, beta, loop)
    dual, outer = build_dual_complex(cx)
    coup = Couplings(dual, 1.0, dual_beta(beta))
    rhs = doubled.disorder_expectation(dual, coup, loop.spanning)
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# deconfinement bound ingredients


def convexity_rate(R):
    """g with 1 - R = exp(-g R): the sharpest g making 1 - r >= e^{-g r}
    valid on all r in [0, R]; bisection, unique by convexity."""
    if not 0.0 <= R < 1.0:
        raise ValueError("need 0 <= R < 1")
    if R == 0.0:
        return 1.0
    target = 1.0 - R
    lo, hi = 1e-12, 1e3
    f = lambda g: math.exp(-g * R) - target
    if f(lo) < 0 or f(hi) > 0:
        raise ValueError("no root bracketed for R=%g" % R)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def deconfinement_bound_report(box, couplings, axis, plane, window=None):
    """Finite-volume chain of bounds on a dual Ising box.

    F = edges crossing the half-integer `plane` along `axis`; `window`
    optionally restricts F to edges whose other coordinates lie in the given
    {axis: (lo, hi)} ranges (a partial dual segment, the interesting case —
    a full cut is a gauge transformation and gives <T_F> = 1).  U/V are F's
    upper and lower endpoint sets.  Computes
        W  = <T_F>                         (disorder expectation)
        B1 = P^FK(U not<-> V)
        B2 = prod_{u in U, v in V} (1 - <s_u s_v>)
        B3 = exp(-g(R) * sum_{u,v} <s_u s_v>),  R = max pair correlation
    and checks W >= B1 >= B2 >= B3.
    """
    F = box.crossing_edges(axis, plane)
    if window:
        def inside(e):
            u, _ = box.edges[e]
            c = box.coords[u]
            return all(lo <= c[a] <= hi for a, (lo, hi) in window.items())
        F = [e for e in F if inside(e)]
    if not F:
        raise ValueError("no edges cross the plane")
    U = sorted({v for e in F for v in box.edges[e]
                if box.coords[v][axis] > plane})
    V = sorted({v for e in F for v in box.edges[e]
                if box.coords[v][axis] < plane})
    W = doubled.disorder_expectation(box, couplings, F)
    B1 = fk.fk_measure_expectation(
        box, couplings,
        {"cut": lambda labels: ~labels.connects_sets(U, V)})["cut"]
    corrs = [spins.expectation(box, couplings, [u, v])
             for u in U for v in V]
    B2 = math.prod(1.0 - c for c in corrs)
    R = max(corrs)
    g = convexity_rate(R)
    B3 = math.exp(-g * math.fsum(corrs))
    return {
        "flip_edges": list(F),
        "disorder": W,
        "fk_disconnect": B1,
        "product_bound": B2,
        "exp_bound": B3,
        "rate": g,
        "chain_ok": (W >= B1 - 1e-12 and B1 >= B2 - 1e-12
                     and B2 >= B3 - 1e-12),
    }
