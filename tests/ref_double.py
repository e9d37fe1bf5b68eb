"""Direct double-current sums, kept apart from the library.

The library weighs the 2^E combined supports of a current pair in closed
form (`doubled.DoubleSupportMeasure`).  The recursion here enumerates the
per-edge joint (parity, support) classes instead: 5 on an edge carrying
both currents, 3 on an edge of n1 alone.  It builds one state per class
and evaluates events on RefSupportViews, so it shares no weight or label
code with the library; the tests compare the two.
"""

import math
from dataclasses import dataclass

from isinglab.currents import ConstraintError
from ref_support import RefSupportView


@dataclass(frozen=True)
class DoubleCurrentState:
    graph: object
    odd1: frozenset          # edges with odd n1
    odd2: frozenset
    support: frozenset       # support of n1+n2
    shared_edges: frozenset  # edge ids carrying both currents

    def view(self):
        return RefSupportView(self.graph, self.support)

    def shared_view(self):
        return RefSupportView(self.graph, self.support & self.shared_edges)


def _vertex_mask(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def double_sum_direct(graph, couplings, A1, A2, term_fn, edges2=None):
    """Sum of w(n1) w(n2) term_fn(state) over per-edge joint classes.

    n1 lives on all edges of `graph`, n2 on `edges2` (default: all), both
    with exact sources.  term_fn receives a DoubleCurrentState and returns a
    float (0/1 for events).
    """
    A1, A2 = frozenset(A1), frozenset(A2)
    if len(A1) % 2 or len(A2) % 2:
        raise ConstraintError("odd source set")
    E = graph.n_edges
    all_edges = list(range(E))
    shared = frozenset(all_edges if edges2 is None else edges2)
    only1 = [e for e in all_edges if e not in shared]
    if A2 and edges2 is not None:
        touched2 = {v for e in shared for v in graph.edges[e]}
        if not A2 <= touched2:
            raise ConstraintError("A2 must lie on the subgraph carrying n2")

    sinh = [math.sinh(couplings.K_abs(e)) for e in all_edges]
    cosh = [math.cosh(couplings.K_abs(e)) for e in all_edges]
    # joint classes on shared edges: (odd1, odd2, supported) -> weight
    shared_classes = []
    for e in sorted(shared):
        s, c = sinh[e], cosh[e]
        shared_classes.append((e, [
            (0, 0, 0, 1.0),
            (0, 0, 1, s * s),   # cosh^2 - 1, without its cancellation
            (1, 0, 1, s * c),
            (0, 1, 1, c * s),
            (1, 1, 1, s * s),
        ]))
    only_classes = [(e, [(0, 0, 0, 1.0), (1, 0, 1, sinh[e]),
                         (0, 0, 1, cosh[e] - 1.0)]) for e in only1]
    plan = shared_classes + only_classes

    m1, m2 = _vertex_mask(A1), _vertex_mask(A2)
    ends = graph.edges
    terms = []
    odd1_edges = []
    odd2_edges = []
    supp_edges = []

    def rec(i, weight, p1, p2):
        if i == len(plan):
            if p1 != m1 or p2 != m2:
                return
            state = DoubleCurrentState(graph, frozenset(odd1_edges),
                                       frozenset(odd2_edges),
                                       frozenset(supp_edges), shared)
            val = term_fn(state)
            if val:
                terms.append(weight * float(val))
            return
        e, classes = plan[i]
        u, v = ends[e]
        flip = (1 << u) | (1 << v)
        for o1, o2, s, cw in classes:
            if cw == 0.0:
                continue
            if o1:
                odd1_edges.append(e)
            if o2:
                odd2_edges.append(e)
            if s:
                supp_edges.append(e)
            rec(i + 1, weight * cw, p1 ^ (flip if o1 else 0),
                p2 ^ (flip if o2 else 0))
            if o1:
                odd1_edges.pop()
            if o2:
                odd2_edges.pop()
            if s:
                supp_edges.pop()

    rec(0, 1.0, 0, 0)
    return math.fsum(terms)


def indicator_pairable(B, state):
    """1_B[n1+n2]: B pairable within the shared-edge support."""
    return 1.0 if state.shared_view().pairable(B) else 0.0


def ref_switching(graph, couplings, A1, A2, B, edges2=None):
    """(lhs, rhs) of the switching identity by the direct sums."""
    B = frozenset(B)
    term = lambda state: indicator_pairable(B, state)
    return (double_sum_direct(graph, couplings, A1, A2, term, edges2),
            double_sum_direct(graph, couplings, frozenset(A1) ^ B,
                              frozenset(A2) ^ B, term, edges2))
