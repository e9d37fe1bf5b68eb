"""Exact spin sums by sweep elimination: a transfer matrix on any graph.

Vertices are added one at a time in a fixed order.  A float64 tensor keeps
one axis of size 2 (index 0 is spin +1, index 1 spin -1) per frontier
vertex, a vertex already added that still has a neighbour to come.  When an
edge's second endpoint arrives its factor exp(K_e s_u s_v) is multiplied in
(parallel edges each bring their own), and a vertex is averaged out (summed
and halved, which gives the 2^-n normalisation below) once its last
neighbour is in.  This is the transfer matrix (Kramers-Wannier 1941) in the
form of bucket elimination (Dechter 1999); the cost is about n 2^width for
the widest tensor of the sweep.

Each edge factor is stored divided by exp(|K_e|), so its entries lie in
(0, 1], and after each vertex the tensor is divided by its max; the logs of
both go into a running log Z, which stays finite at any beta.  Only where
every configuration of a step breaks bonds of total |K| past ~700, which
needs frustration, can the tensor underflow to zero; that raises
FloatingPointError instead of returning a wrong log Z.

The order is one deterministic greedy rule: add the vertex giving the
smallest resulting frontier, then the one with the most neighbours already
added, then the lowest id.  The width, the most axes the tensor holds at
once, is known from the order alone and is checked against FRONTIER_CAP
before any tensor is allocated.

Partition values carry the normalisation of `spins`:

    Z = 2^-n sum_sigma exp( sum_b K_b s s ).

The engine shares no computation with `spins` (only its SizeError class)
or with any other engine, so it is an independent exact leg.
"""

from __future__ import annotations

import math

import numpy as np

from .spins import SizeError

FRONTIER_CAP = 20


def _neighbours(graph):
    nbrs = [set() for _ in graph.vertices]
    for u, v in graph.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def _sweep_order(graph):
    """(order, width) of the greedy rule: smallest resulting frontier, then
    most neighbours already added, then lowest id.  The width counts the
    frontier before a vertex plus that vertex."""
    nbrs = _neighbours(graph)
    left = [len(s) for s in nbrs]   # neighbours not yet added
    added = [False] * graph.n
    todo = set(graph.vertices)
    order, frontier, width = [], 0, 0
    while todo:
        best = None
        for v in todo:
            size = frontier + (left[v] > 0) - sum(
                1 for u in nbrs[v] if added[u] and left[u] == 1)
            key = (size, left[v] - len(nbrs[v]), v)
            if best is None or key < best:
                best = key
        width = max(width, frontier + 1)
        frontier, _, v = best
        todo.remove(v)
        added[v] = True
        order.append(v)
        for u in nbrs[v]:
            left[u] -= 1
    return order, width


def log_partition(graph, couplings):
    """log Z, finite at any beta; SizeError when the sweep is wider than
    FRONTIER_CAP frontier axes."""
    order, width = _sweep_order(graph)
    if width > FRONTIER_CAP:
        raise SizeError("sweep width %d exceeds the frontier cap %d"
                        % (width, FRONTIER_CAP))
    step = {v: i for i, v in enumerate(order)}
    arriving = [[] for _ in order]   # (earlier endpoint, K) per edge
    done = [[] for _ in order]       # vertices averaged out after each step
    for e, (u, v) in enumerate(graph.edges):
        a, b = sorted((u, v), key=step.get)
        arriving[step[b]].append((a, couplings.K(e)))
    for v, nb in enumerate(_neighbours(graph)):
        done[max([step[v]] + [step[u] for u in nb])].append(v)
    logs = []
    t = np.ones(())
    axes = []
    for i, v in enumerate(order):
        t = np.stack((t, t), axis=-1)
        axes.append(v)
        for u, k in arriving[i]:
            shape = [1] * len(axes)
            shape[axes.index(u)] = shape[-1] = 2
            t *= np.exp(np.array([[k, -k], [-k, k]]) - abs(k)).reshape(shape)
            logs.append(abs(k))
        for x in done[i]:
            j = axes.index(x)
            t = t.mean(axis=j)
            del axes[j]
        top = float(t.max())
        if not 0.0 < top < math.inf:
            raise FloatingPointError("sweep tensor left the float range "
                                     "at vertex %d" % v)
        t /= top
        logs.append(math.log(top))
    return math.fsum(logs)


def partition_function(graph, couplings):
    """Z with the 2^-n normalisation; inf past the float range."""
    try:
        return math.exp(log_partition(graph, couplings))
    except OverflowError:
        return math.inf
