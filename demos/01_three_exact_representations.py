"""One Gibbs quantity, three independent exact computations.

The two-point function of a small Ising system can be evaluated by direct
spin summation, by enumerating source-constrained currents, and as a
connection probability of the q=2 random-cluster model.  All three agree to
machine precision; the squared correlation also equals the probability that
two sourceless currents connect the pair.
"""

import math

from isinglab import (Couplings, Graph, connection_probability,
                      correlation_via_currents, double_event_probability,
                      expectation)

g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
c = Couplings(g, [0.9, 0.4, 0.7, 0.5, 0.3], beta=1.0)

spin = expectation(g, c, [0, 2])
curr = correlation_via_currents(g, c, [0, 2])
clus = connection_probability(g, c, 0, 2)
print("spin sum          :", spin)
print("current sum       :", curr)
print("cluster connection:", clus)

p = double_event_probability(g, c, frozenset(), frozenset(),
                             lambda labels: labels.connected(0, 2))
print("double-current P(0<->2):", p, " = corr^2 =", spin * spin)

# the triangle at tanh(K) = 1/2 is a classic hand-checkable value: 2/3
tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
ct = Couplings(tri, 1.0, math.atanh(0.5))
print("triangle corr (expect 2/3):", expectation(tri, ct, [0, 1]))
