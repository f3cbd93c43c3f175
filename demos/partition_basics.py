"""Exact partition sums on small graphs.

Walks through configuration weights, full and pinned partition sums, the
exact rational mode, and the external-field translation on regular graphs.
"""

import math
from fractions import Fraction

from twospin import (SpinParams, field_identity_report, log_config_weight,
                     log_partition, partition_fraction)
from twospin.graphs import complete_graph, cycle_graph, path_graph, single_edge

# A single edge with all weights 1 has four configurations of weight 1.
edge = single_edge()
ones = SpinParams(beta=1.0, gamma=1.0, mu=1.0)
print("single edge, all-ones weights:")
print("  log Z =", log_partition(edge, ones), "  (log 4 =", math.log(4), ")")

# Configuration weights: (0,0) picks up beta once, mixed pairs weigh 1.
p = SpinParams(beta=0.3, gamma=0.7)
print("\nconfiguration weights on the edge with beta=0.3, gamma=0.7:")
for bits in [(0, 0), (0, 1), (1, 1)]:
    print(f"  sigma={bits}: log weight = {log_config_weight(edge, p, bits):+.6f}")

# beta=0, gamma=1 counts independent sets (zero-vertices form the set).
p4 = path_graph(4)
hardcore = SpinParams(beta=0.0, gamma=1.0)
print("\npath on 4 vertices, hardcore weights:")
print("  Z =", math.exp(log_partition(p4, hardcore)), " independent sets")
print("  exact rational mode:", partition_fraction(p4, 0, 1, 1))

# Pins fix chosen spins; the sum runs over the remaining vertices.
tri = cycle_graph(3)
pinned = log_partition(tri, hardcore, fixed={0: 0})
print("\ntriangle, vertex 0 pinned to 0:")
print("  Z =", math.exp(pinned), " (only the singleton set {0})")

# Rational parameters make the exact mode an oracle for the log-domain path.
g = cycle_graph(5)
exact = partition_fraction(g, Fraction(2, 5), Fraction(7, 4), Fraction(3, 2))
logv = log_partition(g, SpinParams(0.4, 1.75, 1.5))
print("\n5-cycle with rational parameters:")
print(f"  exact Z = {exact} = {float(exact):.12f}")
print(f"  log-domain exp(log Z) = {math.exp(logv):.12f}")

# On a d-regular graph an external field folds into the edge weights.
k4 = complete_graph(4)
withfield = SpinParams(beta=0.2, gamma=1.5, mu=5.0)
rep = field_identity_report(k4, withfield)
print("\nfield translation on K4 (3-regular):")
print(f"  log Z with field      = {rep.log_lhs:.12f}")
print(f"  prefactor + translated = {rep.log_rhs:.12f}")
print(f"  relative gap           = {rep.gap:.2e}")
