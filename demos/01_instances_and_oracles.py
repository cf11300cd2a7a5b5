#!/usr/bin/env python3
"""Tour of the core objects: instances, cuts, subset bookkeeping, exact oracles.

Everything at this scale is verified by brute force, so the numbers printed
here are ground truth, not estimates.
"""

import numpy as np

import stablecut as sc

# A 4-cycle with unit weights.  Bipartite, so the even/odd split cuts every
# edge and no perturbation can ever dethrone it.
c4 = sc.Instance([[0, 1, 0, 1],
                  [1, 0, 1, 0],
                  [0, 1, 0, 1],
                  [1, 0, 1, 0]])
cut, weight, count = sc.brute_force_maxcut(c4)
print("C4 maximum cut:", cut, "weight", weight, "| optima:", count)

report = sc.instance_stability(c4)
print("C4 stability report:", report)
print("  -> gamma = inf because the 4-cycle is bipartite")

# Subset bookkeeping: of the weight leaving a subset A, xi crosses the cut
# and iota does not.
in_a = np.isin(np.arange(c4.n), (0, 1))
leaving = c4.weights[np.ix_(in_a, ~in_a)]
crossing = cut.side[in_a][:, None] != cut.side[~in_a][None, :]
print("subset {0,1}: xi =", leaving[crossing].sum(), "iota =", leaving[~crossing].sum())

# The triangle has three optimal cuts, hence stability exactly 1.
k3 = sc.Instance(np.ones((3, 3)) - np.eye(3))
print("\nK3 report:", sc.instance_stability(k3))

# Weighted 4-vertex instance: cut edges of weight 10, others 1.
W = np.zeros((4, 4))
for a, b in [(0, 1), (0, 3), (1, 2), (2, 3)]:
    W[a, b] = W[b, a] = 10.0
W[0, 2] = W[2, 0] = 1.0
W[1, 3] = W[3, 1] = 1.0
heavy = sc.Instance(W)
print("\nheavy K_{2,2} report:", sc.instance_stability(heavy))
print("  -> 10-stable: multiplying any weights by up to 10 keeps the optimum")

# Perturbations never decrease cut weights, and by at most the max factor.
rng = np.random.default_rng(0)
factors = np.triu(rng.uniform(1.0, 3.0, (4, 4)), 1)
factors += factors.T
np.fill_diagonal(factors, 1.0)
perturbed = sc.Instance(heavy.weights * factors)
gamma = factors[heavy.weights > 0].max()
print("\nperturbed by factors up to", round(gamma, 3),
      "| optimum still:", sc.brute_force_maxcut(perturbed)[0])

# Local stability is much weaker than subset stability: a perfect matching
# plus tiny noise has several highly locally stable cuts but stability 1.
matching = sc.gen_matching_epsilon(3, 1e-3)
cuts = sc.enumerate_locally_stable_cuts(matching, 2.0)
print("\nmatching+eps: ", len(cuts), "cuts are 2-locally stable, yet",
      "gamma =", sc.instance_stability(matching).gamma)
