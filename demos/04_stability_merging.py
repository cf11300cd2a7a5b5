#!/usr/bin/env python3
"""Solvers that cash in subset-level stability directly.

Two vertices certified to share a side can be merged without changing the
problem.  The warm-up finder needs 2n-stability; the refined one only
sqrt(8n+4)+1.  A randomized alternative grows a weight-biased spanning tree
and two-colors it.
"""

import math

import stablecut as sc
from stablecut.stable import sqrt_stability_threshold

n = 12
threshold = sqrt_stability_threshold(n)
print(f"n={n}: deterministic solver needs stability above {threshold:.2f}")

planted = sc.gen_stable_bipartite_noise(n, 1.25 * threshold, seed=2)
inst = planted.instance
gamma = sc.cut_stability_gamma(inst, planted.planted_cut)
print(f"generated instance with oracle-verified stability {gamma:.2f}")

opt, opt_w, _ = sc.brute_force_maxcut(inst)
witness = sc.find_same_side_pair_sqrt(inst.weights, threshold + 1e-6)
print("first certified same-side pair:", witness.pair, f"({witness.kind})",
      "| truly same side:", bool(opt.side[witness.pair[0]] == opt.side[witness.pair[1]]))

cut = sc.sqrt_stable_solve(inst, "auto")
print("merge-down solve matches brute force:", sc.same_bipartition(cut, opt))

# The warm-up variant needs much more stability but is even simpler.
strong = sc.gen_stable_bipartite_noise(n, 2.5 * n, seed=3)
w_opt, _, _ = sc.brute_force_maxcut(strong.instance)
print("\nwarm-up solver on a", round(sc.cut_stability_gamma(
    strong.instance, strong.planted_cut), 1), "-stable instance:",
    sc.same_bipartition(sc.warmup_2n_solve(strong.instance), w_opt))

# Spanning-tree randomization: per-repetition success at least
# (gamma/(gamma+1))^(n-1), which the empirical rate respects.
bound = sc.spanning_tree_success_bound(gamma, n)
trials = 400
hits = sum(sc.same_bipartition(sc.spanning_tree_solve(inst, seed=s, repetitions=1), opt)
           for s in range(trials))
print(f"\nspanning tree: empirical success {hits / trials:.3f}"
      f" vs bound {bound:.3f}")
reps = math.ceil(3.0 / bound)
best = sc.spanning_tree_solve(inst, seed=0, repetitions=reps)
print(f"with ceil(3/bound) = {reps} repetitions:",
      sc.same_bipartition(best, opt))
