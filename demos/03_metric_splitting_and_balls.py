#!/usr/bin/env python3
"""Metric instances: the splitting reduction and the ball-enumeration solver.

Splitting each point into floor(tau) copies turns any metric into a roughly
4-dense instance while preserving cut weights and stability, so the dense
sampling machinery applies.  And once the optimum is more than 3-locally
stable, one of its sides must be a metric ball, so scanning all n^2 balls
solves the instance outright.
"""

import stablecut as sc
from stablecut.dense import DenseSolverConfig

planted = sc.gen_euclidean_metric(10, 2, separation=8.0, seed=1)
inst = planted.instance
opt, opt_w, _ = sc.brute_force_maxcut(inst)
print("two clusters of 5 points, centers 8 apart")
print("optimum weight:", round(opt_w, 3),
      "| equals cluster split:", sc.same_bipartition(opt, planted.planted_cut))

normalized, scale = sc.normalize_total_weight(inst)
smap = sc.split_instance(normalized)
print(f"\nnormalized by {scale:.3f}; split blows up n=10 into {smap.split.n}"
      f" copies (multiplicities {smap.multiplicity.min()}..{smap.multiplicity.max()})")
print("split density:", round(sc.density_coefficient(smap.split), 3),
      "<= 4/(1-1/n)^2 =", round(4 / (1 - 0.1) ** 2, 3))

# A cut lifts to the split by putting every copy on its vertex's side.
lifted = sc.Cut(opt.side[smap.pi])
print("lifted optimum weight:", round(sc.cut_weight(smap.split, lifted), 6),
      "| original (normalized):", round(sc.cut_weight(normalized, opt), 6))

# The ball solver: every center, every radius.
gamma_loc = sc.local_stability_gamma(inst, opt)
ball_cut = sc.ball_enumeration_solve(inst)
print(f"\nlocal stability {gamma_loc:.2f} > 3, so one optimal side is a ball")
print("ball solver weight:", round(sc.cut_weight(inst, ball_cut), 3))

# The reduction-based solver, seeded with the planted split.
cut = sc.metric_dense_solve(inst, DenseSolverConfig(
    m=10, seed=0, seed_cut=planted.planted_cut))
print("split+sample solver weight:", round(sc.cut_weight(inst, cut), 3))

# Tightness: a metric whose optimum has NO ball side.  Its local stability
# sits between 2 and 3, so the threshold for the ball guarantee is sharp.
tight = sc.gen_tightness_example(2)
t_opt, t_w, _ = sc.brute_force_maxcut(tight.instance)
t_ball = sc.ball_enumeration_solve(tight.instance)
print("\ntightness example: local stability",
      round(sc.local_stability_gamma(tight.instance, t_opt), 3))
print("optimum", t_w, "vs best ball cut", sc.cut_weight(tight.instance, t_ball))

# The cut-edge lower bound behind the ball guarantee:
check = sc.cut_edge_lower_bound_check(inst, opt, gamma_loc)
print("\ncut-edge lower bound at measured stability:",
      "holds," if check.ok else "VIOLATED,", "worst slack", round(check.worst_slack, 4))
