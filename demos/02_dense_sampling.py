#!/usr/bin/env python3
"""The sampling solver for locally stable, density-bounded instances.

Draw m random vertices, guess how the sample splits, and classify every
vertex by which sample side it is heavier toward.  If the guess is the true
split, each vertex lands correctly unless its weighted sample majority falls
on its own side, and a Hoeffding argument caps the probability of that.
"""

import stablecut as sc
from stablecut.dense import DenseSolverConfig, draw_samples, per_vertex_failures

planted = sc.gen_stable_bipartite_noise(14, 8.0, seed=5)
inst = planted.instance
opt, opt_w, _ = sc.brute_force_maxcut(inst)

C = sc.density_coefficient(inst)
gamma_loc = sc.local_stability_gamma(inst, opt)
print(f"instance: n=14, density C={C:.2f}, local stability {gamma_loc:.2f}")

# The theory asks for a fairly large sample...
m_theory = sc.sample_size(C, gamma_loc - 1.0, 14)
print("sample size suggested by the union bound:", m_theory)

# ...but at desk scale small samples already work.  Seeded mode plays the
# true sides of the sample; enumerate mode tries all 2^m splits and can
# only do better.
for m in (8, 16, 32):
    bound = sc.failure_bound(C, gamma_loc, m, 14)
    fails = sum(
        per_vertex_failures(inst, opt, draw_samples(14, m, seed=t)).any()
        for t in range(400))
    print(f"m={m:3d}: some-vertex-failure frequency {fails / 400:.3f}"
          f"  (bound {min(bound, 1):.3f})")

wins = 0
for s in range(30):
    cut = sc.dense_solve(inst, DenseSolverConfig(m=10, seed=s))
    wins += sc.same_bipartition(cut, opt)
print(f"\nenumerate mode, m=10: recovered the optimum in {wins}/30 runs")

cut = sc.dense_solve(inst, DenseSolverConfig(
    m=10, seed=0, seed_cut=planted.planted_cut))
print("seeded mode weight:", sc.cut_weight(inst, cut), "| optimum:", opt_w)
