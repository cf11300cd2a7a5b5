#!/usr/bin/env python3
"""Spectral certificates and the semidefinite relaxation.

Shifting W by the diagonal D' (cut degrees minus uncut degrees at a cut)
always annihilates the cut's sign vector.  When the shifted matrix is PSD of
rank n-1, the sign pattern of its kernel IS the maximum cut; sufficient
local stability relative to the expansion of the cut edges guarantees it.
The relaxation side solves the vector program, extracts the unique dual
diagonal, and rounds by random hyperplanes.
"""

import numpy as np

import stablecut as sc

c4 = sc.Instance([[0, 1, 0, 1],
                  [1, 0, 1, 0],
                  [0, 1, 0, 1],
                  [1, 0, 1, 0]])
maxcut = sc.Cut([True, False, True, False])

bundle = sc.build_spectral_bundle(c4, maxcut)
print("C4 spectrum of W + D':", np.round(bundle.eigenvalues, 9))
print("certificate:", sc.psd_rank_certificate(bundle))

report = sc.distinguished_condition(c4, maxcut)
print("cut-edge expansion h =", report.cut_cheeger,
      "| certificate guaranteed above local stability",
      round(report.cheeger_threshold, 3), "(here: inf)")

# The same shift on a triangle fails: no PSD certificate exists.
k3 = sc.Instance(np.ones((3, 3)) - np.eye(3))
k3_bundle = sc.build_spectral_bundle(k3, sc.Cut([True, False, False]))
print("\nK3 spectrum:", np.round(k3_bundle.eigenvalues, 6),
      "->", sc.psd_rank_certificate(k3_bundle))

# Relaxation: block-coordinate descent on unit vectors, dual extraction,
# hyperplane rounding.  On the 4-cycle the optimum is the rank-one +/-1
# Gram matrix with value -8 and dual -2I.  The extraction's `gap` is zero by
# the trace identity whatever the Gram matrix, so it certifies nothing; the
# dual shifted into feasibility certifies n * max(0, -psd_residual).
sol = sc.gw_primal_solve(c4, seed=0)
ext = sc.gw_dual_extract(c4, sol.gram)
print("\nC4 relaxation: primal", round(sol.primal_value, 9),
      "dual", np.round(ext.diag_values, 9), "gap (trace identity)", ext.gap,
      "certified gap", c4.n * max(0.0, -ext.psd_residual))
print("rounded cut weight:", sc.gw_round(c4, sol.vectors, seed=0, trials=8).weight)

sol3 = sc.gw_primal_solve(k3, seed=0)
print("K3 relaxation: primal", round(sol3.primal_value, 6),
      "(strictly below the best binary value -2) -> rounding gives",
      sc.gw_round(k3, sol3.vectors, seed=0, trials=32).weight)

# Four equivalent readings of "the relaxation optimum is this cut", all
# taken from the same W + D' (the report's bundle):
print("\nbipolarity on C4:", sc.bipolarity_check(c4, maxcut).conditions)
print("bipolarity on K3:", sc.bipolarity_check(k3, sc.Cut([True, False, False])).conditions)

# Scaling the cut edges up by any epsilon makes the binary optimum the
# UNIQUE relaxation solution: the solver then reads the cut off directly.
strong = sc.strongly_bipolar_perturb(c4, maxcut, 0.1)
grams = [sc.gw_primal_solve(strong, seed=s).gram for s in range(3)]
target = np.outer(maxcut.delta, maxcut.delta)
print("\nafter the 1.1x cut-edge boost, max |Gram - delta delta^T| over 3 seeds:",
      f"{max(np.abs(g - target).max() for g in grams):.2e}")

# A least eigenvector with lopsided coordinates certifies less: the cut of
# a least eigenvector u of a PSD diagonal shift is the maximum cut once the
# stability is at least max |u_i u_j| / min |u_i u_j| over vertex pairs.
u = np.array([1.0, 2.0, 1.0, 2.0])
products = np.abs(np.outer(u, u))[np.triu_indices(c4.n, k=1)]
print("\ncoordinate ratio of u = (1,2,1,2):", products.max() / products.min(),
      "-> needs stability >= 4")
