"""Weighted MAXCUT solvers and certificates for practically interesting instances.

The package pairs every polynomial-time algorithm (dense sampling, metric
splitting + ball enumeration, stability-driven merging, spanning-tree
randomization, spectral/semidefinite certificates) with exact brute-force
oracles that verify its guarantees at desk scale.
"""

from .instance import (
    Cut,
    Instance,
    MetricCheck,
    cut_from_json,
    cut_to_json,
    cut_weight,
    density_coefficient,
    instance_from_json,
    instance_to_json,
    is_metric,
    load_cut,
    load_instance,
    same_bipartition,
    save_cut,
    save_instance,
)
from .oracle import (
    StabilityReport,
    brute_force_maxcut,
    cheeger_constant,
    cut_stability_gamma,
    distinction_alpha,
    enumerate_locally_stable_cuts,
    instance_stability,
    local_stability_gamma,
)
from .generators import (
    PlantedInstance,
    gen_euclidean_metric,
    gen_infinite_stable_not_distinguished,
    gen_matching_epsilon,
    gen_planted_partition,
    gen_stable_bipartite_noise,
    gen_tightness_example,
)
from .dense import DenseSolverConfig, dense_solve, failure_bound, sample_size
from .metric import (
    SplitMap,
    ball_enumeration_solve,
    cut_edge_lower_bound_check,
    metric_dense_solve,
    normalize_total_weight,
    split_instance,
)
from .stable import (
    MergeWitness,
    find_same_side_pair_2n,
    find_same_side_pair_sqrt,
    spanning_tree_solve,
    spanning_tree_success_bound,
    sqrt_stability_threshold,
    sqrt_stable_solve,
    warmup_2n_solve,
)
from .spectral import (
    BipolarityReport,
    GwSolution,
    SpectralBundle,
    bipolarity_check,
    build_spectral_bundle,
    distinguished_condition,
    glev_cut,
    gw_dual_extract,
    gw_primal_solve,
    gw_round,
    psd_rank_certificate,
    strongly_bipolar_perturb,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
