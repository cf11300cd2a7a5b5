"""Release gate: one test per acceptance criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and measured values.  The same battery is reachable from the command
line via ``stablecut bench --suite acceptance``.
"""

import hashlib
import math

import pytest

from stablecut import acceptance
from stablecut.instance import REL_TOL
from stablecut.generators import (
    gen_euclidean_metric,
    gen_infinite_stable_not_distinguished,
    gen_matching_epsilon,
    gen_planted_partition,
    gen_stable_bipartite_noise,
    gen_tightness_example,
)

INF = math.inf


def _check(criterion):
    result = criterion(acceptance.DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_oracle_cross_validation():
    result = _check(acceptance.criterion_1)
    assert {k: v for k, v in result.details.items() if k != "seconds"} == {
        "instances": 1000, "violations": 0}


def test_criterion_02_dense_solver():
    result = _check(acceptance.criterion_2)
    assert result.details == {
        "bipartite-noise(14,8) m=8": "freq=0.0280 bound=1.0000",
        "bipartite-noise(14,8) m=16": "freq=0.0020 bound=1.0000",
        "bipartite-noise(14,8) m=32": "freq=0.0000 bound=1.0000",
        "complete-bipartite(14) m=8": "freq=0.0050 bound=1.0000",
        "complete-bipartite(14) m=16": "freq=0.0000 bound=1.0000",
        "complete-bipartite(14) m=32": "freq=0.0000 bound=0.2564",
        "recovery": "enum=49/50 seeded=48/50 bound(m=10)=1.000"}


def test_criterion_03_metric_reduction():
    result = _check(acceptance.criterion_3)
    # the weight error is rounding, so it is held to the criterion's bound, not to its digits
    assert result.details["instances"] == 100
    assert float(result.details["worst_weight_rel_err"]) <= REL_TOL


def test_criterion_04_ball_guarantee():
    result = _check(acceptance.criterion_4)
    assert result.details == {"qualified": 100, "tightness_gamma_local": 2.75,
                              "tightness_gamma_subset": 1.666667,
                              "tightness_ball_weight": 37.0, "tightness_opt": 44.0}


def test_criterion_05_cut_edge_lower_bound():
    result = _check(acceptance.criterion_5)
    assert result.details == {"instances": 100, "worst_slack": "1.138e-03"}


def test_criterion_06_merging_solvers():
    result = _check(acceptance.criterion_6)
    assert result.details == {"sqrt": "100/100", "warmup": "100/100"}


def test_criterion_07_spanning_tree():
    result = _check(acceptance.criterion_7)
    # the rates of the one-tree-at-a-time sampler: the batched one draws the same trees
    assert result.details == {"gamma=10": "rate=0.4210 bound=0.3505",
                              "gamma=20": "rate=0.6570 bound=0.5847",
                              "gamma=inf": "rate=1.0000 bound=1.0000"}


def test_criterion_08_spectral_certificate():
    result = _check(acceptance.criterion_8)
    assert result.details == {"qualified": 64, "c4_threshold": 14.9282032303,
                              "c4_spectrum_ok": True}


def test_criterion_09_relaxation_battery():
    result = _check(acceptance.criterion_9)
    assert result.details == {"pool": 200, "converged_pairs": 200, "finished_solves": 80,
                              "bipolarity_checked": 200, "tolerance_escalations": 0,
                              "c4_primal": -8.0, "k3_primal": -3.0, "k3_quad_form": -2.0}


def test_criterion_10_locally_stable_counts():
    result = _check(acceptance.criterion_10)
    assert result.details == {"instances": 50, "max_count_over_n3": "0.0059",
                              "matching_contrast_count": 4}


def _gw_pool_by_residues(seed, count):
    # the pool as first written, with selectors over every residue of i
    pool = []
    i = 0
    while len(pool) < count:
        s = seed * 41 + i
        kind = i % 6
        if kind == 0:
            pool.append(gen_stable_bipartite_noise((6, 10, 14, 16)[i % 4], (2.0, 8.0, 20.0, INF)[i % 4], s).instance)
        elif kind == 1:
            pool.append(gen_planted_partition((6, 10, 14, 16)[i % 4], 0.9, 0.2, s).instance)
        elif kind == 2:
            pool.append(gen_euclidean_metric((4, 8, 12, 16)[i % 4], 1 + i % 3, (2.0, 10.0)[i % 2], s).instance)
        elif kind == 3:
            pool.append(gen_matching_epsilon(2 + i % 4, (1e-3, 0.3)[i % 3 == 0]))
        elif kind == 4:
            pool.append(gen_infinite_stable_not_distinguished(2 + i % 6, 1e-3).instance)
        else:
            pool.append(gen_tightness_example(2 + i % 3).instance)
        i += 1
    return pool


@pytest.mark.parametrize("seed", [acceptance.DEFAULT_SEED, 1, 11])
def test_gw_pool_matches_the_residue_selectors(seed):
    pool = acceptance.gw_pool(seed, 400)
    reference = _gw_pool_by_residues(seed, 400)
    assert len(pool) == len(reference) == 400
    for inst, ref in zip(pool, reference):
        assert inst.n == ref.n and inst.weights.tobytes() == ref.weights.tobytes()


# sha256 prefixes at DEFAULT_SEED of each pool's weight matrices in order, each
# followed by the sides of the cut the pool keeps with it (planted, or the ball
# pool's optimum); computed before the pools became option tables
POOL_DIGESTS = {
    "planted-partition": "5e89c496edd4e1d1",
    "stable-bipartite-noise": "4c9bb4ad73898e28",
    "matching-eps": "83cf45fa2c42fc0e",
    "tightness": "655f376ae58421dd",
    "euclidean": "d9adee378f3ddf87",
    "certificate": "6e0cffd17007e455",
    "ball": "cd5b2bd15f1ea932",
    "criterion-3": "ff76d6dcd6c932d5",
    "criterion-10": "69afc4be888abc17",
}


def _digest(pool):
    h = hashlib.sha256()
    for inst, cut in pool:
        h.update(inst.weights.tobytes())
        if cut is not None:
            h.update(cut.side.tobytes())
    return h.hexdigest()[:16]


def test_pools_hold_the_instances_pinned_at_the_default_seed():
    seed = acceptance.DEFAULT_SEED
    pools = {family: acceptance._family_pool(family, 200, seed + fi)
             for fi, family in enumerate(acceptance.FAMILIES)}
    pools["certificate"] = [(inst, None) for inst in acceptance._certificate_pool(seed)]
    pools["ball"] = [(inst, cut) for inst, cut, _, _ in acceptance._ball_pool(seed)]
    pools["criterion-3"] = [(inst, None) for inst in acceptance._split_pool(seed)]
    pools["criterion-10"] = [(inst, None) for inst in acceptance._count_pool(seed)]
    assert {name: _digest(pool) for name, pool in pools.items()} == POOL_DIGESTS
