import dataclasses
import math

import numpy as np
import pytest

import stablecut as sc
from stablecut.dense import (
    DenseSolverConfig,
    draw_samples,
    induced_side_matrix,
    per_vertex_failures,
)
from stablecut.errors import ParameterError, SolverFailure

from conftest import random_instance


def test_sample_size_examples():
    assert sc.sample_size(2.0, 1.0, 100) == 382
    assert sc.sample_size(1.0, 2.0, 2) == 12
    with pytest.raises(ParameterError):
        sc.sample_size(2.0, 0.0, 100)
    for C, eps in ((0.5, 1.0), (math.nan, 1.0), (2.0, math.nan), (2.0, math.inf),
                   (math.inf, 0.1), (1e200, 1.0)):
        with pytest.raises(ParameterError):
            sc.sample_size(C, eps, 100)


def test_failure_bound_examples():
    assert sc.failure_bound(2.0, 3.0, 100, 10) == pytest.approx(
        10 * math.exp(-0.5 * (1 / 4) ** 2 * 100))
    assert sc.failure_bound(1.0, 5.0, 0, 10) == 1.0
    assert sc.failure_bound(2.0, 1.0, 50, 10) == 1.0  # vacuous below stability 1
    # algebraic inversion at gamma = inf: m = 2 C^2 ln(n/delta) hits delta on
    # the nose (the looser ln(2n/delta) sample size gives delta/2)
    C, n, delta = 1.7, 23, 0.037
    assert sc.failure_bound(C, math.inf, 2 * C * C * math.log(n / delta), n) \
        == pytest.approx(delta, rel=1e-12)
    assert sc.failure_bound(C, math.inf, 2 * C * C * math.log(2 * n / delta), n) \
        == pytest.approx(delta / 2, rel=1e-12)


def test_failure_bound_rejects_nan_and_an_unusable_C():
    # C must be finite and >= 1, as in DenseSolverConfig, and gamma must not be NaN
    for C, gamma in ((math.nan, 3.0), (math.inf, 3.0), (0.5, 3.0), (2.0, math.nan)):
        with pytest.raises(ParameterError):
            sc.failure_bound(C, gamma, 10, 10)
    # gamma = +inf and every gamma <= 1 keep their values
    assert sc.failure_bound(2.0, math.inf, 100, 10) == 10 * math.exp(-0.5 * 0.25 * 100)
    for gamma in (1.0, 0.5, -math.inf):
        assert sc.failure_bound(2.0, gamma, 100, 10) == 1.0


def test_dense_solve_c4_enumerate(c4):
    cut = sc.dense_solve(c4, DenseSolverConfig(m=4, seed=0))
    assert sc.cut_weight(c4, cut) == 4.0


def test_dense_solve_k44_seeded():
    planted = sc.gen_planted_partition(8, 1.0, 0.0, seed=2)
    cut = sc.dense_solve(planted.instance, DenseSolverConfig(
        m=6, seed=1, seed_cut=planted.planted_cut))
    assert sc.cut_weight(planted.instance, cut) == 16.0
    assert sc.same_bipartition(cut, planted.planted_cut)


def test_dense_solve_recovery_rate():
    planted = sc.gen_stable_bipartite_noise(14, 4.0, seed=5)
    inst = planted.instance
    opt, _, _ = sc.brute_force_maxcut(inst)
    C = sc.density_coefficient(inst)
    gl = sc.local_stability_gamma(inst, opt)
    bound = sc.failure_bound(C, gl, 10, 14)
    wins_enum = wins_seeded = 0
    for s in range(50):
        cut = sc.dense_solve(inst, DenseSolverConfig(m=10, seed=s))
        wins_enum += sc.same_bipartition(cut, opt)
        try:
            cut = sc.dense_solve(inst, DenseSolverConfig(
                m=10, seed=s, seed_cut=planted.planted_cut))
            wins_seeded += sc.same_bipartition(cut, opt)
        except SolverFailure:
            pass
    # the union bound is vacuous here, so the guarantee shifts to the seeded
    # partition; enumeration includes that partition and can only do better
    assert bound >= 0.5
    assert wins_seeded > 25
    assert wins_enum >= wins_seeded


def test_config_validation(c4):
    cut4 = sc.Cut([True, False, True, False])
    for fields in (dict(m=0),
                   dict(),  # no m, no (C, eps)
                   dict(C=2.0),
                   dict(m=4, k=0),
                   dict(m=4, k=8, seed_cut=cut4),
                   dict(C=math.inf, eps=0.1),
                   dict(C=math.nan, eps=0.1),
                   dict(C=2.0, eps=math.nan),
                   dict(m=4, C=math.nan),
                   dict(C=1e200, eps=1.0)):  # the sample size overflows float
        with pytest.raises(ParameterError):
            DenseSolverConfig(**fields)
    # only what needs the instance waits for the solve
    with pytest.raises(ParameterError, match="caps m at 22, got 23"):
        sc.dense_solve(c4, DenseSolverConfig(m=23))
    three = sc.Cut([True, False, False])
    with pytest.raises(ParameterError, match="seed_cut size mismatch"):
        sc.dense_solve(c4, DenseSolverConfig(m=4, seed_cut=three))
    two = sc.Instance([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ParameterError, match="seed_cut size mismatch"):
        sc.metric_dense_solve(two, DenseSolverConfig(m=4, seed_cut=three))
    # m resolved from (C, eps) when omitted
    cfg = DenseSolverConfig(C=2.0, eps=4.0, k=8, seed=3)
    assert sc.cut_weight(c4, sc.dense_solve(c4, cfg)) > 0
    with pytest.raises(dataclasses.FrozenInstanceError):  # checked once, so never reassigned
        cfg.k = 0


def test_degenerate_assignments_raise():
    # single sample on the True side: R is empty, every diff is <= 0, S = {}
    planted = sc.gen_planted_partition(8, 1.0, 0.0, seed=2)
    samples = draw_samples(8, 1, seed=0)
    side = planted.planted_cut.side.copy()
    side[:] = False
    side[samples[0]] = True  # force the lone sample onto the True side
    with pytest.raises(SolverFailure):
        sc.dense_solve(planted.instance, DenseSolverConfig(
            m=1, seed=0, seed_cut=sc.Cut(side)))


def test_enumeration_invariant_under_sample_order():
    rng = np.random.default_rng(8)
    inst = random_instance(rng, 9)
    samples = draw_samples(9, 6, seed=4)
    masks = ((np.arange(64, dtype=np.uint64)[:, None]
              >> np.arange(6, dtype=np.uint64)[None, :]) & 1).astype(bool)
    sides = induced_side_matrix(inst.weights, samples, masks)
    perm = rng.permutation(6)
    sides_p = induced_side_matrix(inst.weights, samples[perm], masks[:, perm])
    assert np.array_equal(sides, sides_p)


def test_returned_cut_is_argmax(c4):
    # the solver's answer matches an independent rescoring of all candidates
    samples = draw_samples(4, 5, seed=6)
    masks = ((np.arange(32, dtype=np.uint64)[:, None]
              >> np.arange(5, dtype=np.uint64)[None, :]) & 1).astype(bool)
    sides = induced_side_matrix(c4.weights, samples, masks)
    best = -math.inf
    for k in range(sides.shape[1]):
        s = sides[:, k]
        if s.any() and not s.all():
            best = max(best, sc.cut_weight(c4, sc.Cut(s)))
    cut = sc.dense_solve(c4, DenseSolverConfig(m=5, seed=6))
    assert sc.cut_weight(c4, cut) == best


def test_seeded_failure_frequency_against_bound():
    # nonvacuous configuration: complete bipartite, so C = 2 and gamma = inf
    planted = sc.gen_planted_partition(14, 1.0, 0.0, seed=9)
    inst = planted.instance
    opt, _, _ = sc.brute_force_maxcut(inst)
    C = sc.density_coefficient(inst)
    gl = sc.local_stability_gamma(inst, opt)
    m, trials = 32, 400
    bound = sc.failure_bound(C, gl, m, inst.n)
    assert bound < 1.0
    fails = sum(bool(per_vertex_failures(inst, opt, draw_samples(inst.n, m, s)).any())
                for s in range(trials))
    freq = fails / trials
    assert freq <= bound + 3 * math.sqrt(bound * (1 - bound) / trials)
