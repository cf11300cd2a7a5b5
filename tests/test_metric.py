import tracemalloc

import numpy as np
import pytest

import stablecut as sc
from stablecut.dense import DenseSolverConfig, _partition_chunks, draw_samples, induced_side_matrix
from stablecut.errors import ParameterError, PreconditionError, SolverFailure, StableCutError
from stablecut.instance import heaviest_side
from stablecut.metric import FLOOR_EPS, enumerate_balls


def test_normalize_total_weight(c4):
    two = sc.Instance([[0.0, 4.0], [4.0, 0.0]])
    normalized, scale = sc.normalize_total_weight(two)
    assert scale == 1.0 and np.array_equal(normalized.weights, two.weights)

    normalized, scale = sc.normalize_total_weight(c4)
    assert scale == 4.0
    assert normalized.weights.sum() == 2.0 * 16

    # scaling preserves the argmax cut
    opt_before, _, _ = sc.brute_force_maxcut(c4)
    opt_after, _, _ = sc.brute_force_maxcut(normalized)
    assert sc.same_bipartition(opt_before, opt_after)


def test_split_instance_small_examples(c4):
    two, _ = sc.normalize_total_weight(sc.Instance([[0.0, 4.0], [4.0, 0.0]]))
    smap = sc.split_instance(two)
    assert smap.split.n == 8
    assert list(smap.multiplicity) == [4, 4]
    cross = smap.split.weights[0, 4:]
    assert np.all(cross == 0.25)
    assert np.all(smap.split.degrees() == 1.0)

    norm_c4, _ = sc.normalize_total_weight(c4)
    smap = sc.split_instance(norm_c4)
    assert smap.split.n == 32 and list(smap.multiplicity) == [8, 8, 8, 8]
    nonzero = smap.split.weights[smap.split.weights > 0]
    assert np.allclose(nonzero, 1.0 / 16.0)

    with pytest.raises(PreconditionError):
        sc.split_instance(c4)  # not normalized


def test_split_density_bound_and_floor():
    for seed, n in ((0, 4), (1, 6), (2, 8), (3, 10)):
        inst = sc.gen_euclidean_metric(n, 2, 3.0, seed).instance
        normalized, _ = sc.normalize_total_weight(inst)
        smap = sc.split_instance(normalized)
        assert (smap.multiplicity >= n).all()  # tau >= n on normalized metrics
        assert (smap.split.degrees() >= 1.0 - 1e-9).all()
        assert sc.density_coefficient(smap.split) <= 4.0 / (1 - 1 / n) ** 2 * (1 + 1e-9)


def test_lift_preserves_weight_and_local_gamma():
    # a cut lifts to the split by putting every copy on its vertex's side
    inst = sc.gen_euclidean_metric(6, 2, 4.0, seed=7).instance
    normalized, _ = sc.normalize_total_weight(inst)
    smap = sc.split_instance(normalized)
    rng = np.random.default_rng(0)
    for _ in range(10):
        side = np.zeros(6, dtype=bool)
        side[rng.permutation(6)[: rng.integers(1, 6)]] = True
        cut = sc.Cut(side)
        lifted = sc.Cut(cut.side[smap.pi])
        assert sc.cut_weight(smap.split, lifted) == pytest.approx(
            sc.cut_weight(normalized, cut), rel=1e-12)
        assert sc.local_stability_gamma(smap.split, lifted) == pytest.approx(
            sc.local_stability_gamma(normalized, cut), rel=1e-12)


def test_subset_stability_preserved_by_splitting():
    # Full subset-level stability is preserved by the weight-dividing split.
    # The tau-floor split explodes the vertex count, so the exhaustive
    # cross-check lives at a 3-point original (18 split vertices) plus a
    # custom small-multiplicity split of a 5-point metric.
    inst = sc.gen_euclidean_metric(4, 1, 3.0, seed=2).instance
    sub = sc.Instance(inst.weights[np.ix_([0, 1, 2], [0, 1, 2])])
    normalized, _ = sc.normalize_total_weight(sub)
    smap = sc.split_instance(normalized)
    assert smap.split.n <= 20
    cut = sc.Cut([True, False, False])
    g_orig = sc.cut_stability_gamma(normalized, cut)
    g_split = sc.cut_stability_gamma(smap.split, sc.Cut(cut.side[smap.pi]))
    assert g_split == pytest.approx(g_orig, rel=1e-9)

    mult = np.array([1, 2, 3, 1, 2])
    inst5 = sc.gen_euclidean_metric(6, 2, 2.0, seed=3).instance
    W5 = inst5.weights[np.ix_(range(5), range(5))]
    pi = np.repeat(np.arange(5), mult)
    Wt = (W5 / np.outer(mult, mult))[np.ix_(pi, pi)]
    Wt[pi[:, None] == pi[None, :]] = 0.0
    split5 = sc.Instance(Wt)
    cut5 = sc.Cut([True, True, False, False, True])
    g_orig = sc.cut_stability_gamma(sc.Instance(W5), cut5)
    g_split = sc.cut_stability_gamma(split5, sc.Cut(cut5.side[pi]))
    assert g_split == pytest.approx(g_orig, rel=1e-9)


def test_locally_stable_cuts_biject_under_splitting():
    # Every >1-locally-stable cut of the split instance is the lift of one of
    # the original's, and vice versa.  Feasible exhaustively only for a tiny
    # original (the tau-floor split already has 16 vertices here) plus a
    # custom small-multiplicity split of a 5-point metric.
    inst = sc.gen_euclidean_metric(4, 1, 3.0, seed=2).instance
    sub = sc.Instance(inst.weights[np.ix_([0, 1, 2], [0, 1, 2])])
    normalized, _ = sc.normalize_total_weight(sub)
    smap = sc.split_instance(normalized)
    for level in (1.02, 2.0):
        orig = sc.enumerate_locally_stable_cuts(normalized, level)
        split = sc.enumerate_locally_stable_cuts(smap.split, level)
        assert len(orig) == len(split)
        lifts = {sc.Cut(c.side[smap.pi]) for c in orig}
        lifts |= {sc.Cut(~c.side[smap.pi]) for c in orig}
        assert all(c in lifts for c in split)

    inst5 = sc.gen_euclidean_metric(6, 2, 2.0, seed=3).instance
    W5 = inst5.weights[np.ix_(range(5), range(5))]
    mult = np.array([1, 2, 3, 1, 2])
    pi = np.repeat(np.arange(5), mult)
    Wt = (W5 / np.outer(mult, mult))[np.ix_(pi, pi)]
    Wt[pi[:, None] == pi[None, :]] = 0.0
    split5 = sc.Instance(Wt)
    for level in (1.01, 1.3):
        orig = sc.enumerate_locally_stable_cuts(sc.Instance(W5), level)
        split = sc.enumerate_locally_stable_cuts(split5, level)
        assert len(orig) == len(split)
        lifts = {sc.Cut(c.side[pi]) for c in orig}
        lifts |= {sc.Cut(c.complement().side[pi]) for c in orig}
        assert all(c in lifts for c in split)


def test_metric_dense_solve():
    planted = sc.gen_euclidean_metric(6, 2, 10.0, seed=1)
    opt, w, _ = sc.brute_force_maxcut(planted.instance)
    cut = sc.metric_dense_solve(planted.instance, DenseSolverConfig(
        m=8, seed=0, seed_cut=planted.planted_cut))
    assert sc.same_bipartition(cut, opt)

    two = sc.Instance([[0.0, 1.0], [1.0, 0.0]])
    cut = sc.metric_dense_solve(two, DenseSolverConfig(m=3, seed=0))
    assert sc.cut_weight(two, cut) == 1.0

    c4 = sc.Instance([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    with pytest.raises(PreconditionError):
        sc.metric_dense_solve(c4, DenseSolverConfig(m=4, seed=0))


def test_metric_dense_solve_tightness_majority_or_vacuous_bound():
    planted = sc.gen_tightness_example(2)
    inst = planted.instance
    opt, _, _ = sc.brute_force_maxcut(inst)
    normalized, _ = sc.normalize_total_weight(inst)
    smap = sc.split_instance(normalized)
    C = sc.density_coefficient(smap.split)
    gl = sc.local_stability_gamma(inst, opt)
    bound = sc.failure_bound(C, gl, 8, smap.split.n)
    hits = sum(sc.same_bipartition(
        sc.metric_dense_solve(inst, DenseSolverConfig(m=8, seed=s)), opt)
        for s in range(20))
    assert hits > 10 or bound >= 0.5


def _split_vote_solve(inst, cfg):
    """The split-matrix solver, kept as the reference: it builds the split,
    votes with its rows and repairs every candidate by a per-fiber majority."""
    if not sc.is_metric(inst):
        raise PreconditionError("instance is not a metric")
    normalized, _ = sc.normalize_total_weight(inst)
    mult = np.floor(normalized.degrees() + FLOOR_EPS).astype(int)
    pi = np.repeat(np.arange(inst.n), mult)
    W = (normalized.weights / np.outer(mult, mult))[np.ix_(pi, pi)]
    W[pi[:, None] == pi[None, :]] = 0.0
    assert W.tobytes() == sc.split_instance(normalized).split.weights.tobytes()
    samples = draw_samples(pi.size, cfg.resolve_m(pi.size), cfg.seed)
    sample_sides = None
    if cfg.seed_cut is not None:
        if cfg.seed_cut.n != inst.n:
            raise ParameterError("cut size mismatch")
        sample_sides = cfg.seed_cut.side[pi[samples]]

    def repaired():
        for r_masks in _partition_chunks(cfg, samples, sample_sides):
            split_sides = induced_side_matrix(W, samples, r_masks)
            fiber_votes = np.zeros((inst.n, split_sides.shape[1]))
            np.add.at(fiber_votes, pi, split_sides.astype(np.float64))
            yield 2.0 * fiber_votes >= mult[:, None]

    hit = heaviest_side(inst, repaired())
    if hit is None:
        raise SolverFailure("every sample partition induced a degenerate cut")
    return sc.Cut(hit[1])


def _outcome(solve, inst, cfg):
    try:
        return solve(inst, cfg).side.tobytes()
    except StableCutError as exc:
        return type(exc)


def _differential_pool():
    """(instance, seed cut) pairs: Euclidean clouds, tightness examples and
    {1, 2} metrics, whose exact vote ties exercise the strict w(x, R) > w(x, L) rule."""
    for n in (2, 4, 8, 12, 24, 40):
        for k in range(3 if n <= 12 else 1):  # n = 24 and 40 split into ~1k and ~3k copies
            planted = sc.gen_euclidean_metric(n, 1 + k, (0.5, 2.0, 10.0)[k], seed=n + k)
            yield planted.instance, planted.planted_cut
    for pairs in range(2, 6):
        planted = sc.gen_tightness_example(pairs)
        yield planted.instance, planted.planted_cut
    rng = np.random.default_rng(5)
    for n in (4, 6, 9, 13):
        upper = np.triu(rng.integers(1, 3, size=(n, n)), 1).astype(float)
        yield sc.Instance(upper + upper.T), sc.Cut(np.arange(n) % 3 == 0)


def test_metric_dense_matches_split_vote_solver():
    for inst, cut in _differential_pool():
        for seed in range(2):
            for cfg in (DenseSolverConfig(m=8, seed=seed),
                        DenseSolverConfig(m=12, k=40, seed=seed),
                        DenseSolverConfig(C=4.0, eps=40.0, k=20, seed=seed),
                        DenseSolverConfig(m=6, seed=seed, seed_cut=cut),
                        DenseSolverConfig(m=1, seed=seed, seed_cut=cut)):
                expected = _outcome(_split_vote_solve, inst, cfg)
                assert _outcome(sc.metric_dense_solve, inst, cfg) == expected, (inst, cfg)
    wrong_size = DenseSolverConfig(m=4, seed_cut=sc.Cut([True, False, False]))
    c4 = sc.Instance([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    two = sc.Instance([[0.0, 1.0], [1.0, 0.0]])
    for inst, cfg in ((two, wrong_size), (two, DenseSolverConfig(m=23)),
                      (two, DenseSolverConfig(m=4)),
                      (c4, DenseSolverConfig(m=4))):
        assert _outcome(sc.metric_dense_solve, inst, cfg) == _outcome(_split_vote_solve, inst, cfg)


def test_metric_dense_reaches_n80_in_small_memory():
    # the split of this instance has ~12.8k copies: a split matrix would take 1.3 GB
    planted = sc.gen_euclidean_metric(80, 2, 10.0, seed=0)
    tracemalloc.start()
    try:
        cut = sc.metric_dense_solve(planted.instance, DenseSolverConfig(m=10, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sc.same_bipartition(cut, planted.planted_cut)
    assert sc.psd_rank_certificate(sc.build_spectral_bundle(planted.instance, cut)) == "certified"
    assert peak < 32 * 2 ** 20


def test_ball_enumeration_solve(pair_metric):
    opt, w, _ = sc.brute_force_maxcut(pair_metric)
    cut = sc.ball_enumeration_solve(pair_metric)
    assert sc.cut_weight(pair_metric, cut) == w == 8.0

    tight = sc.gen_tightness_example(2)
    _, w, _ = sc.brute_force_maxcut(tight.instance)
    ball_cut = sc.ball_enumeration_solve(tight.instance)
    assert sc.cut_weight(tight.instance, ball_cut) == 37.0 < w == 44.0

    two = sc.Instance([[0.0, 1.0], [1.0, 0.0]])
    assert sc.cut_weight(two, sc.ball_enumeration_solve(two)) == 1.0

    c4 = sc.Instance([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    with pytest.raises(PreconditionError):
        sc.ball_enumeration_solve(c4)


def test_ball_property_on_stable_metrics():
    # local stability above 3 forces one optimal side to be a ball
    for seed in range(8):
        planted = sc.gen_euclidean_metric(8, 2, 12.0, seed=seed)
        opt, w, count = sc.brute_force_maxcut(planted.instance)
        assert count == 1
        assert sc.local_stability_gamma(planted.instance, opt) > 3.0
        balls = enumerate_balls(planted.instance)
        assert any(np.array_equal(b, opt.side) or np.array_equal(b, ~opt.side)
                   for b in balls)
        assert sc.cut_weight(planted.instance,
                             sc.ball_enumeration_solve(planted.instance)) == pytest.approx(w)


def _ref_enumerate_balls(inst):
    """The replaced per-radius enumeration: a list of membership vectors."""
    W = inst.weights
    balls = []
    for c in range(inst.n):
        for r in np.unique(np.concatenate(([0.0], W[c]))):
            inside = W[c] <= r
            if not inside.all():
                balls.append(inside)
    return balls


def _ref_ball_solve(inst):
    """The replaced per-ball loop: a Cut and a cut_weight per ball, first maximum wins."""
    best_w, best = -np.inf, None
    for inside in _ref_enumerate_balls(inst):
        w = sc.cut_weight(inst, sc.Cut(inside))
        if w > best_w:
            best_w, best = w, inside
    return sc.Cut(best)


def _ball_pool():
    # the set where a plain argmax of the quadratic identity printed the complement
    pool = [sc.gen_euclidean_metric(12, 2, 4.0, seed).instance for seed in range(40)]
    pool += [sc.gen_euclidean_metric(n, 2, 10.0, seed).instance
             for n in (24, 40) for seed in (5, 11)]
    pool += [sc.gen_tightness_example(pairs).instance for pairs in (2, 3, 4)]
    rng = np.random.default_rng(19)
    for _ in range(30):  # weights 1 and 2 always form a metric, with ties everywhere
        n = int(rng.integers(2, 16))
        W = np.triu(rng.integers(1, 3, (n, n)), 1).astype(float)
        pool.append(sc.Instance(W + W.T))
    pool.append(sc.Instance(np.ones((9, 9)) - np.eye(9)))  # every ball ties with its peers
    for _ in range(200):  # exact ties that float sums break by an ulp, either way
        n = int(rng.integers(4, 16))
        W = np.triu(rng.choice([0.1, 0.15, 0.2], (n, n)), 1)
        pool.append(sc.Instance(W + W.T))
    return pool


def test_ball_solve_matches_per_ball_loop():
    for k, inst in enumerate(_ball_pool()):
        balls = enumerate_balls(inst)
        ref = _ref_enumerate_balls(inst)
        assert balls.dtype == bool and balls.shape == (len(ref), inst.n), k
        assert all(np.array_equal(row, want) for row, want in zip(balls, ref)), k
        got = sc.ball_enumeration_solve(inst)
        assert got.side.tobytes() == _ref_ball_solve(inst).side.tobytes(), k


def test_cut_edge_lower_bound(pair_metric):
    cut = sc.Cut([True, True, False, False])
    check = sc.cut_edge_lower_bound_check(pair_metric, cut, 4.0)
    # every cross weight is 2 and the bound is (15/4) * 4 / 10 = 1.5
    assert check.ok and check.worst_slack == pytest.approx(0.5)
    assert sc.cut_edge_lower_bound_check(pair_metric, cut, 1.0).ok  # vacuous

    planted = sc.gen_euclidean_metric(8, 3, 8.0, seed=11)
    opt, _, _ = sc.brute_force_maxcut(planted.instance)
    gl = sc.local_stability_gamma(planted.instance, opt)
    assert sc.cut_edge_lower_bound_check(planted.instance, opt, gl).ok


def test_cut_edge_lower_bound_rejects_nan_gamma(pair_metric):
    with pytest.raises(ParameterError, match="^gamma must be >= 1$"):
        sc.cut_edge_lower_bound_check(pair_metric, sc.Cut([True, True, False, False]), float("nan"))
