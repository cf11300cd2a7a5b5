import itertools
import math

import numpy as np
import pytest

import stablecut as sc
from stablecut.errors import ParameterError, SizeLimitError
from stablecut.oracle import subset_scan_minima

from conftest import random_cut, random_instance

INF = math.inf


def test_brute_force_examples(c4, k3):
    cut, w, count = sc.brute_force_maxcut(c4)
    assert (w, count) == (4.0, 1)
    assert sc.same_bipartition(cut, sc.Cut([True, False, True, False]))

    cut, w, count = sc.brute_force_maxcut(k3)
    assert (w, count) == (2.0, 3)
    # reported cut is the lexicographically smallest side vector
    assert list(cut.side.astype(int)) == [1, 0, 0]

    k4 = sc.Instance(np.ones((4, 4)) - np.eye(4))
    _, w, count = sc.brute_force_maxcut(k4)
    assert (w, count) == (4.0, 3)


def test_brute_force_size_cap(k3):
    with pytest.raises(SizeLimitError):
        sc.brute_force_maxcut(k3, max_n=2)


def test_cut_stability_examples(c4, k3, k22_heavy, c4_maxcut):
    assert sc.cut_stability_gamma(c4, c4_maxcut) == INF
    assert sc.cut_stability_gamma(k3, sc.Cut([True, False, False])) == 1.0
    assert sc.cut_stability_gamma(k22_heavy, sc.Cut([True, False, True, False])) == 10.0


def test_local_stability_examples(c4, k3, pair_metric, c4_maxcut):
    assert sc.local_stability_gamma(c4, c4_maxcut) == INF
    assert sc.local_stability_gamma(k3, sc.Cut([True, False, False])) == 1.0
    assert sc.local_stability_gamma(pair_metric, sc.Cut([True, True, False, False])) == 4.0


def test_distinction_examples(c4, k3, c4_maxcut):
    assert sc.distinction_alpha(k3, sc.Cut([True, False, False])) == 0.0
    assert sc.distinction_alpha(c4, c4_maxcut) == 0.5
    planted = sc.gen_infinite_stable_not_distinguished(4, 1e-3)
    assert sc.distinction_alpha(planted.instance, planted.planted_cut) < 0.01


def test_cheeger_examples(c4, k3):
    assert sc.cheeger_constant(k3) == 1.0
    assert sc.cheeger_constant(c4) == 0.5
    k22 = sc.gen_planted_partition(4, 1.0, 0.0, seed=0).instance
    assert sc.cheeger_constant(k22) == 0.5


def test_enumerate_locally_stable_cuts(c4, k3):
    cuts = sc.enumerate_locally_stable_cuts(c4, 2.0)
    assert len(cuts) == 1 and sc.same_bipartition(cuts[0], sc.Cut([True, False, True, False]))

    assert len(sc.enumerate_locally_stable_cuts(sc.gen_matching_epsilon(2, 1e-3), 2.0)) == 2
    assert len(sc.enumerate_locally_stable_cuts(sc.gen_matching_epsilon(3, 1e-3), 2.0)) == 4
    assert len(sc.enumerate_locally_stable_cuts(k3, 1.0)) == 3

    with pytest.raises(ParameterError):
        sc.enumerate_locally_stable_cuts(k3, 0.5)


def test_instance_stability_examples(c4, k3, k22_heavy):
    rep = sc.instance_stability(c4)
    assert rep.gamma == INF and rep.is_unique_maxcut
    assert rep.alpha == 0.5 and rep.cheeger == 0.5

    rep = sc.instance_stability(k3)
    assert rep.gamma == 1.0 and not rep.is_unique_maxcut

    rep = sc.instance_stability(k22_heavy)
    assert rep.gamma == 10.0 and rep.is_unique_maxcut


# ---------------------------------------------------------------------------
# cross-invariants on random instances
# ---------------------------------------------------------------------------


def _profile(inst):
    cut, _, count = sc.brute_force_maxcut(inst)
    gamma = sc.cut_stability_gamma(inst, cut)
    return cut, count, gamma


def test_oracle_invariants_random():
    rng = np.random.default_rng(20240811)
    for _ in range(30):
        n = int(rng.integers(5, 11))
        inst = random_instance(rng, n)
        cut, count, gamma = _profile(inst)
        gamma_local = sc.local_stability_gamma(inst, cut)
        alpha = sc.distinction_alpha(inst, cut)
        h = sc.cheeger_constant(inst)

        assert gamma <= gamma_local * (1 + 1e-9) or gamma == gamma_local == INF
        assert alpha <= h + 1e-9
        if count == 1 and alpha < 1.0:
            assert gamma >= (1 + alpha) / (1 - alpha) * (1 - 1e-9)
        # stability above 1 iff unique optimum
        if gamma > 1.0 + 1e-9:
            assert count == 1
        if count > 1:
            assert gamma <= 1.0 + 1e-9


def test_stability_matches_perturbation_definition():
    # cross-check against the definition itself: the optimum survives every
    # entrywise inflation bounded by the measured gamma, while inflating the
    # non-cut edges just past gamma always dethrones it
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 12:
        n = int(rng.integers(5, 9))
        inst = random_instance(rng, n)
        opt, _, count = sc.brute_force_maxcut(inst)
        gamma = sc.cut_stability_gamma(inst, opt)
        if count != 1 or not math.isfinite(gamma) or gamma <= 1.0:
            continue
        checked += 1
        F = np.triu(rng.uniform(1.0, gamma * (1 - 1e-9), (n, n)), 1)
        F += F.T
        np.fill_diagonal(F, 1.0)
        survived, _ = sc.apply_perturbation(inst, F)
        p_opt, _, p_count = sc.brute_force_maxcut(survived)
        assert p_count == 1 and sc.same_bipartition(p_opt, opt)

        separated = opt.delta[:, None] * opt.delta[None, :] < 0
        F2 = np.where(separated, 1.0, gamma * (1 + 1e-6))
        np.fill_diagonal(F2, 1.0)
        dethroned, _ = sc.apply_perturbation(inst, F2)
        d_opt, _, _ = sc.brute_force_maxcut(dethroned)
        assert not sc.same_bipartition(d_opt, opt)


def test_local_stability_matches_perturbation_definition():
    # scaling one vertex's non-cut edges just past its xi/iota ratio makes
    # flipping that vertex profitable; below the minimum ratio it never is
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 10:
        n = int(rng.integers(5, 9))
        inst = random_instance(rng, n)
        opt, w, _ = sc.brute_force_maxcut(inst)
        g = sc.local_stability_gamma(inst, opt)
        if not math.isfinite(g) or g <= 1.0:
            continue
        checked += 1
        from stablecut.oracle import per_vertex_cut_weights
        xi, iota = per_vertex_cut_weights(inst.weights, opt.side)
        x = int(np.argmin(np.where(iota > 0, xi / np.where(iota > 0, iota, 1), math.inf)))
        factor = g * (1 + 1e-6)
        F = np.ones((n, n))
        same = opt.side == opt.side[x]
        F[x, same] = factor
        F[same, x] = factor
        np.fill_diagonal(F, 1.0)
        pert, _ = sc.apply_perturbation(inst, F)
        flipped = opt.side.copy()
        flipped[x] = ~flipped[x]
        assert sc.cut_weight(pert, sc.Cut(flipped)) > sc.cut_weight(pert, opt)


def test_unique_maxcut_is_enumerated():
    rng = np.random.default_rng(77)
    found_any = False
    for _ in range(20):
        inst = random_instance(rng, 7)
        cut, count, gamma = _profile(inst)
        if count != 1 or not gamma > 1.0:
            continue
        found_any = True
        level = 1.0 + (min(gamma, 10.0) - 1.0) / 2
        cuts = sc.enumerate_locally_stable_cuts(inst, level)
        assert any(sc.same_bipartition(c, cut) for c in cuts)
    assert found_any


def test_local_distinction_identity():
    # min over vertices of (xi - iota)/mu equals (g-1)/(g+1) at g = local gamma
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        inst = random_instance(rng, n)
        cut, _, _ = _profile(inst)
        g = sc.local_stability_gamma(inst, cut)
        from stablecut.oracle import per_vertex_cut_weights
        xi, iota = per_vertex_cut_weights(inst.weights, cut.side)
        lhs = float(((xi - iota) / (xi + iota)).min())
        rhs = 1.0 if g == INF else (g - 1.0) / (g + 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# differential check against a reference built from subsets alone
# ---------------------------------------------------------------------------


def _ref_cuts(n):
    """Every cut with vertex 0 in S and S != V, in lexicographic side order."""
    for rest in itertools.product((False, True), repeat=n - 1):
        if not all(rest):
            yield sc.Cut((True,) + rest)


def _ref_maxcut(inst):
    cuts = list(_ref_cuts(inst.n))
    weights = [sc.cut_weight(inst, c) for c in cuts]
    best = max(weights)
    optima = [c for c, w in zip(cuts, weights) if w >= best - 1e-9 * best]
    return optima[0], sc.cut_weight(inst, optima[0]), len(optima)


def _ref_minima(inst, cut):
    """(gamma, alpha, cheeger) over every nonempty proper subset."""
    total_mu = float(inst.weights.sum())
    gamma = alpha = cheeger = INF
    for k in range(1, inst.n):
        for subset in itertools.combinations(range(inst.n), k):
            s = sc.subset_stats(inst, cut, subset)
            smaller = min(s.mu, total_mu - s.mu)
            gamma = min(gamma, s.xi / s.iota if s.iota > 0 else INF)
            alpha = min(alpha, (s.xi - s.iota) / smaller)
            cheeger = min(cheeger, s.tau / smaller)
    return gamma, alpha, cheeger


def _ref_local_gamma(inst, cut):
    stats = [sc.subset_stats(inst, cut, v) for v in range(inst.n)]
    return min(s.xi / s.iota if s.iota > 0 else INF for s in stats)


def test_oracle_matches_subset_reference():
    rng = np.random.default_rng(2026)
    pool = [random_instance(rng, int(rng.integers(3, 11))) for _ in range(8)]
    pool += [sc.Instance(np.ones((n, n)) - np.eye(n)) for n in (4, 5, 6, 7)]  # tie-heavy
    pool += [sc.gen_matching_epsilon(pairs, 1e-3) for pairs in (2, 3, 4, 5)]
    for inst in pool:
        cut, w, count = sc.brute_force_maxcut(inst)
        assert (cut, w, count) == _ref_maxcut(inst)
        for c in (cut, random_cut(rng, inst.n)):
            gamma, alpha, cheeger = _ref_minima(inst, c)
            assert subset_scan_minima(inst.weights, c.delta) == pytest.approx(
                (gamma, alpha, cheeger), rel=1e-9, abs=1e-12)
            assert subset_scan_minima(inst.weights, None) == pytest.approx(
                (INF, INF, cheeger), rel=1e-9, abs=1e-12)
            assert sc.local_stability_gamma(inst, c) == pytest.approx(
                _ref_local_gamma(inst, c), rel=1e-9)
        local = [(c, _ref_local_gamma(inst, c)) for c in _ref_cuts(inst.n)]
        for level in (1.0, 1.1, 2.0):
            expected = [c for c, g in local if g >= level * (1 - 1e-9)]
            assert sc.enumerate_locally_stable_cuts(inst, level) == expected

    # n = 16 spans two scan chunks, and the 128 tied optima come out as two
    # float weights one ulp apart, the larger one first in scan order
    inst = sc.gen_matching_epsilon(8, 1e-3)
    assert sc.brute_force_maxcut(inst) == _ref_maxcut(inst)
