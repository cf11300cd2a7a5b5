import math

import numpy as np
import pytest

import stablecut as sc
from stablecut.errors import ParameterError

INF = math.inf


def test_generators_are_deterministic():
    for make in (lambda s: sc.gen_planted_partition(8, 0.8, 0.2, s),
                 lambda s: sc.gen_stable_bipartite_noise(8, 5.0, s),
                 lambda s: sc.gen_euclidean_metric(6, 2, 3.0, s)):
        a, b = make(123), make(123)
        assert np.array_equal(a.instance.weights, b.instance.weights)
        assert a.planted_cut == b.planted_cut


def test_planted_partition():
    planted = sc.gen_planted_partition(8, 1.0, 0.0, seed=4)
    rep = sc.instance_stability(planted.instance)
    assert rep.gamma == INF and rep.is_unique_maxcut
    opt, _, _ = sc.brute_force_maxcut(planted.instance)
    assert sc.same_bipartition(opt, planted.planted_cut)
    assert planted.claims["gamma"] == INF

    with pytest.raises(ParameterError):
        sc.gen_planted_partition(4, 0.5, 0.6, seed=0)

    hits = 0
    for s in range(100):
        p = sc.gen_planted_partition(8, 0.9, 0.1, seed=s)
        opt, _, _ = sc.brute_force_maxcut(p.instance)
        hits += sc.same_bipartition(opt, p.planted_cut)
    assert hits > 90


def test_stable_bipartite_noise():
    planted = sc.gen_stable_bipartite_noise(10, 8.0, seed=3)
    assert sc.cut_stability_gamma(planted.instance, planted.planted_cut) >= 8.0
    assert planted.claims["verification"] == "subset-oracle"
    assert "PCG64" in planted.claims["prng"]

    pure = sc.gen_stable_bipartite_noise(10, INF, seed=1)
    assert sc.cut_stability_gamma(pure.instance, pure.planted_cut) == INF

    loose = sc.gen_stable_bipartite_noise(10, 1.0, seed=2)
    assert sc.cut_stability_gamma(loose.instance, loose.planted_cut) >= 1.0

    with pytest.raises(ParameterError):
        sc.gen_stable_bipartite_noise(10, 0.5, seed=0)


def test_claimed_gamma_is_the_subset_scan_at_the_planted_cut_and_the_optimum():
    """Criterion 6 and the stability sweep read claims["gamma"] in place of
    the scan; the scan sees a cut only through its separated pairs, so the
    complement the oracle may return reads the same."""
    pool = [(n, target, seed) for n in (4, 8, 12, 16) for target in (1.5, 8.0, 2.4 * n, INF)
            for seed in (n, 3 * n + 1)]
    pool += [(20, 8.0, 5), (20, INF, 6)]
    infinite = 0
    for n, target, seed in pool:
        planted = sc.gen_stable_bipartite_noise(n, target, seed)
        assert planted.claims["verification"] == "subset-oracle"
        claim = np.float64(planted.claims["gamma"]).tobytes()
        scan = sc.cut_stability_gamma(planted.instance, planted.planted_cut)
        assert np.float64(scan).tobytes() == claim, (n, target, seed)
        opt, _, _ = sc.brute_force_maxcut(planted.instance)
        assert sc.same_bipartition(opt, planted.planted_cut)
        for cut in (opt, opt.complement()):
            assert np.float64(sc.cut_stability_gamma(planted.instance, cut)).tobytes() == claim
        infinite += math.isinf(scan)
    assert infinite == 9


def test_euclidean_metric():
    planted = sc.gen_euclidean_metric(4, 1, 10.0, seed=0)
    assert sc.is_metric(planted.instance).ok
    opt, _, _ = sc.brute_force_maxcut(planted.instance)
    assert sc.same_bipartition(opt, planted.planted_cut)
    assert sc.local_stability_gamma(planted.instance, opt) > 3.0

    # tiny separation: planted cut carries no optimality claim but stays valid
    noisy = sc.gen_euclidean_metric(4, 1, 1e-3, seed=5)
    assert sc.is_metric(noisy.instance).ok
    assert noisy.claims["planted_verified"] is False

    with pytest.raises(ParameterError):
        sc.gen_euclidean_metric(5, 1, 1.0, seed=0)


@pytest.mark.parametrize("separation", [0.0, -1.0, float("nan"), INF, -INF])
def test_euclidean_metric_rejects_a_separation_that_is_not_finite_and_positive(separation):
    with pytest.raises(ParameterError, match="^separation must be finite and positive$"):
        sc.gen_euclidean_metric(4, 1, separation, seed=1)


def test_stable_bipartite_noise_rejects_nan_gamma():
    # NaN fails every comparison, so it must not reach the exhaustive scans
    with pytest.raises(ParameterError, match="^gamma_target must be >= 1$"):
        sc.gen_stable_bipartite_noise(20, float("nan"), 1)


def test_tightness_example():
    for pairs in range(2, 7):
        assert sc.is_metric(sc.gen_tightness_example(pairs).instance).ok

    t = sc.gen_tightness_example(2)
    cut, w, count = sc.brute_force_maxcut(t.instance)
    assert count == 1 and sc.same_bipartition(cut, t.planted_cut)
    assert w == 44.0
    # exact stability levels at the smallest size: 5/3 over subsets, 11/4
    # per vertex (the asymptotic level 3 is approached from below as the
    # construction grows: 2.0 at three pairs, 2.2 at four).
    assert sc.cut_stability_gamma(t.instance, cut) == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert sc.local_stability_gamma(t.instance, cut) == pytest.approx(11.0 / 4.0, rel=1e-12)
    assert sc.cut_stability_gamma(sc.gen_tightness_example(3).instance,
                                  sc.gen_tightness_example(3).planted_cut) == pytest.approx(2.0)

    # neither side of the optimum is a metric ball
    from stablecut.metric import enumerate_balls
    balls = enumerate_balls(t.instance)
    for side in (cut.side, ~cut.side):
        assert not any(np.array_equal(b, side) for b in balls)

    with pytest.raises(ParameterError):
        sc.gen_tightness_example(1)


def test_matching_epsilon_counts():
    count = len(sc.enumerate_locally_stable_cuts(sc.gen_matching_epsilon(2, 1e-3), 2.0))
    assert count == 2
    # the locally stable cut count never grows with eps, and strictly drops
    # from three pairs on (at two pairs both eps values give exactly 2)
    count_heavy = len(sc.enumerate_locally_stable_cuts(sc.gen_matching_epsilon(2, 0.999), 2.0))
    assert count_heavy <= count
    assert len(sc.enumerate_locally_stable_cuts(sc.gen_matching_epsilon(3, 0.999), 2.0)) \
        < len(sc.enumerate_locally_stable_cuts(sc.gen_matching_epsilon(3, 1e-3), 2.0))

    with pytest.raises(ParameterError):
        sc.gen_matching_epsilon(2, 1.5)


def test_infinite_stable_not_distinguished():
    planted = sc.gen_infinite_stable_not_distinguished(4, 1e-3)
    rep = sc.instance_stability(planted.instance)
    assert rep.gamma == INF
    assert rep.alpha < 0.01
    assert rep.cheeger < 0.3
