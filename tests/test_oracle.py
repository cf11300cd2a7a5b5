import itertools
import math
import warnings

import numpy as np
import pytest

import stablecut as sc
from stablecut import oracle
from stablecut.errors import ParameterError, SizeLimitError
from stablecut.instance import REL_TOL, ZERO_FRACTION, cut_weights_for_sides
from stablecut.oracle import cut_sides, cut_stability, per_vertex_cut_weights, subset_scan_minima

from conftest import random_cut, random_instance, subset_stats

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
    # the max cut shares the one scan cap; there is no per-call cap to pass
    with pytest.raises(TypeError):
        sc.brute_force_maxcut(k3, max_n=2)
    k29 = sc.Instance(np.ones((29, 29)) - np.eye(29))
    with pytest.raises(SizeLimitError, match=r"^exhaustive scan capped at n <= 28, got 29$"):
        sc.brute_force_maxcut(k29)


def test_subset_scan_size_cap():
    # every other exhaustive scan stops before scanning when n > 28
    k29 = sc.Instance(np.ones((29, 29)) - np.eye(29))
    cut = sc.Cut(np.arange(29) % 2 == 0)
    for scan in (lambda: subset_scan_minima(k29.weights, cut.delta),
                 lambda: subset_scan_minima(k29.weights, None),
                 lambda: sc.cheeger_constant(k29),
                 lambda: sc.cut_stability_gamma(k29, cut),
                 lambda: sc.distinction_alpha(k29, cut),
                 lambda: sc.distinguished_condition(k29, cut),
                 lambda: sc.enumerate_locally_stable_cuts(k29, 1.0),
                 lambda: next(cut_sides(29)),
                 lambda: sc.instance_stability(k29)):
        with pytest.raises(SizeLimitError, match=r"^exhaustive scan capped at n <= 28, got 29$"):
            scan()


def test_instance_stability_reaches_past_24():
    # the complete bipartite graph has a unique maximum cut, infinitely
    # stable, so its distinction equals its Cheeger constant
    rep = sc.instance_stability(sc.gen_planted_partition(25, 1.0, 0.0, 1).instance)
    assert rep.gamma == rep.gamma_local == INF
    assert rep.is_unique_maxcut
    assert rep.alpha == rep.cheeger


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
        survived = sc.Instance(inst.weights * F)
        p_opt, _, p_count = sc.brute_force_maxcut(survived)
        assert p_count == 1 and sc.same_bipartition(p_opt, opt)

        separated = opt.delta[:, None] * opt.delta[None, :] < 0
        F2 = np.where(separated, 1.0, gamma * (1 + 1e-6))
        np.fill_diagonal(F2, 1.0)
        dethroned = sc.Instance(inst.weights * F2)
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
        xi, iota = per_vertex_cut_weights(inst.weights, opt.side)
        x = int(np.argmin(np.where(iota > 0, xi / np.where(iota > 0, iota, 1), math.inf)))
        factor = g * (1 + 1e-6)
        F = np.ones((n, n))
        same = opt.side == opt.side[x]
        F[x, same] = factor
        F[same, x] = factor
        np.fill_diagonal(F, 1.0)
        pert = sc.Instance(inst.weights * F)
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
            xi, iota, tau, mu = subset_stats(inst, cut, subset)
            smaller = min(mu, total_mu - mu)
            gamma = min(gamma, xi / iota if iota > 0 else INF)
            alpha = min(alpha, (xi - iota) / smaller)
            cheeger = min(cheeger, tau / smaller)
    return gamma, alpha, cheeger


def _ref_local_gamma(inst, cut):
    stats = [subset_stats(inst, cut, v) for v in range(inst.n)]
    return min(xi / iota if iota > 0 else INF for xi, iota, _, _ in stats)


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

    # n = 16 spans two scan chunks and has 128 tied optima
    inst = sc.gen_matching_epsilon(8, 1e-3)
    assert sc.brute_force_maxcut(inst) == _ref_maxcut(inst)


# ---------------------------------------------------------------------------
# differential check against the per-chunk kernel the block scan replaced
# ---------------------------------------------------------------------------


def _chunked_sides(n, chunk=1 << 14):
    """(n, k) side blocks built by shifting each chunk's masks, in mask order."""
    n_masks = (1 << (n - 1)) - 1
    shifts = np.arange(n - 2, -1, -1, dtype=np.uint64)
    for lo in range(0, n_masks, chunk):
        masks = np.arange(lo, min(lo + chunk, n_masks), dtype=np.uint64)
        sides = np.ones((n, masks.size), dtype=bool)
        sides[1:] = (masks[None, :] >> shifts[:, None]) & 1
        yield sides


def _chunked_maxcut(inst):
    best, near = -INF, {}
    for sides in _chunked_sides(inst.n):
        w = cut_weights_for_sides(inst.weights, sides)
        best = max(best, float(w.max()))
        idx = np.flatnonzero(w >= best - REL_TOL * best)
        values, first, counts = np.unique(w[idx], return_index=True, return_counts=True)
        for j in np.argsort(first):
            entry = near.setdefault(float(values[j]), [sides[:, idx[first[j]]].copy(), 0])
            entry[1] += int(counts[j])
    optima = [entry for v, entry in near.items() if v >= best - REL_TOL * best]
    cut = sc.Cut(optima[0][0])
    return cut, sc.cut_weight(inst, cut), sum(count for _, count in optima)


def _chunked_minima(W, delta):
    mu = W.sum(axis=1)
    total_mu = float(mu.sum())
    zero = ZERO_FRACTION * max(total_mu, 1e-300)
    if delta is not None:
        W_cut = W * (delta[:, None] * delta[None, :] < 0)
    gamma = alpha = cheeger = INF
    for sides in _chunked_sides(W.shape[0]):
        chi = sides.astype(np.float64)
        mu_a = mu @ chi
        tau = mu_a - np.einsum("ik,ik->k", chi, W @ chi)
        min_side = np.minimum(mu_a, total_mu - mu_a)
        min_side_safe = np.where(min_side > zero, min_side, INF)
        cheeger = min(cheeger, float((tau / min_side_safe).min()))
        if delta is not None:
            xi = W_cut.sum(axis=1) @ chi - np.einsum("ik,ik->k", chi, W_cut @ chi)
            iota = tau - xi
            ratio = np.where(iota > zero, xi / np.where(iota > zero, iota, 1.0), INF)
            gamma = min(gamma, float(ratio.min()))
            alpha = min(alpha, float(((xi - iota) / min_side_safe).min()))
    return gamma, alpha, cheeger


def _chunked_enumeration(inst, gamma):
    W = inst.weights
    zero = ZERO_FRACTION * max(float(W.sum()), 1e-300)
    found = []
    for sides in _chunked_sides(inst.n):
        xi, iota = per_vertex_cut_weights(W, sides)
        slack = xi - gamma * iota
        ok = (slack >= -REL_TOL * np.maximum(xi, gamma * iota) - zero).all(axis=0)
        found.extend(sc.Cut(sides[:, k]) for k in np.flatnonzero(ok))
    return found


LEVELS = (1.0, 1.1, 2.0, 3.0)


def test_block_scan_matches_chunked_kernel():
    # sizes cover no split (n = 2), the first split (n = 3), one partial chunk
    # and full chunks before a partial last one (n = 16, 18)
    rng = np.random.default_rng(314)
    pool = [random_instance(rng, n) for n in (2, 3, 5, 9, 12, 13, 14, 16, 18)]
    pool += [sc.Instance(np.ones((n, n)) - np.eye(n)) for n in (2, 3, 5, 9, 12, 13)]
    pool += [sc.gen_matching_epsilon(pairs, float(rng.uniform(1e-3, 0.3)))
             for pairs in (1, 6, 7, 8, 9)]
    for inst in pool:
        n = inst.n
        assert np.array_equal(np.concatenate(list(cut_sides(n)), axis=1),
                              np.concatenate(list(_chunked_sides(n)), axis=1))
        opt = sc.brute_force_maxcut(inst)
        assert opt == _chunked_maxcut(inst)
        for delta in (None, opt[0].delta, random_cut(rng, n).delta):
            assert subset_scan_minima(inst.weights, delta) == pytest.approx(
                _chunked_minima(inst.weights, delta), rel=1e-12, abs=1e-12)
        for level in LEVELS:
            assert sc.enumerate_locally_stable_cuts(inst, level) == _chunked_enumeration(inst, level)


@pytest.mark.parametrize("n", [19, 20])
def test_maxcut_tally_across_chunks_matches_chunked_kernel(n):
    # K_n and matching-eps (on 2 * (n // 2) vertices) tie within and across
    # chunk boundaries (32 chunks of 2^14 masks at n = 20); the planted
    # partition's unique optimum is first met in the last chunk, after every
    # earlier chunk has raised the best
    pool = [sc.Instance(np.ones((n, n)) - np.eye(n)), sc.gen_matching_epsilon(n // 2, 0.1),
            sc.gen_planted_partition(n, 0.9, 0.1, 30).instance]
    rng = np.random.default_rng(n)
    for inst in pool:
        opt = sc.brute_force_maxcut(inst)
        assert opt == _chunked_maxcut(inst)
        assert_fused_scan_matches(inst, random_cut(rng, inst.n), opt[2])
    ties = [sc.brute_force_maxcut(inst)[2] for inst in pool]
    assert ties == [math.comb(n, n // 2) // (2 if n % 2 == 0 else 1), 2 ** (n // 2 - 1), 1]
    side = sc.brute_force_maxcut(pool[2])[0].side
    assert int("".join(str(int(b)) for b in side[1:]), 2) >> 14 == (1 << (n - 15)) - 1


def assert_fused_scan_matches(inst, cut, count):
    """cut_stability's one subset scan gives subset_scan_minima's values bit for
    bit, and its tally counts the maximum cuts as brute_force_maxcut does."""
    rep = cut_stability(inst, cut)
    assert (rep.gamma, rep.alpha, rep.cheeger) == subset_scan_minima(inst.weights, cut.delta)
    assert rep.is_unique_maxcut == (count == 1)
    optima = oracle._Optima()
    oracle._minima(inst.weights, cut.delta, optima)
    assert optima.result()[1] == count


def test_fused_scan_matches_separate_scans_on_tied_pools():
    # the tally fed from the subset scan's tau table counts what the max-cut
    # scan counts, bit for bit, on pools with many ties
    rng = np.random.default_rng(606)
    pool = [random_instance(rng, n) for n in (2, 3, 7, 12, 16)]
    pool += [sc.Instance(np.ones((n, n)) - np.eye(n)) for n in (3, 6, 11, 16)]
    pool += [sc.gen_matching_epsilon(pairs, float(rng.uniform(1e-3, 0.3))) for pairs in (1, 4, 8)]
    for inst in pool:
        _, _, count = sc.brute_force_maxcut(inst)
        for cut in (random_cut(rng, inst.n), random_cut(rng, inst.n)):
            assert_fused_scan_matches(inst, cut, count)


def test_subset_scan_guard_for_a_near_isolated_vertex():
    # a degree below ZERO_FRACTION * total makes that vertex's side count as
    # empty: its ratios read 0, as in the kernel without the min-degree shortcut
    rng = np.random.default_rng(2718)
    base = random_instance(rng, 8).weights
    W = np.zeros((9, 9))
    W[:8, :8] = base
    W[0, 8] = W[8, 0] = 0.25 * ZERO_FRACTION * base.sum()
    inst = sc.Instance(W)
    opt = sc.brute_force_maxcut(inst)
    assert opt == _chunked_maxcut(inst)
    for delta in (None, opt[0].delta, random_cut(rng, 9).delta):
        minima = subset_scan_minima(W, delta)
        assert minima[2] == 0.0
        assert minima == pytest.approx(_chunked_minima(W, delta), rel=1e-12, abs=1e-12)
    for level in LEVELS:
        assert sc.enumerate_locally_stable_cuts(inst, level) == _chunked_enumeration(inst, level)


@pytest.mark.parametrize("n", [19, 20, 24])
def test_scans_with_odd_and_even_splits_match_chunked_kernel(n):
    # n = 19 splits the free vertices 9 + 9 and n = 20 splits them 9 + 10;
    # both end on a partial chunk.  n = 24 is the first size whose chunks
    # hold 8 high patterns rather than 2^14 masks.
    rng = np.random.default_rng(1000 + n)
    inst = random_instance(rng, n)
    opt = sc.brute_force_maxcut(inst)
    assert opt == _chunked_maxcut(inst)
    assert subset_scan_minima(inst.weights, opt[0].delta) == pytest.approx(
        _chunked_minima(inst.weights, opt[0].delta), rel=1e-12, abs=1e-12)
    if n < 24:
        for level in LEVELS:
            assert sc.enumerate_locally_stable_cuts(inst, level) == _chunked_enumeration(inst, level)



# ---------------------------------------------------------------------------
# the enumeration reads only the high patterns with a nonempty row set
# ---------------------------------------------------------------------------


def _complete(n):
    return sc.Instance(np.ones((n, n)) - np.eye(n))


def _random20():
    return random_instance(np.random.default_rng(2020), 20)


# (instance, gamma, whether the live patterns fill more than one group of scan.rows)
LIVE_CASES = {
    "K12": (lambda: _complete(12), 1.0, False),  # 32 high patterns, one group of 256
    "K16": (lambda: _complete(16), 1.0, True),
    "K18": (lambda: _complete(18), 1.0, True),
    "matching8": (lambda: sc.gen_matching_epsilon(8, 0.1), 1.1, False),
    "matching9": (lambda: sc.gen_matching_epsilon(9, 0.1), 1.1, False),
    "random20": (_random20, 1.0, True),
    "random20-1.1": (_random20, 1.1, True),  # 3 cuts, but live patterns in 5 groups
}


def _count_groups(monkeypatch):
    """Count the calls of Cut.adopt_rows, one per group of live patterns read."""
    calls = []
    adopt = sc.Cut.adopt_rows.__func__

    def spy(cls, sides):
        calls.append(sides.shape[0])
        return adopt(cls, sides)

    monkeypatch.setattr(sc.Cut, "adopt_rows", classmethod(spy))
    return calls


@pytest.mark.parametrize("case", sorted(LIVE_CASES))
def test_enumeration_of_live_patterns_matches_chunked_kernel(case, monkeypatch):
    make, gamma, several = LIVE_CASES[case]
    inst = make()
    groups = _count_groups(monkeypatch)
    cuts = sc.enumerate_locally_stable_cuts(inst, gamma)
    assert cuts == _chunked_enumeration(inst, gamma)
    # every high pattern of a found cut is live, and a group holds scan.rows of them
    h, rows = (inst.n - 1) // 2, oracle._Scan(inst.n).rows
    patterns = {cut.side[1:1 + h].tobytes() for cut in cuts}
    assert cuts and len(groups) >= -(-len(patterns) // rows)
    assert (len(groups) > 1) == several
    assert sum(groups) == len(cuts)


def test_enumeration_without_live_patterns_reads_no_group(monkeypatch):
    inst = _random20()
    groups = _count_groups(monkeypatch)
    for gamma in (10.0, 1e3):
        assert sc.enumerate_locally_stable_cuts(inst, gamma) == []
        assert _chunked_enumeration(inst, gamma) == []
    assert groups == []


def test_enumerated_cuts_are_read_only_and_owned_by_their_call():
    for inst, gamma in ((_complete(12), 1.0), (sc.gen_matching_epsilon(9, 0.1), 1.1)):
        first = sc.enumerate_locally_stable_cuts(inst, gamma)
        second = sc.enumerate_locally_stable_cuts(inst, gamma)
        assert first == second and len(first) > 1
        copies = [sc.Cut(cut.side.copy()) for cut in first]
        assert first == copies
        assert [hash(cut) for cut in first] == [hash(cut) for cut in copies]
        for cut in first:
            assert not cut.side.flags.writeable
            with pytest.raises(ValueError):
                cut.side[-1] = not cut.side[-1]
        assert not any(np.shares_memory(a.side, b.side) for a in first for b in second)


def _table_threshold_sets(key, upper, lower, in_s):
    """Reference threshold sets: the i with key[i] <= upper[j] where in_s[j], else
    key[i] >= lower[j], read off a full prefix table of key.size + 1 rows."""
    order = np.argsort(key)
    table = np.zeros((key.size + 1, -(-key.size // 64)), dtype=np.uint64)
    table.view(np.uint8)[np.arange(1, key.size + 1), order >> 3] = 0x80 >> (order & 7)
    np.bitwise_or.accumulate(table, axis=0, out=table)
    ordered = key[order]
    k = np.where(in_s, np.searchsorted(ordered, upper, "right"),
                 np.searchsorted(ordered, lower, "left"))
    sets = table[k]
    flip = np.where(in_s, np.uint64(0), ~np.uint64(0))
    return np.bitwise_xor(sets, flip[:, None], out=sets)


def test_threshold_sets_match_the_full_prefix_table():
    # one search against nextafter(upper, inf) and a table of the distinct
    # prefixes give the sets of the full table, with tied keys and bounds on,
    # between and beyond the keys
    rng = np.random.default_rng(8080)
    for size, rows in ((1, 1), (3, 8), (64, 5), (65, 130), (512, 256), (2048, 4096)):
        key = rng.integers(0, max(2, size // 3), size).astype(float) * 0.1
        upper = rng.choice(np.concatenate([key, key + 0.05, [-1.0, 1e9]]), rows)
        lower = rng.choice(np.concatenate([key, key - 0.05, [-1.0, 1e9]]), rows)
        in_s = rng.random(rows) < 0.5
        expected = _table_threshold_sets(key, upper, lower, in_s)
        bound = np.where(in_s, np.nextafter(upper, INF), lower)
        assert np.array_equal(oracle._threshold_sets(key, bound, in_s), expected)


def test_enumeration_keeps_cuts_inside_the_tolerance():
    # K4's balanced cuts have xi/iota = 2 at every vertex, so just above
    # gamma = 2 they pass only through the REL_TOL slack of the exact test;
    # a prefilter at the bare threshold gamma * mu / (1 + gamma) drops them
    k4 = sc.Instance(np.ones((4, 4)) - np.eye(4))
    gamma = 2.0 * (1 + 1e-10)
    cuts = sc.enumerate_locally_stable_cuts(k4, gamma)
    assert len(cuts) == 3
    assert cuts == _chunked_enumeration(k4, gamma)
    assert sc.enumerate_locally_stable_cuts(k4, 2.0 * (1 + 1e-8)) == []


def test_enumeration_at_infinite_gamma(c4):
    # gamma = inf keeps exactly the cuts whose local gamma is +inf (every
    # iota(x) at or below the zero threshold), without numpy warnings
    rng = np.random.default_rng(4242)
    bipartite = sc.gen_planted_partition(8, 0.8, 0.0, 5).instance.weights
    W = np.zeros((9, 9))
    W[:8, :8] = bipartite
    W[0, 8] = W[8, 0] = 0.25 * ZERO_FRACTION * bipartite.sum()  # either side of 8 counts
    pool = [c4, sc.Instance(np.ones((4, 4)) - np.eye(4)), sc.Instance(W),
            sc.gen_infinite_stable_not_distinguished(3, 0.2).instance]
    pool += [random_instance(rng, n) for n in (3, 5, 7)]
    pool += [sc.gen_planted_partition(n, 0.9, 0.0, n).instance for n in (6, 9)]
    counts = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for inst in pool:
            cuts = sc.enumerate_locally_stable_cuts(inst, INF)
            assert cuts == [c for c in _ref_cuts(inst.n) if sc.local_stability_gamma(inst, c) == INF]
            counts.append(len(cuts))
        # a finite gamma so large that gamma * mu overflows agrees with inf
        # on C4 and K4
        for inst in pool[:2]:
            assert (sc.enumerate_locally_stable_cuts(inst, 1e308)
                    == sc.enumerate_locally_stable_cuts(inst, INF))
    assert counts == [1, 0, 2, 1, 0, 0, 0, 1, 1]


def test_instance_stability_matches_separate_scans():
    # every scan owns its buffers: the combined report equals fresh single scans
    rng = np.random.default_rng(55)
    for inst in (random_instance(rng, 13), sc.gen_matching_epsilon(6, 0.1),
                 sc.gen_planted_partition(14, 0.9, 0.2, 3).instance):
        rep = sc.instance_stability(inst)
        cut, _, count = sc.brute_force_maxcut(inst)
        gamma, alpha, cheeger = subset_scan_minima(inst.weights, cut.delta)
        assert rep.is_unique_maxcut == (count == 1)
        assert rep.gamma == (gamma if count == 1 else 1.0)
        assert (rep.alpha, rep.cheeger) == (alpha, cheeger)
        assert rep.gamma_local == sc.local_stability_gamma(inst, cut)
        assert rep.cut == cut and rep.cut_weight == sc.cut_weight(inst, cut)
        assert sc.cheeger_constant(inst) == cheeger
