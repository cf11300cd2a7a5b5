import math

import numpy as np
import pytest

import stablecut as sc
from stablecut import stable
from stablecut.errors import (
    InvalidInstanceError,
    InvariantViolationError,
    ParameterError,
    PreconditionError,
    SizeLimitError,
)
from stablecut.instance import contract, support_connected
from stablecut.stable import sqrt_stability_threshold

from conftest import random_instance

INF = math.inf


# ---------------------------------------------------------------------------
# warm-up pair finder
# ---------------------------------------------------------------------------


def test_warmup_pair_traces(k22_heavy, c4):
    w = sc.find_same_side_pair_2n(k22_heavy.weights)
    assert w.pair == (1, 3)
    assert w.evidence == {"first_edge": (0, 1), "second_edge": (0, 3)}

    # both argmax ties resolve to the lexicographically smallest edge
    w = sc.find_same_side_pair_2n(c4.weights)
    assert w.pair == (1, 3)

    with pytest.raises(SizeLimitError):
        sc.find_same_side_pair_2n(sc.Instance([[0.0, 1.0], [1.0, 0.0]]).weights)


def test_warmup_pairs_are_same_side_on_stable_instances():
    for i in range(30):
        n = (6, 8)[i % 2]
        planted = sc.gen_stable_bipartite_noise(n, 2.4 * n, seed=1000 + i)
        opt, _, _ = sc.brute_force_maxcut(planted.instance)
        w = sc.find_same_side_pair_2n(planted.instance.weights)
        assert opt.side[w.pair[0]] == opt.side[w.pair[1]]
        assert sc.same_bipartition(sc.warmup_2n_solve(planted.instance), opt)


# ---------------------------------------------------------------------------
# sqrt-threshold pair finder: all three stages
# ---------------------------------------------------------------------------


def test_sqrt_pair_t1_branch(k22_heavy, c4):
    w = sc.find_same_side_pair_sqrt(k22_heavy.weights, 8.0)
    assert w.kind == "t1-incident-pair" and w.pair == (1, 3)
    w = sc.find_same_side_pair_sqrt(c4.weights, 8.0)
    assert w.kind == "t1-incident-pair" and w.pair == (1, 3)

    with pytest.raises(PreconditionError):
        sc.find_same_side_pair_sqrt(k22_heavy.weights, 5.0)  # threshold at n=4 is 7


def _t2_fixture():
    """One very heavy edge (0,1) forms the T1 matching; the edge (0,2) stays
    below both endpoint T1 thresholds but clears tau({0,1})/(gamma+1)
    because the heavy edge cancels almost all of tau({0,1}).  The rest of
    the graph is near-regular so nothing else triggers."""
    n = 20
    W = np.zeros((n, n))
    others = range(3, n)
    for y in others:
        W[0, y] = W[y, 0] = 0.05
        W[1, y] = W[y, 1] = 0.05
        W[2, y] = W[y, 2] = 7.3
        for z in others:
            if y < z:
                W[y, z] = W[z, y] = 7.0
    W[0, 1] = W[1, 0] = 100.0
    W[0, 2] = W[2, 0] = 6.5
    W[1, 2] = W[2, 1] = 0.05
    return W


def test_sqrt_pair_t2_branch():
    W = _t2_fixture()
    gamma = sqrt_stability_threshold(W.shape[0]) + 0.5
    w = sc.find_same_side_pair_sqrt(W, gamma)
    assert w.kind == "t2-pair"
    assert w.pair == (1, 2)
    assert w.evidence["t2_edge"] == (0, 2) and w.evidence["t1_edge"] == (0, 1)


def test_sqrt_pair_common_neighbor_branch():
    # Large uniform complete bipartite graph: every edge sits below the T1
    # threshold, so only the common-neighbor count can certify a pair, and
    # any pair it certifies must share a part.
    n = 50
    W = np.zeros((n, n))
    W[:25, 25:] = 1.0
    W[25:, :25] = 1.0
    inst = sc.Instance(W)
    w = sc.find_same_side_pair_sqrt(inst.weights, sqrt_stability_threshold(n) + 1e-6)
    assert w.kind == "common-neighbor-pair"
    assert (w.pair[0] < 25) == (w.pair[1] < 25)
    assert w.evidence["common_weight"] > w.evidence["limit"]


def test_sqrt_pairs_are_same_side_on_stable_instances():
    for i in range(30):
        n = (8, 10, 12)[i % 3]
        threshold = sqrt_stability_threshold(n)
        planted = sc.gen_stable_bipartite_noise(n, 1.3 * threshold, seed=2000 + i)
        gamma = sc.cut_stability_gamma(planted.instance, planted.planted_cut)
        if not gamma > threshold:
            continue
        opt, _, _ = sc.brute_force_maxcut(planted.instance)
        w = sc.find_same_side_pair_sqrt(planted.instance.weights, threshold + 1e-6)
        assert opt.side[w.pair[0]] == opt.side[w.pair[1]]


# ---------------------------------------------------------------------------
# full merging solvers
# ---------------------------------------------------------------------------


def test_sqrt_stable_solve(k22_heavy):
    opt, _, _ = sc.brute_force_maxcut(k22_heavy)
    assert sc.same_bipartition(sc.sqrt_stable_solve(k22_heavy, "auto"), opt)
    assert sc.same_bipartition(sc.sqrt_stable_solve(k22_heavy, 8.0), opt)

    planted = sc.gen_stable_bipartite_noise(12, 13.0, seed=2)
    assert sc.cut_stability_gamma(planted.instance, planted.planted_cut) \
        > sqrt_stability_threshold(12)
    opt, _, _ = sc.brute_force_maxcut(planted.instance)
    assert sc.same_bipartition(sc.sqrt_stable_solve(planted.instance, "auto"), opt)

    # bipartite instances are infinitely stable; parts are recovered at any size
    big = sc.gen_planted_partition(16, 1.0, 0.0, seed=0)
    assert sc.same_bipartition(sc.sqrt_stable_solve(big.instance, "auto"),
                               big.planted_cut)


def test_merging_preserves_stability_and_optimum():
    rng = np.random.default_rng(31)
    tested = 0
    while tested < 15:
        inst = random_instance(rng, int(rng.integers(5, 13)))
        opt, _, count = sc.brute_force_maxcut(inst)
        gamma = sc.cut_stability_gamma(inst, opt)
        if count != 1 or not gamma > 1.0:
            continue
        tested += 1
        same = np.flatnonzero(opt.side) if opt.side.sum() >= 2 else np.flatnonzero(~opt.side)
        u, v = int(same[0]), int(same[1])
        W, mapping = contract(inst.weights, u, v)
        merged = sc.Instance(W)
        m_opt, _, m_count = sc.brute_force_maxcut(merged)
        assert m_count == 1
        lifted = sc.Cut(m_opt.side[mapping])
        assert sc.same_bipartition(lifted, opt)
        assert sc.cut_stability_gamma(merged, m_opt) >= gamma * (1 - 1e-9)


# ---------------------------------------------------------------------------
# differential test: merging on one contracted matrix against the path it
# replaced, which built a new Instance every round
# ---------------------------------------------------------------------------


def _ref_lex_edge(u, v):
    return (u, v) if u < v else (v, u)


def _ref_merge_vertices(inst, u, v):
    a, b = min(u, v), max(u, v)
    W = inst.weights.copy()
    W[a, :] += W[b, :]
    W[:, a] += W[:, b]
    W[a, a] = 0.0
    keep = [i for i in range(inst.n) if i != b]
    mapping = np.array([a if x in (u, v) else (x if x < b else x - 1) for x in range(inst.n)])
    return sc.Instance(W[np.ix_(keep, keep)]), mapping


def _ref_pair_2n(inst):
    n = inst.n
    if n < 3:
        raise SizeLimitError("warm-up pair finder needs n >= 3")
    W = inst.weights
    v = 0
    u = int(np.argmax(W[v]))
    others = np.array([z for z in range(n) if z not in (v, u)])
    candidates = [(_ref_lex_edge(v, int(z)), float(W[v, z])) for z in others]
    candidates += [(_ref_lex_edge(u, int(z)), float(W[u, z])) for z in others]
    best_w = max(w for _, w in candidates)
    edge = min(e for e, w in candidates if w == best_w)
    if v in edge:
        z = edge[1] if edge[0] == v else edge[0]
        pair = _ref_lex_edge(u, z)
    else:
        z = edge[1] if edge[0] == u else edge[0]
        pair = _ref_lex_edge(v, z)
    return sc.MergeWitness(kind="heavy-incident-pair", pair=pair,
                           evidence={"first_edge": _ref_lex_edge(v, u), "second_edge": edge})


def _ref_pair_sqrt(inst, gamma):
    n = inst.n
    threshold = sqrt_stability_threshold(n)
    if not gamma > threshold:
        raise PreconditionError(
            f"gamma={gamma:g} must exceed sqrt(8n+4)+1 = {threshold:g} at n={n}")
    W = inst.weights
    mu = W.sum(axis=1)
    heavy = W > mu[:, None] / (gamma + 1.0)
    t1_edges = sorted({_ref_lex_edge(int(i), int(j)) for i, j in np.argwhere(heavy)})
    owner = {}
    for e in t1_edges:
        for endpoint in e:
            if endpoint in owner:
                other = owner[endpoint]
                a = e[0] if e[1] == endpoint else e[1]
                b = other[0] if other[1] == endpoint else other[1]
                return sc.MergeWitness(kind="t1-incident-pair", pair=_ref_lex_edge(a, b),
                                       evidence={"edges": [other, e], "shared": endpoint})
        owner[e[0]] = e
        owner[e[1]] = e
    partner = {}
    for a, b in t1_edges:
        partner[a] = b
        partner[b] = a
    t1_set = set(t1_edges)
    for u in range(n):
        z = partner.get(u)
        if z is None:
            continue
        tau_uz = mu[u] + mu[z] - 2.0 * W[u, z]
        for v in range(n):
            if v == u or _ref_lex_edge(u, v) in t1_set:
                continue
            if W[u, v] > tau_uz / (gamma + 1.0):
                return sc.MergeWitness(kind="t2-pair", pair=_ref_lex_edge(v, z),
                                       evidence={"t2_edge": _ref_lex_edge(u, v),
                                                 "t1_edge": _ref_lex_edge(u, z),
                                                 "tau_pair": float(tau_uz)})
    W_t = W.copy()
    for a, b in t1_edges:
        W_t[a, b] = W_t[b, a] = 0.0
    w_hat = np.array([mu[v] + mu[partner[v]] - 2.0 * W[v, partner[v]]
                      if v in partner else mu[v] for v in range(n)])
    common = W_t @ W_t
    limits = 2.0 / (gamma + 1.0) ** 2 * np.outer(w_hat, w_hat)
    hits = np.triu(common > limits, k=1)
    if hits.any():
        u, v = map(int, np.argwhere(hits)[0])
        return sc.MergeWitness(kind="common-neighbor-pair", pair=(u, v),
                               evidence={"common_weight": float(common[u, v]),
                                         "limit": float(limits[u, v])})
    raise InvariantViolationError(
        "no same-side pair found; the input cannot be gamma-stable at this gamma")


def _ref_merge_down(inst, pick, seen):
    if inst.n == 2:
        return sc.Cut([True, False])
    groups = [[i] for i in range(inst.n)]
    cur = inst
    while cur.n > 2:
        witness = pick(cur)
        seen.append(witness)
        cur, mapping = _ref_merge_vertices(cur, *witness.pair)
        regrouped = [[] for _ in range(cur.n)]
        for old, members in enumerate(groups):
            regrouped[mapping[old]].extend(members)
        groups = regrouped
    side = np.zeros(inst.n, dtype=bool)
    side[groups[0]] = True
    return sc.Cut(side)


# mode -> (solve, the reference pair finder for a solve of inst at round cur)
MERGE_MODES = {
    "warmup-2n": (sc.warmup_2n_solve, lambda inst, cur: _ref_pair_2n(cur)),
    "sqrt-auto": (lambda inst: sc.sqrt_stable_solve(inst, "auto"),
                  lambda inst, cur: _ref_pair_sqrt(cur, sqrt_stability_threshold(cur.n) + 1e-6)),
    "sqrt-1.5x": (lambda inst: sc.sqrt_stable_solve(inst, 1.5 * sqrt_stability_threshold(inst.n)),
                  lambda inst, cur: _ref_pair_sqrt(cur, 1.5 * sqrt_stability_threshold(inst.n))),
    # gamma not above the threshold: the first round raises PreconditionError
    "sqrt-1x": (lambda inst: sc.sqrt_stable_solve(inst, sqrt_stability_threshold(inst.n)),
                lambda inst, cur: _ref_pair_sqrt(cur, sqrt_stability_threshold(inst.n))),
}


def _outcome(run):
    """The final side vector, or the type and message of the exception raised."""
    try:
        return run().side.tolist()
    except Exception as exc:
        return type(exc), str(exc)


def _merge_pool():
    pool = [("k2", sc.Instance([[0.0, 1.0], [1.0, 0.0]]))]
    for i in range(24):  # criterion-6 style
        n = (8, 10, 12)[i % 3]
        pool.append((f"sqrt{n}-{i}", sc.gen_stable_bipartite_noise(
            n, 1.3 * sqrt_stability_threshold(n), 7000 + i).instance))
        pool.append((f"warm{n}-{i}", sc.gen_stable_bipartite_noise(n, 2.4 * n, 8000 + i).instance))
    for n, seed in ((64, 0), (64, 1), (200, 2)):  # solve-poly targets
        pool.append((f"bn{n}a-{seed}", sc.gen_stable_bipartite_noise(
            n, 4.0 * sqrt_stability_threshold(n), seed).instance))
        pool.append((f"bn{n}b-{seed}", sc.gen_stable_bipartite_noise(n, 6.0 * n, seed).instance))
    rng = np.random.default_rng(61)
    while len(pool) < 90:  # integer weights: exact ties everywhere
        n = int(rng.integers(3, 15))
        W = np.triu(rng.integers(0, 3, (n, n)), 1).astype(float)
        try:
            pool.append((f"int{n}-{len(pool)}", sc.Instance(W + W.T)))
        except InvalidInstanceError:
            continue
    for n in (6, 10, 20, 50):  # complete bipartite: the common-neighbor stage
        W = np.zeros((n, n))
        W[: n // 2, n // 2:] = 1.0
        pool.append((f"k{n // 2},{n // 2}", sc.Instance(W + W.T)))
    t2 = _t2_fixture()
    t2_twice = t2.copy()
    t2_twice[0, 3] = t2_twice[3, 0] = 6.5  # a second T2 edge at vertex 0
    for k in range(20):
        perm = rng.permutation(t2.shape[0])
        pool.append((f"t2-perm{k}", sc.Instance(t2[np.ix_(perm, perm)])))
        pool.append((f"t2-twice-perm{k}", sc.Instance(t2_twice[np.ix_(perm, perm)])))
    # outside the sqrt precondition: the solve returns a suboptimal cut
    pool.append(("pp12", sc.gen_planted_partition(12, 0.6, 0.4, 3).instance))
    return pool


def test_merge_down_matches_instance_per_round_path(monkeypatch):
    seen = []
    for finder in ("find_same_side_pair_2n", "find_same_side_pair_sqrt"):
        real = getattr(stable, finder)
        monkeypatch.setattr(stable, finder,
                            lambda *args, real=real: seen.append(real(*args)) or seen[-1])
    pool = _merge_pool()
    kinds = set()
    for mode, (solve, ref_pick) in MERGE_MODES.items():
        for name, inst in pool:
            seen.clear()
            ref_seen = []
            got = _outcome(lambda: solve(inst))
            want = _outcome(lambda: _ref_merge_down(inst, lambda cur: ref_pick(inst, cur), ref_seen))
            assert got == want, (mode, name)
            assert [repr(w) for w in seen] == [repr(w) for w in ref_seen], (mode, name)
            kinds.update(w.kind for w in seen)
    assert kinds == {"heavy-incident-pair", "t1-incident-pair", "t2-pair", "common-neighbor-pair"}


# ---------------------------------------------------------------------------
# spanning-tree solver
# ---------------------------------------------------------------------------


def test_spanning_tree_bipartite_always_exact(c4):
    for seed in range(20):
        cut = sc.spanning_tree_solve(c4, seed=seed, repetitions=1)
        assert sc.cut_weight(c4, cut) == 4.0


def test_spanning_tree_k3(k3):
    cut = sc.spanning_tree_solve(k3, seed=1, repetitions=10)
    assert sc.cut_weight(k3, cut) == 2.0


def test_spanning_tree_bound_values():
    assert sc.spanning_tree_success_bound(9.0, 10) == pytest.approx(0.9 ** 9)
    assert sc.spanning_tree_success_bound(INF, 7) == 1.0
    assert sc.spanning_tree_success_bound(1.0, 2) == 0.5
    with pytest.raises(ParameterError):
        sc.spanning_tree_success_bound(0.5, 4)
    with pytest.raises(ParameterError):
        sc.spanning_tree_solve(sc.Instance([[0, 1.0], [1.0, 0]]), seed=0, repetitions=0)


def test_spanning_tree_repetition_cap():
    assert stable.default_tree_repetitions(9.0, 10) == math.ceil(3.0 / 0.9 ** 9)
    for gamma, n in ((1.01, 64), (1.0, 1100)):  # 2e19 repetitions; a bound that underflows to 0
        with pytest.raises(ParameterError, match="above the cap"):
            stable.default_tree_repetitions(gamma, n)
    with pytest.raises(ParameterError, match="exceeds the cap"):
        sc.spanning_tree_solve(sc.Instance([[0, 1.0], [1.0, 0]]), seed=0,
                               repetitions=stable.MAX_TREE_REPETITIONS + 1)


def test_spanning_tree_determinism_and_rate():
    planted = sc.gen_stable_bipartite_noise(12, 20.0, seed=7)
    inst = planted.instance
    a = sc.spanning_tree_solve(inst, seed=5, repetitions=4)
    b = sc.spanning_tree_solve(inst, seed=5, repetitions=4)
    assert a == b

    opt, _, _ = sc.brute_force_maxcut(inst)
    gamma = sc.cut_stability_gamma(inst, opt)
    bound = sc.spanning_tree_success_bound(gamma, 12)
    trials = 500
    hits = sum(sc.same_bipartition(sc.spanning_tree_solve(inst, seed=s, repetitions=1), opt)
               for s in range(trials))
    rate = hits / trials
    assert rate >= bound - 3 * math.sqrt(bound * (1 - bound) / trials)


def _reference_colors(W, pick):
    """The replaced one-tree-at-a-time loop.  ``pick(flat)`` returns the index
    of the next edge in the row-major flattened |inside| x |outside| boundary."""
    n = W.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    color = np.zeros(n, dtype=bool)
    in_tree[0] = color[0] = True
    for _ in range(n - 1):
        inside = np.flatnonzero(in_tree)
        outside = np.flatnonzero(~in_tree)
        boundary = W[np.ix_(inside, outside)]
        ti, oi = np.unravel_index(pick(boundary.ravel()), boundary.shape)
        t, o = int(inside[ti]), int(outside[oi])
        in_tree[o] = True
        color[o] = not color[t]
    return color


def _reference_spanning_tree_solve(inst, seed, repetitions):
    best, best_w = None, -INF
    for ss in np.random.SeedSequence(seed).spawn(repetitions):
        rng = np.random.default_rng(ss)
        cut = sc.Cut(_reference_colors(
            inst.weights, lambda flat: rng.choice(flat.size, p=flat / flat.sum())))
        w = sc.cut_weight(inst, cut)
        if w > best_w:
            best, best_w = cut, w
    return best


def _tree_pool():
    """Seeded instances at n = 2..30; planted partitions with q = 0, tightness
    and matching-eps instances carry zero-weight edges."""
    for n in (2, 3):
        yield sc.Instance(np.ones((n, n)) - np.eye(n))
    for n in range(4, 31):
        yield sc.gen_planted_partition(n, 1.0, 0.0, seed=n).instance
        if n % 2:
            yield sc.gen_planted_partition(n, 0.6, 0.3, seed=n).instance
        else:
            yield (sc.gen_tightness_example(n // 2).instance, sc.gen_matching_epsilon(n // 2, 0.3),
                   sc.gen_stable_bipartite_noise(n, 3.0, seed=n).instance)[n // 2 % 3]


def test_spanning_tree_matches_the_one_tree_loop():
    runs = 0
    for idx, inst in enumerate(_tree_pool()):
        for reps in (1, 3, 16):
            seed = 7 * idx + reps
            assert (sc.spanning_tree_solve(inst, seed, reps)
                    == _reference_spanning_tree_solve(inst, seed, reps)), (inst.n, reps)
            runs += 1
    # a full block and a partial second one; the n=64 spanning-tree solve of solve-poly seed 1
    inst = sc.gen_matching_epsilon(3, 0.3)
    assert (sc.spanning_tree_solve(inst, 4, stable.TREE_BLOCK + 3)
            == _reference_spanning_tree_solve(inst, 4, stable.TREE_BLOCK + 3))
    inst = sc.gen_stable_bipartite_noise(64, 384.0, seed=962964187).instance
    assert (sc.spanning_tree_solve(inst, 188845136, 5)
            == _reference_spanning_tree_solve(inst, 188845136, 5))
    assert runs == 3 * 56


def test_two_level_draw_breaks_ties_like_choice():
    """Uniforms on a quarter grid land exactly on cumulative boundaries of
    small integer weights, where side="right" decides the pick."""
    def choice_search(us):
        draws = iter(us)

        def pick(flat):  # Generator.choice(p=flat/total)'s search, exact on these weights
            return int(np.searchsorted(np.cumsum(flat), next(draws) * flat.sum(), side="right"))
        return pick

    rng = np.random.default_rng(3)
    matrices = [np.ones((3, 3)) - np.eye(3), np.ones((4, 4)) - np.eye(4)]
    while len(matrices) < 12:
        n = int(rng.integers(4, 8))
        W = np.triu(rng.integers(0, 3, size=(n, n)), 1).astype(float)
        W += W.T
        if support_connected(W):
            matrices.append(W)
    for W in matrices:
        n = W.shape[0]
        U = rng.integers(0, 4, size=(n - 1, 40)) / 4.0
        colors = stable._grow_trees(W, U)
        for r in range(U.shape[1]):
            assert np.array_equal(colors[r], _reference_colors(W, choice_search(U[:, r])))
