import json
import sys

import numpy as np
import pytest

import stablecut as sc
from stablecut.errors import InvalidCutError, InvalidInstanceError, ParameterError
from stablecut.instance import contract, cut_weights_for_sides, heaviest_side
from stablecut.spectral import build_spectral_bundle

from conftest import random_cut, random_instance, subset_stats


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------


def test_instance_rejects_bad_matrices():
    with pytest.raises(InvalidInstanceError):
        sc.Instance([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(InvalidInstanceError):
        sc.Instance([[0.0, -1.0], [-1.0, 0.0]])  # negative
    with pytest.raises(InvalidInstanceError, match="finite"):
        sc.Instance([[0.0, float("nan")], [float("nan"), 0.0]])  # not reported as asymmetric
    with pytest.raises(InvalidInstanceError):
        sc.Instance([[1.0, 1.0], [1.0, 0.0]])  # diagonal
    with pytest.raises(InvalidInstanceError):
        sc.Instance([[0.0]])  # too small
    with pytest.raises(InvalidInstanceError):
        # disconnected support: two components
        sc.Instance([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    with np.errstate(over="raise"):  # the check itself must not warn
        with pytest.raises(InvalidInstanceError, match="finite"):
            # every weight is finite, but the total overflows float64
            sc.Instance(1e308 * (np.ones((3, 3)) - np.eye(3)))


def test_instance_is_immutable(k3):
    with pytest.raises(AttributeError):
        k3.n = 5
    with pytest.raises(ValueError):
        k3.weights[0, 1] = 7.0


def test_cut_validation():
    with pytest.raises(InvalidCutError):
        sc.Cut([True, True, True])
    with pytest.raises(InvalidCutError):
        sc.Cut([False, False])
    cut = sc.Cut([True, False, True])
    assert np.array_equal(cut.delta, [1.0, -1.0, 1.0])
    assert cut.complement() == sc.Cut([False, True, False])
    assert cut.members() == ((0, 2), (1,))
    assert sc.same_bipartition(cut, cut.complement())
    assert not sc.same_bipartition(cut, sc.Cut([True, True, False]))


# every (instance, cut) entry point that checks the cut's size before its own work
_CUT_TAKERS = {
    "cut_stability_gamma": sc.cut_stability_gamma,
    "local_stability_gamma": sc.local_stability_gamma,
    "distinction_alpha": sc.distinction_alpha,
    "build_spectral_bundle": build_spectral_bundle,
    "cut_edge_lower_bound_check": lambda inst, cut: sc.cut_edge_lower_bound_check(inst, cut, 1.0),
}


@pytest.mark.parametrize("name", sorted(_CUT_TAKERS))
def test_cut_of_the_wrong_size_raises_invalid_cut(pair_metric, name):
    with pytest.raises(InvalidCutError, match="^cut has 3 vertices, instance has [0-9]+$"):
        _CUT_TAKERS[name](pair_metric, sc.Cut([True, False, False]))


# ---------------------------------------------------------------------------
# subset statistics
# ---------------------------------------------------------------------------


def test_subset_stats_k3(k3):
    assert subset_stats(k3, sc.Cut([True, False, False]), 1) == (1.0, 1.0, 2.0, 2.0)


def test_subset_stats_c4(c4, c4_maxcut):
    assert subset_stats(c4, c4_maxcut, 0) == (2.0, 0.0, 2.0, 2.0)
    assert subset_stats(c4, c4_maxcut, (0, 1)) == (2.0, 0.0, 2.0, 4.0)


def test_subset_identities_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(4, 9))
        inst = random_instance(rng, n)
        cut = random_cut(rng, n)
        size = int(rng.integers(1, n))
        subset = rng.permutation(n)[:size]
        xi, iota, tau, mu = subset_stats(inst, cut, subset)
        assert xi + iota == tau  # exact by construction
        assert tau <= mu + 1e-12


# ---------------------------------------------------------------------------
# cut weight, merging, perturbation
# ---------------------------------------------------------------------------


def test_cut_weight_examples(c4, k3, c4_maxcut):
    assert sc.cut_weight(c4, c4_maxcut) == 4.0
    assert sc.cut_weight(k3, sc.Cut([True, False, False])) == 2.0
    assert sc.cut_weight(k3, sc.Cut([True, True, False])) == 2.0


def test_flipping_a_subset_costs_xi_minus_iota():
    # moving A across the cut trades its cut boundary for its non-cut one
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        inst = random_instance(rng, n)
        cut = random_cut(rng, n)
        size = int(rng.integers(1, n))
        subset = rng.permutation(n)[:size]
        xi, iota, _, _ = subset_stats(inst, cut, subset)
        flipped = cut.side.copy()
        flipped[subset] = ~flipped[subset]
        if flipped.all() or not flipped.any():
            continue
        assert sc.cut_weight(inst, sc.Cut(flipped)) == pytest.approx(
            sc.cut_weight(inst, cut) - xi + iota, rel=1e-12, abs=1e-12)


def test_cut_weight_complement_invariance():
    # a cut and its complement weigh the same bytes, on float weights of every
    # generator family, where summing S's rows or S-bar's rows can differ in the last bit
    rng = np.random.default_rng(7)
    instances = [random_instance(rng, 6) for _ in range(10)]
    for s in range(10):
        instances += [sc.gen_stable_bipartite_noise(14, 2.0, s).instance,
                      sc.gen_planted_partition(12, 0.6, 0.3, s).instance,
                      sc.gen_euclidean_metric(12, 2, 2.0, s).instance,
                      sc.gen_tightness_example(2 + s % 3).instance,
                      sc.gen_matching_epsilon(6, float(rng.uniform(0.0, 1.0))),
                      sc.gen_infinite_stable_not_distinguished(4 + s % 3, 1e-3 * (1 + s)).instance]
    for inst in instances:
        for _ in range(10):
            cut = random_cut(rng, inst.n)
            assert sc.cut_weight(inst, cut).hex() == sc.cut_weight(inst, cut.complement()).hex()


def _ref_heaviest_side(inst, sides):
    """Weigh every column that is a cut with cut_weight; the first maximum wins."""
    best, best_w = -1, -np.inf
    for j in range(sides.shape[1]):
        if 0 < sides[:, j].sum() < inst.n:
            w = sc.cut_weight(inst, sc.Cut(sides[:, j]))
            if w > best_w:
                best, best_w = j, w
    return best, best_w


def _side_block(rng, n, k):
    """k valid sides, a quarter of them followed by their complement and a
    sixth by a copy of themselves."""
    cols = []
    while len(cols) < k:
        side = rng.random(n) < 0.5
        if 0 < side.sum() < n:
            cols.append(side)
            r = rng.random()
            if r < 0.25:
                cols.append(~side)
            elif r < 0.4:
                cols.append(side.copy())
    return np.array(cols[:k]).T


def _matching_block(rng, n_pairs, k):
    """k sides that each split every matched pair: all of equal exact weight."""
    flips = rng.random((k, n_pairs)) < 0.5
    sides = np.empty((2 * n_pairs, k), dtype=bool)
    sides[0::2], sides[1::2] = flips.T, ~flips.T
    return sides


def test_heaviest_side_matches_weighing_every_column():
    rng = np.random.default_rng(29)
    cases = []
    for seed in range(30):  # float weights
        n = int(rng.integers(2, 20))
        cases.append((random_instance(rng, n), _side_block(rng, n, int(rng.integers(1, 40)))))
    for seed in range(30):  # unit weights: exact ties
        n = int(rng.integers(4, 20))
        cases.append((sc.gen_planted_partition(n, 0.6, 0.3, seed).instance,
                       _side_block(rng, n, int(rng.integers(1, 40)))))
    cases.append((sc.Instance(np.ones((5, 5)) - np.eye(5)), _side_block(rng, 5, 1)))
    for n_pairs in (8, 12, 20):  # exact ties that float sums break by an ulp, either way
        for _ in range(40):
            eps = float(rng.choice([0.1, 0.3, 1 / 3, 0.7, 1e-3, rng.uniform(0.0, 1.0)]))
            cases.append((sc.gen_matching_epsilon(n_pairs, eps), _matching_block(rng, n_pairs, 64)))

    for _ in range(20):  # one-sided columns among the cuts
        n = int(rng.integers(2, 12))
        sides = _side_block(rng, n, int(rng.integers(1, 20)))
        at = rng.integers(0, sides.shape[1] + 1, size=int(rng.integers(1, 6)))
        cases.append((random_instance(rng, n), np.insert(sides, at, rng.random() < 0.5, axis=1)))

    repeats = near_ties = one_sided = 0
    for k, (inst, sides) in enumerate(cases):
        j, side, w = heaviest_side(inst, [sides])
        want_j, want_w = _ref_heaviest_side(inst, sides)
        assert j == want_j and np.float64(w).tobytes() == np.float64(want_w).tobytes(), k
        assert np.array_equal(side, sides[:, want_j]), k
        # the same pick when the columns arrive in several blocks, some of them empty
        cuts = np.sort(rng.integers(0, sides.shape[1] + 1, size=int(rng.integers(1, 5))))
        split = heaviest_side(inst, np.split(sides, cuts, axis=1))
        assert split[0] == j and split[1].tobytes() == side.tobytes(), k
        assert np.float64(split[2]).tobytes() == np.float64(w).tobytes(), k
        counts = sides.sum(axis=0)
        one_sided += ((counts == 0) | (counts == inst.n)).any()
        scores = cut_weights_for_sides(inst.weights, sides)
        near_ties += scores[want_j] < scores.max()
        repeats += len({sides[:, c].tobytes() for c in range(sides.shape[1])}) < sides.shape[1]
    # the best quadratic score is often not the heaviest cut by cut_weight
    assert near_ties >= 10 and repeats >= 40 and one_sided >= 10
    # no column is a cut
    inst = random_instance(rng, 6)
    assert heaviest_side(inst, [np.zeros((6, 3), dtype=bool), np.ones((6, 2), dtype=bool)]) is None
    assert heaviest_side(inst, []) is None


def test_contract_examples(c4, k3):
    merged, mapping = contract(k3.weights, 1, 2)
    assert merged.shape == (2, 2)
    assert merged[0, 1] == 2.0
    assert list(mapping) == [0, 1, 1]

    merged, mapping = contract(c4.weights, 0, 2)
    assert merged.shape == (3, 3)
    assert merged[0, 1] == 2.0  # merged vertex to 1
    assert merged[0, 2] == 2.0  # merged vertex to 3
    assert merged[1, 2] == 0.0
    assert list(mapping) == [0, 1, 0, 2]
    assert sc.Instance(merged).n == 3

    swapped, swapped_mapping = contract(c4.weights, 2, 0)
    assert np.array_equal(swapped, merged)
    assert np.array_equal(swapped_mapping, mapping)

    with pytest.raises(ParameterError):
        contract(k3.weights, 1, 1)
    for u, v in ((0, 3), (-1, 1), (1, -1)):
        with pytest.raises(ParameterError):
            contract(k3.weights, u, v)


def _ref_contract(weights, u, v):
    """The replaced contraction: a full copy, then two np.delete calls."""
    n = weights.shape[0]
    a, b = min(u, v), max(u, v)
    W = weights.copy()
    W[a] += W[b]
    W[:, a] += W[:, b]
    W[a, a] = 0.0
    mapping = np.arange(n)
    mapping[b:] -= 1
    mapping[b] = a
    return np.delete(np.delete(W, b, axis=0), b, axis=1), mapping


def _assert_contract_matches(W, u, v):
    got, got_mapping = contract(W, u, v)
    want, want_mapping = _ref_contract(W, u, v)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (u, v)
    assert np.array_equal(got_mapping, want_mapping)


def test_contract_matches_copy_and_delete():
    rng = np.random.default_rng(29)
    for n in range(2, 9):
        for W in (random_instance(rng, n).weights, rng.random((n, n))):  # symmetric, asymmetric
            for u in range(n):
                for v in range(n):
                    if u != v:
                        _assert_contract_matches(W, u, v)
    for W in (random_instance(rng, 200).weights, rng.random((200, 200))):
        for u, v in rng.integers(0, 200, (20, 2)).tolist():
            if u != v:
                _assert_contract_matches(W, u, v)
        for u, v in ((0, 199), (199, 0), (198, 199), (0, 1)):
            _assert_contract_matches(W, u, v)


def test_merge_preserves_lifted_cut_weights():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst = random_instance(rng, 7)
        u, v = rng.permutation(7)[:2]
        W, mapping = contract(inst.weights, int(u), int(v))
        merged = sc.Instance(W)
        cut = random_cut(rng, merged.n)
        lifted = sc.Cut(cut.side[mapping])
        assert sc.cut_weight(merged, cut) == pytest.approx(
            sc.cut_weight(inst, lifted), rel=1e-12)


def test_apply_perturbation(c4, c4_maxcut):
    # a perturbation multiplies the weights entrywise by factors >= 1; none
    # dethrones the maximum cut of a bipartite instance
    factors = np.ones((4, 4))
    factors[0, 1] = factors[1, 0] = 2.0
    factors[0, 2] = factors[2, 0] = 5.0  # (0, 2) is not an edge of C4
    pert = sc.Instance(c4.weights * factors)
    assert pert.weights[0, 1] == 2.0 and pert.weights[1, 2] == 1.0 and pert.weights[0, 2] == 0.0
    assert sc.same_bipartition(sc.brute_force_maxcut(pert)[0], c4_maxcut)


def test_perturbation_bounds_cut_weights():
    rng = np.random.default_rng(11)
    for _ in range(15):
        inst = random_instance(rng, 6)
        F = np.triu(rng.uniform(1.0, 3.0, (6, 6)), 1)
        F += F.T
        np.fill_diagonal(F, 1.0)
        pert = sc.Instance(inst.weights * F)
        gamma = F[inst.weights > 0].max()  # the largest factor on an edge
        cut = random_cut(rng, 6)
        before = sc.cut_weight(inst, cut)
        after = sc.cut_weight(pert, cut)
        assert before - 1e-12 <= after <= gamma * before + 1e-12


def test_density_coefficient(c4):
    assert sc.density_coefficient(c4) == 2.0
    for n in (3, 5, 8):
        kn = sc.Instance(np.ones((n, n)) - np.eye(n))
        assert sc.density_coefficient(kn) == pytest.approx(n / (n - 1))
    star = np.zeros((4, 4))
    star[0, 1:] = star[1:, 0] = 1.0
    assert sc.density_coefficient(sc.Instance(star)) == 4.0


def test_density_uniform_scaling_invariance():
    rng = np.random.default_rng(5)
    inst = random_instance(rng, 6)
    scaled = sc.Instance(inst.weights * 3.5)
    assert sc.density_coefficient(scaled) == pytest.approx(
        sc.density_coefficient(inst), rel=1e-12)


# ---------------------------------------------------------------------------
# metric check
# ---------------------------------------------------------------------------


def test_is_metric(c4):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(6, 3))
    D = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    assert sc.is_metric(sc.Instance(D)).ok

    check = sc.is_metric(c4)
    assert not check.ok and check.kind == "nonpositive"

    bad = sc.Instance(np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float))
    check = sc.is_metric(bad)
    assert not check.ok and check.kind == "triangle" and check.violation == (0, 1, 2)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def test_instance_json_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(9)
    W = np.triu(rng.random((7, 7)), 1)
    W[0, 1] = 0.1  # not exactly representable; must still round-trip
    W[2, 3] = 0.0  # dropped pair
    W += W.T
    inst = sc.Instance(W)
    path = tmp_path / "inst.json"
    sc.save_instance(inst, path)
    back = sc.load_instance(path)
    assert np.array_equal(back.weights, inst.weights)
    doc = json.loads(path.read_text())
    listed = {(min(i, j), max(i, j)) for i, j, _ in doc["weights"]}
    assert (2, 3) not in listed


def test_saved_files_match_the_python_encoder(tmp_path):
    # the files json.dump wrote before saves went through json.dumps's C encoder
    rng = np.random.default_rng(31)
    W7 = np.triu(rng.random((7, 7)), 1)
    W7[0, 1] = 0.1 + 0.2  # shortest repr needs 17 digits
    W7[2, 3] = 0.0  # omitted pair
    W7[4, 6] = 3.0  # integral float
    insts = [sc.Instance([[0.0, 1.0 / 3.0], [1.0 / 3.0, 0.0]]), sc.Instance(W7 + W7.T),
             sc.gen_stable_bipartite_noise(200, 8.0, 4).instance]
    for k, inst in enumerate(insts):
        W = inst.weights
        i, j = np.nonzero(np.triu(W))
        doc = {"n": inst.n, "weights": [[int(a), int(b), float(W[a, b])] for a, b in zip(i, j)]}
        assert sc.instance_to_json(inst) == doc
        expected = tmp_path / f"expected{k}.json"
        with open(expected, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        path = tmp_path / f"inst{k}.json"
        sc.save_instance(inst, path)
        assert path.read_bytes() == expected.read_bytes()

        cut = sc.Cut(np.arange(inst.n) % 3 == 1)
        with open(expected, "w") as fh:
            json.dump({"side": [int(b) for b in cut.side]}, fh)
            fh.write("\n")
        cut_path = tmp_path / f"cut{k}.json"
        sc.save_cut(cut, cut_path)
        assert cut_path.read_bytes() == expected.read_bytes()
    assert b"0.30000000000000004" in (tmp_path / "inst1.json").read_bytes()


def test_instance_json_rejects_garbage():
    with pytest.raises(InvalidInstanceError):
        sc.instance_from_json({"n": 3})
    with pytest.raises(InvalidInstanceError):
        sc.instance_from_json({"n": 3, "weights": [[0, 1, 1.0], [1, 0, 2.0], [1, 2, 1.0], [0, 2, 1.0]]})
    with pytest.raises(InvalidInstanceError):
        sc.instance_from_json({"n": 3, "weights": [[0, 3, 1.0]]})


@pytest.mark.parametrize("n, entry", [
    (3.9, [0, 1, 1.0]),   # n must be an integer, not truncated
    (3.0, [0, 1, 1.0]),
    (True, [0, 1, 1.0]),  # nor a bool
    (3, [0, 1.7, 1.0]),   # vertex indices likewise
    (3, [0, True, 1.0]),
    (3, [0, 1, "1.0"]),   # weights are JSON numbers
    (3, [0, 1, True]),
    (3, (0, 1, 1.0)),     # entries are lists
])
def test_instance_json_requires_exact_types(n, entry):
    with pytest.raises(InvalidInstanceError):
        sc.instance_from_json({"n": n, "weights": [entry, [1, 2, 1.0]]})
    with pytest.raises(InvalidInstanceError):
        sc.instance_from_json({"n": 3, "weights": 5})
    # integer weights are numbers too
    assert sc.instance_from_json({"n": 3, "weights": [[0, 1, 2], [1, 2, 1.5]]}).weights[0, 1] == 2.0


def test_instance_json_names_the_first_offending_entry():
    ok = [[0, 1, 1.0], [1, 2, 2], [2, 3, 0.5]]
    cases = [
        # (bad entries, message): the earliest entry wins over the earlier check
        ([[1, 3, float("nan")], [0, 1, 2.0], [4, 1, 1.0], "x"],
         "weight of pair (1, 3) is not a finite float"),
        ([[3, 1, 1.0], [1, 3, float("inf")], [0, 0, 1.0]], "pair (1, 3) listed more than once"),
        ([[0, 9, 1e400], [2, 2, 1.0], [0, 1, 1.0]], "bad vertex pair (0, 9)"),
        ([[1, 1, "w"], [0, 1]], "weight entry must be [int, int, number], got [1, 1, 'w']"),
        ([[1, 3], [0, 1.5, 1.0]], "weight entry must be [i, j, w], got [1, 3]"),
        ([[-(10 ** 30), 2, 1.0], [0, 1, 1.0]], f"bad vertex pair ({-(10 ** 30)}, 2)"),
        ([[0, 3, 10 ** 400]], "weight of pair (0, 3) is not a finite float"),
        # an index beyond float range beside one that makes its column float64
        ([[10 ** 400, 0, 1.0], [0, 2 ** 63, 1.0]], f"bad vertex pair ({10 ** 400}, 0)"),
    ]
    for bad, message in cases:
        with pytest.raises(InvalidInstanceError) as err:
            sc.instance_from_json({"n": 4, "weights": ok + bad})
        assert str(err.value) == message


def _reference_instance_from_json(doc):
    """The replaced per-entry reader (same contract, one entry at a time)."""
    n = doc["n"]
    W = np.zeros((n, n))
    seen = set()
    for entry in doc["weights"]:
        if type(entry) is not list or len(entry) != 3:
            raise InvalidInstanceError(f"weight entry must be [i, j, w], got {entry!r}")
        i, j, w = entry
        if type(i) is not int or type(j) is not int or type(w) not in (int, float):
            raise InvalidInstanceError(f"weight entry must be [int, int, number], got {entry!r}")
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise InvalidInstanceError(f"bad vertex pair ({i}, {j})")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise InvalidInstanceError(f"pair {key} listed more than once")
        seen.add(key)
        if not abs(w) <= sys.float_info.max:
            raise InvalidInstanceError(f"weight of pair {key} is not a finite float")
        W[i, j] = w
        W[j, i] = w
    return sc.Instance(W)


def test_instance_json_matches_the_per_entry_reader():
    """Seeded documents with up to three faults each: the same matrix bytes or
    the same error message as the per-entry reader."""
    rng = np.random.default_rng(11)
    odd = [True, None, "1", 1.5, -1, 7, 2 ** 63, -(10 ** 30), float("nan"), float("-inf"),
           [1], {}, 10 ** 400, 2 ** 63 + 12345, 1e308, -0.0, -2.0]
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(2, 7))
        pairs = [[int(a), int(b)] for a, b in zip(*np.triu_indices(n, 1))]
        rng.shuffle(pairs)
        entries = [[*(p[::-1] if rng.random() < 0.5 else p),
                    [float(rng.random()), int(rng.integers(0, 4)), 2 ** 60 + 1, 10 ** 30][i % 4]]
                   for i, p in enumerate(pairs[:int(rng.integers(0, len(pairs) + 1))])]
        for _ in range(int(rng.integers(0, 4)) if entries else 0):
            k = int(rng.integers(len(entries)))
            if type(entries[k]) is not list or len(entries[k]) != 3:
                continue
            e = list(entries[k])
            kind = int(rng.integers(5))
            if kind == 0:
                entries[k] = [e[:2], e + [1], "abc", 5, None][int(rng.integers(5))]
            elif kind == 1:
                e[int(rng.integers(3))] = odd[int(rng.integers(len(odd)))]
                entries[k] = e
            elif kind == 2:
                e[1] = e[0]
                entries[k] = e
            else:  # the same pair again, in either orientation
                entries.insert(int(rng.integers(len(entries) + 1)), e[1::-1] + [1.0] if kind == 3 else e)
        doc = {"n": n, "weights": entries}
        try:
            expected = _reference_instance_from_json(doc).weights.tobytes()
        except InvalidInstanceError as exc:
            expected = str(exc)
        try:
            got = sc.instance_from_json(doc).weights.tobytes()
        except InvalidInstanceError as exc:
            got = str(exc)
        assert got == expected, doc
        outcomes.add(expected.split(" ")[0] if isinstance(expected, str) else "ok")
    assert {"ok", "weight", "bad", "pair"} <= outcomes  # every check of the reader fires


def test_instance_json_with_too_few_entries_fails_as_the_per_entry_reader():
    # fewer than n - 1 entries are rejected before the matrix is built, with
    # the message Instance gives: a negative weight or an infinite total first
    for entries in ([], [[0, 1, 1.0]], [[0, 1, 1.0], [2, 3, 0.5]], [[0, 1, -1.0]],
                    [[2, 3, 1.0], [0, 1, -0.0]], [[0, 1, 1e308]], [[0, 1, 10 ** 30], [1, 2, 1.5]],
                    [[0, 1, -(2 ** 63)], [1, 2, 1.0]]):
        doc = {"n": 4, "weights": entries}
        with pytest.raises(InvalidInstanceError) as expected:
            _reference_instance_from_json(doc)
        with pytest.raises(InvalidInstanceError) as got:
            sc.instance_from_json(doc)
        assert str(got.value) == str(expected.value)


def test_cut_json_roundtrip(tmp_path):
    cut = sc.Cut([True, False, False, True])
    path = tmp_path / "cut.json"
    sc.save_cut(cut, path)
    assert sc.load_cut(path) == cut
    with pytest.raises(InvalidCutError):
        sc.cut_from_json({"side": [1, 1]})


@pytest.mark.parametrize("side", [[2, 0, -1], [True, False, True], [1.0, 0.0, 1.0], "101", None])
def test_cut_json_requires_zero_one_integers(side):
    with pytest.raises(InvalidCutError):
        sc.cut_from_json({"side": side})
