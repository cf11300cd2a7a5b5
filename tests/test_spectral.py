import math

import numpy as np
import pytest

import stablecut as sc
from stablecut import spectral
from stablecut.acceptance import DEFAULT_SEED, gw_pool
from stablecut.errors import ParameterError, PreconditionError, SolverFailure
from stablecut.instance import REL_TOL
from stablecut.spectral import eig_zero_tol, spectral_threshold, weight_scale

from conftest import coordinate_ratio, glev_scaling, random_cut, random_instance

INF = math.inf


# ---------------------------------------------------------------------------
# spectral bundle and PSD certificate
# ---------------------------------------------------------------------------


def test_bundle_c4(c4, c4_maxcut):
    b = sc.build_spectral_bundle(c4, c4_maxcut)
    assert np.array_equal(b.cut_part, c4.weights)  # every edge is cut
    assert np.array_equal(b.shift, [2.0, 2.0, 2.0, 2.0])
    assert np.abs(b.eigenvalues - [0.0, 2.0, 2.0, 4.0]).max() <= 1e-8
    assert sc.psd_rank_certificate(b) == "certified"


def test_bundle_k3(k3):
    b = sc.build_spectral_bundle(k3, sc.Cut([True, False, False]))
    assert np.array_equal(b.shift, [2.0, 0.0, 0.0])
    assert b.eigenvalues[0] < -1e-6
    assert sc.psd_rank_certificate(b) == "not-psd"


def test_certificate_rejects_non_maximal_cut(c4):
    b = sc.build_spectral_bundle(c4, sc.Cut([True, True, False, False]))
    assert sc.psd_rank_certificate(b) == "not-psd"


def test_certificate_rank_deficient():
    # complete graph on 4 vertices at a maximum cut: W + D' has a 3-dim kernel
    k4 = sc.Instance(np.ones((4, 4)) - np.eye(4))
    b = sc.build_spectral_bundle(k4, sc.Cut([True, True, False, False]))
    assert np.abs(b.eigenvalues - [0.0, 0.0, 0.0, 4.0]).max() <= 1e-8
    assert sc.psd_rank_certificate(b) == "rank-deficient"


def test_bundle_decomposition_identities():
    rng = np.random.default_rng(5)
    for _ in range(10):
        inst = random_instance(rng, 7)
        cut = random_cut(rng, 7)
        b = sc.build_spectral_bundle(inst, cut)
        W, delta = inst.weights, cut.delta
        separated = np.not_equal.outer(cut.side, cut.side)
        assert np.array_equal(b.cut_part, np.where(separated, W, 0.0))
        assert np.array_equal(b.shifted, W + np.diag(b.shift))
        assert b.tol == eig_zero_tol(b.shifted)
        # D' = D^cut - D^uncut is the canonical diagonal -delta o (W delta)
        assert np.allclose(b.shift, -delta * (W @ delta))
        # the cut sign vector is annihilated exactly (row identity)
        scale = 1.0 + np.abs(b.shifted).max()
        assert np.abs(b.shifted @ b.delta).max() <= 1e-12 * scale


def _reference_bundle(inst, cut):
    """(cut_part, shift, shifted, tol) by the formulas the bundle was first
    built with: a float outer product of delta, and W plus a diagonal matrix."""
    W, delta = inst.weights, cut.delta
    cut_part = W * (delta[:, None] * delta[None, :] < 0)
    shift = cut_part.sum(axis=1) - (W - cut_part).sum(axis=1)
    shifted = W + np.diag(shift)
    return cut_part, shift, shifted, eig_zero_tol(shifted)


def test_bundle_build_matches_the_reference_formulas(c4, k3, tmp_path):
    path = tmp_path / "signed_zero.json"
    path.write_text('{"n": 4, "weights": [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 1.5], [0, 2, -0.0], '
                    '[0, 3, 0.5]]}\n')
    signed = sc.load_instance(path)
    assert np.signbit(signed.weights[0, 2])  # the loader keeps the sign of -0.0
    cases = [(signed, sc.Cut(side)) for side in ([True, False, True, False],
                                                  [True, True, False, False])]
    for inst, cut in cases + _certificate_cases(c4, k3):
        b = sc.build_spectral_bundle(inst, cut)
        for got, want in zip((b.cut_part, b.shift, b.shifted, b.tol), _reference_bundle(inst, cut)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (inst.n, cut.side)
    for _, cut in cases:
        assert not np.signbit(sc.build_spectral_bundle(signed, cut).shifted[0, 2])


def _reference_certificate(bundle):
    """The eigendecomposition rule that ``psd_rank_certificate`` replaced."""
    tol = bundle.tol
    ev, vectors = np.linalg.eigh(bundle.shifted)
    if ev[0] < -tol:
        return "not-psd"
    if ev.shape[0] < 2 or ev[1] <= tol or abs(ev[0]) > tol:
        return "rank-deficient"
    aligned = vectors[:, 0] * bundle.delta
    if not ((aligned > 1e-8).all() or (aligned < -1e-8).all()):
        return "rank-deficient"
    return "certified"


def _reference_gram_is_psd(P):
    """The eigenvalue check that ``gw_dual_extract`` ran on its input."""
    return not float(np.linalg.eigvalsh(P)[0]) < -eig_zero_tol(P)


def _reference_is_bipolar(bundle):
    """The eigenvalue precondition that ``strongly_bipolar_perturb`` ran."""
    return not np.linalg.eigh(bundle.shifted)[0][0] < -bundle.tol


def _certificate_cases(c4, k3):
    """(instance, cut) pairs: every generator family, integer and float weights, n = 2 to 200."""
    rng = np.random.default_rng(DEFAULT_SEED)
    k4 = sc.Instance(np.ones((4, 4)) - np.eye(4))
    cases = [(c4, sc.Cut([True, False, True, False])), (c4, sc.Cut([True, True, False, False])),
             (k3, sc.Cut([True, False, False])), (k4, sc.Cut([True, True, False, False]))]
    # criterion 9's families at n <= 16: the optimum and two random cuts of each
    for inst in gw_pool(DEFAULT_SEED, 36):
        cases.append((inst, sc.brute_force_maxcut(inst)[0]))
        cases += [(inst, random_cut(rng, inst.n)) for _ in range(2)]
    # the planted cuts up to n = 200, and a random cut of each instance
    for n in (24, 64, 200):
        planted = [sc.gen_stable_bipartite_noise(n, 20.0, n),
                   sc.gen_planted_partition(n, 0.9, 0.1, n),
                   sc.gen_euclidean_metric(n, 2, 10.0, n),
                   sc.gen_tightness_example(n // 4),
                   sc.gen_infinite_stable_not_distinguished(n // 2, 1e-3)]
        pairs = [(p.instance, p.planted_cut) for p in planted]
        matching = sc.gen_matching_epsilon(n // 2, 1e-3)
        pairs.append((matching, sc.Cut(np.arange(n) % 2 == 0)))  # separates every matched pair
        for inst, cut in pairs:
            cases += [(inst, cut), (inst, random_cut(rng, n))]
    # random integer and float weights: the optimum up to n = 13, random cuts above
    for n in (2, 3, 5, 8, 13, 40, 120, 200):
        for W in (rng.integers(1, 5, (n, n)).astype(float), rng.random((n, n))):
            W = np.triu(W, 1)
            inst = sc.Instance(W + W.T)
            cut = sc.brute_force_maxcut(inst)[0] if n <= 13 else random_cut(rng, n)
            cases += [(inst, cut), (inst, random_cut(rng, n))]
    return cases


def test_cholesky_decisions_match_the_eigenvalue_rules(c4, k3):
    verdicts = []
    for inst, cut in _certificate_cases(c4, k3):
        bundle = sc.build_spectral_bundle(inst, cut)
        verdict = sc.psd_rank_certificate(bundle)
        assert verdict == _reference_certificate(bundle), (inst.n, cut.side)
        verdicts.append(verdict)
        if _reference_is_bipolar(bundle):
            sc.strongly_bipolar_perturb(inst, cut, 0.1)
        else:
            with pytest.raises(PreconditionError, match="^cut is not bipolar for this instance$"):
                sc.strongly_bipolar_perturb(inst, cut, 0.1)
    assert set(verdicts) == {"certified", "rank-deficient", "not-psd"}

    rng = np.random.default_rng(DEFAULT_SEED)
    grams = [(inst, sc.gw_primal_solve(inst, seed=1).gram) for inst in gw_pool(DEFAULT_SEED, 12)]
    for n in (2, 3, 5, 16, 64, 200):
        inst = sc.Instance(np.ones((n, n)) - np.eye(n))
        delta = random_cut(rng, n).delta
        V = rng.normal(size=(n, 3))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        A = rng.uniform(-1.0, 1.0, (n, n))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 1.0)
        grams += [(inst, np.outer(delta, delta)), (inst, V @ V.T), (inst, A),
                  (inst, 0.999 * np.outer(delta, delta) + 0.001 * A)]
    outcomes = set()
    for inst, P in grams:
        psd = _reference_gram_is_psd(P)
        outcomes.add(psd)
        if psd:
            sc.gw_dual_extract(inst, P)
        else:
            with pytest.raises(ParameterError, match="^gram matrix must be PSD$"):
                sc.gw_dual_extract(inst, P)
    assert outcomes == {True, False}


def test_certificate_path_decomposes_nothing(monkeypatch, c4, k3):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate path ran an eigendecomposition")

    cases = _certificate_cases(c4, k3)[::7]
    with monkeypatch.context() as m:
        m.setattr(spectral.np.linalg, "eigh", refuse)
        m.setattr(spectral.np.linalg, "eigvalsh", refuse)
        bundles = []
        for inst, cut in cases:
            bundle = sc.build_spectral_bundle(inst, cut)
            if sc.psd_rank_certificate(bundle) == "not-psd":
                with pytest.raises(PreconditionError):
                    sc.strongly_bipolar_perturb(inst, cut, 0.1)
            else:
                sc.strongly_bipolar_perturb(inst, cut, 0.1)
            bundles.append(bundle)
    for bundle in bundles:
        assert bundle.eigenvalues.tobytes() == np.linalg.eigh(bundle.shifted)[0].tobytes()
        assert bundle.eigenvalues is bundle.eigenvalues  # decomposed once


def test_distinguished_condition(c4, k3, c4_maxcut):
    rep = sc.distinguished_condition(c4, c4_maxcut)
    assert rep.cut_cheeger == 0.5
    assert rep.cheeger_threshold == pytest.approx(14.928203230275509, abs=1e-10)
    assert rep.gamma_local == INF and rep.meets_cheeger and rep.meets_alpha

    rep = sc.distinguished_condition(k3, sc.Cut([True, False, False]))
    assert rep.gamma_local == 1.0
    assert not rep.meets_cheeger and not rep.meets_alpha


def test_spectral_threshold_without_cancellation():
    # 2 / (1 - sqrt(1 - x^2)) with 1 - sqrt(...) evaluated directly is 0/0
    # below x ~ 1e-8; the optimum of 8-pair matching-eps has alpha ~ 1.6e-16
    assert spectral_threshold(0.5) == 14.928203230275509
    assert spectral_threshold(1.0) == spectral_threshold(2.0) == 2.0
    tiny = 1.6143722007995697e-16
    assert spectral_threshold(tiny) == pytest.approx(4.0 / tiny**2)
    assert spectral_threshold(0.0) == spectral_threshold(-0.1) == spectral_threshold(1e-170) == INF
    inst = sc.gen_matching_epsilon(8, 0.12506055190198623)
    opt, _, count = sc.brute_force_maxcut(inst)
    rep = sc.distinguished_condition(inst, opt)
    assert count == 128 and abs(rep.alpha) < 1e-12 and not rep.meets_alpha


# ---------------------------------------------------------------------------
# least-eigenvector cuts and the coordinate-ratio condition
# ---------------------------------------------------------------------------


def test_glev_cut(c4, c4_maxcut):
    assert sc.same_bipartition(sc.glev_cut(c4, np.full(4, 2.0)), c4_maxcut)
    # strictly positive shift: same eigenvectors, same cut
    assert sc.same_bipartition(sc.glev_cut(c4, np.full(4, 2.0 + 1e-3)), c4_maxcut)

    k4 = sc.Instance(np.ones((4, 4)) - np.eye(4))
    assert sc.glev_cut(k4, np.ones(4)) is None  # degenerate least eigenvalue

    with pytest.raises(PreconditionError):
        sc.glev_cut(c4, np.zeros(4))  # W alone is indefinite


def test_glev_cut_rejects_a_nan_or_infinite_shift(c4):
    for bad in (math.nan, math.inf, -math.inf):
        shift = np.full(4, 2.0)
        shift[1] = bad
        with pytest.raises(ParameterError, match="^shift must be finite$"):
            sc.glev_cut(c4, shift)


def test_glev_stability_condition(c4_maxcut):
    # the condition reads gamma >= max |u_i u_j| / min |u_i u_j|
    assert coordinate_ratio(c4_maxcut.delta) == 1.0
    assert coordinate_ratio([1.0, 2.0, 1.0, 2.0]) == 4.0
    assert coordinate_ratio([1.0, -2.0, 0.5, 2.0]) == 8.0


def test_glev_scaling_perturbation(c4, c4_maxcut):
    same = glev_scaling(c4, c4_maxcut.delta)
    assert np.array_equal(same.weights, c4.weights)
    scaled = glev_scaling(c4, 2.0 * c4_maxcut.delta)
    assert np.array_equal(scaled.weights, 4.0 * c4.weights)
    stretched = glev_scaling(c4, [1.0, 2.0, 1.0, 2.0])
    assert np.array_equal(np.unique(stretched.weights), [0.0, 2.0])


# ---------------------------------------------------------------------------
# relaxation: primal, dual, rounding
# ---------------------------------------------------------------------------


def test_primal_worked_examples(c4, k3):
    sol = sc.gw_primal_solve(c4, seed=0)
    assert sol.converged and sol.primal_value == pytest.approx(-8.0, abs=1e-6)

    sol = sc.gw_primal_solve(k3, seed=0)
    assert sol.primal_value == pytest.approx(-3.0, abs=1e-3)

    edge = sc.Instance([[0.0, 1.0], [1.0, 0.0]])
    sol = sc.gw_primal_solve(edge, seed=0)
    assert sol.primal_value == pytest.approx(-2.0, abs=1e-9)
    assert sol.gram[0, 1] == pytest.approx(-1.0, abs=1e-6)


def test_primal_rejects_rows_whose_update_overflows():
    # finite total, but ||w @ V||^2 of a row would overflow to inf
    huge = sc.Instance(np.full((3, 3), 2.9e307) - np.diag([2.9e307] * 3))
    with pytest.raises(ParameterError, match="row sum"):
        sc.gw_primal_solve(huge, seed=0)
    # at the limit the row updates stay finite
    edge = sc.Instance([[0.0, spectral.ROW_SUM_LIMIT], [spectral.ROW_SUM_LIMIT, 0.0]])
    sol = sc.gw_primal_solve(edge, seed=0)
    assert sol.converged and sol.gram[0, 1] == pytest.approx(-1.0, abs=1e-6)


def test_primal_deterministic_per_seed(c4):
    a = sc.gw_primal_solve(c4, seed=3)
    b = sc.gw_primal_solve(c4, seed=3)
    assert np.array_equal(a.vectors, b.vectors)


def _reference_primal(inst, max_sweeps=100_000, seed=0):
    """The row-by-row mixing loop, with no sweep limit and no finish: an einsum
    objective, np.linalg.norm and V[i] = -g / norm.  Kept to pin the fast loop's
    iterates and, run to convergence, to judge the finish's values."""
    n = inst.n
    W = inst.weights
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(n, n))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    floor = min(1.0, float(W.sum()))
    stall = 1e-13 * float(W.max())
    prev = float(np.einsum("ij,jk,ik->", W, V, V))
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        for i in range(n):
            g = W[i] @ V
            norm = np.linalg.norm(g)
            if norm > stall:
                V[i] = -g / norm
        value = float(np.einsum("ij,jk,ik->", W, V, V))
        if abs(value - prev) <= 1e-10 * (floor + abs(value)):
            converged = True
            prev = value
            break
        prev = value
    return V, V @ V.T, prev, converged, sweeps


def _certified_gap(inst, gram):
    """How far the dual extracted from ``gram``, shifted into feasibility, lies below
    the primal value: n * max(0, -psd_residual), the extracted gap being zero."""
    return inst.n * max(0.0, -sc.gw_dual_extract(inst, gram).psd_residual)


def _assert_same_iterates(sol, inst, kw):
    V, gram, value, converged, sweeps = _reference_primal(inst, **kw)
    assert sol.vectors.tobytes() == V.tobytes()
    assert sol.gram.tobytes() == gram.tobytes()
    assert (sol.sweeps, sol.converged, sol.finish_iterations) == (sweeps, converged, 0)
    assert abs(sol.primal_value - value) <= 1e-13 * max(1.0, abs(value))


def test_primal_iterates_match_reference_loop():
    runs = [(inst, {"seed": 2 * pool_seed + s})
            for pool_seed in (0, 7) for inst in gw_pool(pool_seed, 60)
            for s in (0, 1)]
    runs += [(sc.gen_infinite_stable_not_distinguished(k, 1e-3).instance, {"seed": k})
             for k in (4, 6, 8)]
    noise = sc.gen_stable_bipartite_noise(64, 8.0, 3).instance
    runs += [(noise, {"seed": 1}), (noise, {"seed": 4, "max_sweeps": 3})]
    # solve-poly's bn200a shape: four times the sqrt-stable threshold at n=200
    runs += [(sc.gen_stable_bipartite_noise(200, 4.0 * (math.sqrt(8 * 200 + 4) + 1.0), 5).instance,
              {"seed": 6})]
    runs += [(sc.gen_infinite_stable_not_distinguished(6, 1e-3).instance, {"seed": 5})]

    sols = []
    finished = 0
    seen = set()
    for inst, kw in runs:
        key = (inst.weights.tobytes(), tuple(sorted(kw.items())))
        if key in seen:  # gw_pool repeats its deterministic families
            continue
        seen.add(key)
        sol = sc.gw_primal_solve(inst, **kw)
        sols.append(sol)
        if sol.finish_iterations == 0:  # mixing converged, or max_sweeps cut it short
            _assert_same_iterates(sol, inst, kw)
            continue
        # finished: the mixing phase is the reference's first MIXING_SWEEPS sweeps ...
        finished += 1
        assert sol.sweeps == spectral.MIXING_SWEEPS and sol.converged
        truncated = {**kw, "max_sweeps": spectral.MIXING_SWEEPS}
        mixing = sc.gw_primal_solve(inst, **truncated)
        _assert_same_iterates(mixing, inst, truncated)
        assert not mixing.converged
        # ... and the finish reaches the value the reference converges to, certified
        _, _, value, converged, sweeps = _reference_primal(inst, **kw)
        assert converged and sweeps > spectral.MIXING_SWEEPS
        scale = weight_scale(inst.weights)
        assert abs(sol.primal_value - value) <= 1e-7 * scale
        assert _certified_gap(inst, sol.gram) <= 1e-8 * scale
        assert sol.vectors.shape == (inst.n, inst.n)
    # the pool reaches both ends: finished solves and a truncated one
    assert finished >= 20
    truncated = sols[-3]
    assert truncated.sweeps == 3 and not truncated.converged


# name -> weights of the instances solved at every scale below
SCALED = {
    "snd6": lambda: sc.gen_infinite_stable_not_distinguished(6, 1e-3).instance.weights,
    "pp16": lambda: sc.gen_planted_partition(16, 0.9, 0.2, 3).instance.weights,
    "eu12": lambda: sc.gen_euclidean_metric(12, 2, 2.0, 5).instance.weights,
}


@pytest.mark.parametrize("name", sorted(SCALED))
def test_primal_is_scale_invariant(name):
    # both stop rules scale with the weights: an absolute floor of 1 once
    # stopped tiny weights after one sweep, converged=True, far above the optimum
    W = SCALED[name]()
    base = sc.gw_primal_solve(sc.Instance(W), seed=1)
    assert base.converged
    for c in (1e-100, 1e-12, 1e-6, 1.0, 1e6, 1e100):
        sol = sc.gw_primal_solve(sc.Instance(c * W), seed=1)
        assert sol.converged
        assert abs(sol.primal_value - c * base.primal_value) <= 1e-9 * abs(c * base.primal_value)


def test_finish_step_length():
    eye = np.eye(3)
    assert spectral._step_length(eye, -0.5 * eye) == 1.0  # a full step stays inside
    # I - 2a I is positive definite first at a = 0.8**4; the step stops 0.95 of the way
    assert spectral._step_length(eye, -2.0 * eye) == pytest.approx(0.95 * 0.8**4, rel=1e-12)
    tight = spectral._step_length(np.diag([1.0, 1e-3]), np.diag([0.0, -1.0]))
    assert tight == pytest.approx(0.95 * 0.8**31, rel=1e-12)
    assert spectral._step_length(-eye, eye) == 0.0  # no step reaches the cone


def test_interior_point_finish(c4, k3, c4_maxcut):
    strong = sc.strongly_bipolar_perturb(c4, c4_maxcut, 0.1)
    cases = [c4, k3, strong, sc.gen_matching_epsilon(3, 0.1), sc.gen_matching_epsilon(5, 0.3)]
    cases += [sc.gen_infinite_stable_not_distinguished(k, 1e-3).instance for k in range(4, 9)]
    cases += [sc.gen_tightness_example(k).instance for k in (2, 3, 4)]
    for inst in cases:
        W = inst.weights
        scale = weight_scale(W)
        X, converged, iterations = spectral._interior_point(W, min(1.0, float(W.sum())))
        assert converged and 0 < iterations < spectral.FINISH_ITERATIONS
        assert np.array_equal(X, X.T)
        assert np.abs(np.diagonal(X) - 1.0).max() <= 1e-12
        assert np.linalg.eigvalsh(X)[0] > 0.0  # interior: X stays positive definite
        assert _certified_gap(inst, X) <= 1e-8 * scale
        _, _, value, ref_converged, _ = _reference_primal(inst)
        assert ref_converged and abs(float(np.vdot(W, X)) - value) <= 1e-7 * scale
    # the strongly bipolar c4 has the rank-one optimum delta delta^T alone
    X = spectral._interior_point(strong.weights, 1.0)[0]
    assert np.abs(X - np.outer(c4_maxcut.delta, c4_maxcut.delta)).max() <= 1e-6

    # a solve that reaches the finish returns X as the Gram matrix of n-column vectors
    snd = sc.gen_infinite_stable_not_distinguished(6, 1e-3).instance
    sol = sc.gw_primal_solve(snd, seed=5)
    X, converged, iterations = spectral._interior_point(snd.weights, 1.0)
    assert (sol.sweeps, sol.finish_iterations, sol.converged) == (
        spectral.MIXING_SWEEPS, iterations, converged)
    assert sol.gram.tobytes() == X.tobytes()
    assert sol.primal_value == float(np.vdot(snd.weights, X))
    assert sol.vectors.shape == (snd.n, snd.n)
    assert np.abs(sol.vectors @ sol.vectors.T - X).max() <= 1e-12


def _reference_interior_point(W, floor):
    """The finish before its Newton systems were solved by LU: Z^-1 and dy from
    one eigh each, every other rule the same.  Kept to pin the LU finish's
    iteration counts, flags and values."""
    n = W.shape[0]
    X = np.eye(n)
    y = 1.1 * np.abs(W).sum(axis=1) + floor
    Z = np.diag(y) + W
    diag = np.diag_indices(n)
    mu = float(np.vdot(X, Z)) / (2 * n)
    for iteration in range(1, spectral.FINISH_ITERATIONS + 1):
        lam, Q = np.linalg.eigh(Z)
        Zi = (Q / lam) @ Q.T
        Zi = (Zi + Zi.T) / 2
        lam, Q = np.linalg.eigh(Zi * X)
        dy = Q @ ((Q.T @ (mu * np.diagonal(Zi) - 1.0)) / lam)
        dX = mu * Zi - X - (Zi * dy) @ X
        dX = (dX + dX.T) / 2
        alpha_p = spectral._step_length(X, dX)
        X += alpha_p * dX
        alpha_d = spectral._step_length(Z, np.diag(dy))
        y += alpha_d * dy
        Z[diag] += alpha_d * dy
        mu = float(np.vdot(X, Z)) / (2 * n)
        if alpha_p + alpha_d > 1.8:
            mu /= 2
        dual = float(y.sum())
        if dual + float(np.vdot(W, X)) <= spectral.RELAX_TOL * (floor + abs(dual)):
            return X, True, iteration
    return X, False, spectral.FINISH_ITERATIONS


def test_finish_matches_the_eigh_reference():
    runs = [(inst, seed + 2 * idx + k)
            for seed in (DEFAULT_SEED, 1, 7) for idx, inst in enumerate(gw_pool(seed, 200))
            for k in (0, 1)]
    runs += [(sc.gen_planted_partition(n, 0.6, 0.4, s).instance, s)
             for n in (24, 40, 64) for s in (1, 2, 3)]
    finished = 0
    for inst, seed in runs:
        sol = sc.gw_primal_solve(inst, seed=seed, max_sweeps=20_000)
        if not sol.finish_iterations:
            continue
        finished += 1
        W = inst.weights
        X, converged, iterations = _reference_interior_point(W, min(1.0, float(W.sum())))
        assert (sol.finish_iterations, sol.converged) == (iterations, converged)
        value = float(np.vdot(W, X))
        assert abs(sol.primal_value - value) <= 1e-12 * abs(value)
    assert finished == 274


def test_finish_that_runs_out_of_iterations_is_not_converged(monkeypatch):
    # a solve whose gap was not certified never reports converged
    monkeypatch.setattr(spectral, "FINISH_ITERATIONS", 1)
    snd = sc.gen_infinite_stable_not_distinguished(6, 1e-3).instance
    sol = sc.gw_primal_solve(snd, seed=5)
    assert (sol.sweeps, sol.finish_iterations, sol.converged) == (spectral.MIXING_SWEEPS, 1, False)


def test_finished_solves_of_criterion_9_pool_are_certified():
    seed = DEFAULT_SEED
    finished = 0
    for idx, inst in enumerate(gw_pool(seed, 200)):
        scale = weight_scale(inst.weights)
        for s in (seed + 2 * idx, seed + 2 * idx + 1):
            sol = sc.gw_primal_solve(inst, seed=s, max_sweeps=20_000)
            if sol.finish_iterations:
                finished += 1
                assert sol.converged and _certified_gap(inst, sol.gram) <= 1e-8 * scale
    assert finished == 80


def test_dual_extraction_exact_grams(c4, k3, c4_maxcut):
    ext = sc.gw_dual_extract(c4, np.outer(c4_maxcut.delta, c4_maxcut.delta))
    assert np.allclose(ext.diag_values, -2.0)
    assert ext.gap == 0.0 and ext.psd_residual >= -1e-9

    P = np.full((3, 3), -0.5)
    np.fill_diagonal(P, 1.0)
    ext = sc.gw_dual_extract(k3, P)
    assert np.allclose(ext.diag_values, -1.0) and ext.gap == 0.0

    ext = sc.gw_dual_extract(sc.Instance([[0.0, 1.0], [1.0, 0.0]]),
                             np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(ext.diag_values, -1.0) and ext.gap == 0.0

    with pytest.raises(ParameterError):
        sc.gw_dual_extract(k3, np.eye(3) * 2.0)


def test_dual_unique_across_seeds():
    rng = np.random.default_rng(17)
    for _ in range(5):
        inst = random_instance(rng, 8)
        scale = weight_scale(inst.weights)
        a = sc.gw_dual_extract(inst, sc.gw_primal_solve(inst, seed=1).gram)
        b = sc.gw_dual_extract(inst, sc.gw_primal_solve(inst, seed=2).gram)
        assert np.abs(a.diag_values - b.diag_values).max() <= 1e-4 * scale


def test_weak_duality_for_feasible_duals():
    rng = np.random.default_rng(23)
    for _ in range(8):
        inst = random_instance(rng, 7)
        sol = sc.gw_primal_solve(inst, seed=4)
        ext = sc.gw_dual_extract(inst, sol.gram)
        if ext.psd_residual >= -eig_zero_tol(inst.weights):  # dual is feasible
            assert ext.diag_values.sum() <= sol.primal_value + 1e-9 * weight_scale(inst.weights)


def test_rounding(c4, k3, c4_maxcut):
    sol = sc.gw_primal_solve(c4, seed=0)
    for seed in range(10):
        r = sc.gw_round(c4, sol.vectors, seed=seed, trials=1)
        assert r.weight == 4.0 and sc.same_bipartition(r.cut, c4_maxcut)

    sol3 = sc.gw_primal_solve(k3, seed=0)
    r = sc.gw_round(k3, sol3.vectors, seed=1, trials=64)
    assert r.weight == 2.0

    with pytest.raises(ParameterError):
        sc.gw_round(c4, sol.vectors, seed=0, trials=0)


def _reference_round(inst, vectors, seed=0, trials=32):
    """The rounding loop gw_round replaced: one Cut and one cut_weight per trial.
    Kept to pin the fast loop's cut, weight and projection."""
    V = np.asarray(vectors, dtype=np.float64)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(trials):
        u = V @ rng.normal(size=V.shape[1])
        side = u > 0.0
        if side.all() or not side.any():
            continue
        cut = sc.Cut(side)
        w = sc.cut_weight(inst, cut)
        if best is None or w > best[1]:
            best = (cut, w, u)
    if best is None:
        raise SolverFailure("every rounding trial produced a one-sided pattern")
    return best


def test_rounding_matches_reference_loop():
    rng = np.random.default_rng(41)
    runs = []
    for pool_seed in (0, 7):
        for idx, inst in enumerate(gw_pool(pool_seed, 60)):
            vectors = sc.gw_primal_solve(inst, seed=pool_seed + idx).vectors
            runs += [(inst, vectors, {"seed": idx}),
                     (inst, vectors, {"seed": idx + 1, "trials": 5})]
    for n in (64, 200):
        inst = sc.gen_stable_bipartite_noise(n, 8.0, n).instance
        runs.append((inst, sc.gw_primal_solve(inst, seed=2).vectors, {"seed": 3}))
    # unsolved vectors: nearly every trial takes a side of its own
    inst = random_instance(rng, 12)
    runs.append((inst, rng.normal(size=(12, 12)), {"seed": 4, "trials": 64}))

    repeats = distinct = 0
    for inst, vectors, kw in runs:
        fast = sc.gw_round(inst, vectors, **kw)
        cut, weight, projection = _reference_round(inst, vectors, **kw)
        assert fast.cut.side.tobytes() == cut.side.tobytes()
        assert fast.weight == weight
        assert fast.projection.tobytes() == projection.tobytes()
        rng_kw = np.random.default_rng(kw["seed"])
        sides = {(vectors @ rng_kw.normal(size=vectors.shape[1]) > 0.0).tobytes()
                 for _ in range(kw.get("trials", 32))}
        repeats += len(sides) < kw.get("trials", 32)
        distinct = max(distinct, len(sides))
    # the pool repeats sides, so a later trial ties the best one; the random V does not
    assert repeats >= 200 and distinct >= 60

    # every trial one-sided: both loops give up
    same = np.tile(rng.normal(size=5), (12, 1))
    with pytest.raises(SolverFailure):
        sc.gw_round(inst, same, seed=0)
    with pytest.raises(SolverFailure):
        _reference_round(inst, same, seed=0)


def test_rounding_projection_lies_in_dual_kernel(c4):
    # u = V v is a combination of Gram columns, hence in ker(W - D) at
    # optimality; the first-order solve leaves O(sqrt(kkt)) vector error
    sol = sc.gw_primal_solve(c4, seed=2)
    ext = sc.gw_dual_extract(c4, sol.gram)
    assert ext.gap < 1e-6 * weight_scale(c4.weights)
    A = c4.weights - np.diag(ext.diag_values)
    r = sc.gw_round(c4, sol.vectors, seed=5, trials=4)
    tol = 1e-4 * (1.0 + np.abs(c4.weights).max())
    assert np.linalg.norm(A @ r.projection) <= tol * np.linalg.norm(r.projection)


# ---------------------------------------------------------------------------
# bipolarity and the strong perturbation
# ---------------------------------------------------------------------------


def test_bipolarity_worked_examples(c4, k3, c4_maxcut):
    rep = sc.bipolarity_check(c4, c4_maxcut, seed=0)
    assert rep.bipolar and rep.agree
    assert np.array_equal(rep.bundle.shift, [2.0, 2.0, 2.0, 2.0])
    assert rep.binary_value == -8.0

    cut3 = sc.Cut([True, False, False])
    rep = sc.bipolarity_check(k3, cut3, seed=0)
    assert not rep.bipolar and rep.agree
    assert np.array_equal(rep.bundle.shift, [2.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, -1.0])
    quad = u @ rep.bundle.shifted @ u
    assert quad == -2.0


def test_bipartite_instances_are_bipolar():
    for seed in range(5):
        planted = sc.gen_planted_partition(8, 1.0, 0.0, seed=seed)
        rep = sc.bipolarity_check(planted.instance, planted.planted_cut, seed=seed)
        assert rep.bipolar and rep.agree


def test_bipolarity_verdicts_agree_on_random_instances():
    rng = np.random.default_rng(29)
    for i in range(8):
        inst = random_instance(rng, 7)
        cut, _, count = sc.brute_force_maxcut(inst)
        if count != 1:
            continue
        rep = sc.bipolarity_check(inst, cut, seed=i)
        assert rep.agree


def test_strongly_bipolar_perturb(c4, k3, c4_maxcut):
    strong = sc.strongly_bipolar_perturb(c4, c4_maxcut, 0.1)
    assert np.array_equal(np.unique(strong.weights), [0.0, 1.1])
    bundle = sc.build_spectral_bundle(strong, c4_maxcut)
    assert bundle.eigenvalues[1] == pytest.approx(2.2, abs=1e-9)
    target = np.outer(c4_maxcut.delta, c4_maxcut.delta)
    for seed in range(5):
        sol = sc.gw_primal_solve(strong, seed=seed)
        assert np.abs(sol.gram - target).max() <= 1e-3

    unchanged = sc.strongly_bipolar_perturb(c4, c4_maxcut, 0.0)
    assert np.array_equal(unchanged.weights, c4.weights)

    with pytest.raises(PreconditionError):
        sc.strongly_bipolar_perturb(k3, sc.Cut([True, False, False]), 0.1)


def test_strongly_bipolar_perturb_rejects_a_nan_or_infinite_eps(c4, c4_maxcut):
    for eps in (math.nan, math.inf, -math.inf, -0.1):
        with pytest.raises(ParameterError, match="^eps must be finite and >= 0$"):
            sc.strongly_bipolar_perturb(c4, c4_maxcut, eps)


def test_scaling_equivalence_with_least_eigenvector_shift():
    # v is a kernel vector of some PSD diagonal shift of W exactly when the
    # cut induced by v attains the relaxation optimum of |v_i||v_j| W_ij;
    # the two shifted matrices are congruent via diag(|v|)
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 20:
        n = int(rng.integers(4, 8))
        inst = random_instance(rng, n)
        W = inst.weights
        v = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
        side = v > 0
        if side.all() or not side.any():
            continue
        checked += 1
        shift_v = -(W @ v) / v
        M1 = W + np.diag(shift_v)
        psd1 = np.linalg.eigvalsh(M1)[0] >= -eig_zero_tol(M1)
        scaled = glev_scaling(inst, v)
        b = sc.build_spectral_bundle(scaled, sc.Cut(side))
        psd2 = b.eigenvalues[0] >= -b.tol
        assert psd1 == psd2


def test_glev_condition_certifies_oracle_optimum():
    # a rounding projection is a least-eigenvector witness at zero gap; when
    # its coordinate ratio clears the instance stability, the induced cut
    # must be the true optimum
    certified = 0
    for seed in range(8):
        planted = sc.gen_stable_bipartite_noise(10, 16.0, seed=seed)
        inst = planted.instance
        opt, _, _ = sc.brute_force_maxcut(inst)
        gamma = sc.cut_stability_gamma(inst, opt)
        sol = sc.gw_primal_solve(inst, seed=seed)
        if sc.gw_dual_extract(inst, sol.gram).gap > 1e-6 * weight_scale(inst.weights):
            continue
        r = sc.gw_round(inst, sol.vectors, seed=seed, trials=8)
        if (r.projection == 0.0).any():
            continue
        if gamma >= coordinate_ratio(r.projection) * (1.0 - REL_TOL):
            certified += 1
            assert sc.same_bipartition(r.cut, opt)
    assert certified > 0


def test_alpha_below_cut_edge_cheeger():
    # distinction never exceeds the Cheeger constant of the cut edges alone
    rng = np.random.default_rng(43)
    from stablecut.oracle import subset_scan_minima
    pools = [random_instance(rng, int(rng.integers(5, 10))) for _ in range(8)]
    pools += [sc.gen_stable_bipartite_noise(10, 4.0, seed=s).instance for s in range(4)]
    pools += [sc.gen_euclidean_metric(8, 2, 5.0, seed=s).instance for s in range(4)]
    for inst in pools:
        cut, _, _ = sc.brute_force_maxcut(inst)
        alpha = sc.distinction_alpha(inst, cut)
        bundle = sc.build_spectral_bundle(inst, cut)
        _, _, h_cut = subset_scan_minima(bundle.cut_part, None)
        assert alpha <= h_cut + 1e-9


def test_binary_shift_matches_bundle_diagonal():
    # the canonical diagonal d_i = -delta_i * (W delta)_i is the bundle's D'
    rng = np.random.default_rng(37)
    for _ in range(5):
        inst = random_instance(rng, 6)
        cut = random_cut(rng, 6)
        binary_shift = -cut.delta * (inst.weights @ cut.delta)
        assert np.allclose(binary_shift,
                           sc.build_spectral_bundle(inst, cut).shift)
