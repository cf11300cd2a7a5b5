"""The acceptance battery: every release criterion as a callable check.

Each ``criterion_k`` function runs one experiment deterministically from a
seed and returns a CriterionResult with the measured numbers, so the same
battery backs both the pytest acceptance module and the CLI bench suite.
Criteria are numbered 1 through 10; see README for the one-line summaries.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dense import DenseSolverConfig, dense_solve, draw_samples, failure_bound, per_vertex_failures
from .errors import SolverFailure
from .generators import (
    gen_euclidean_metric,
    gen_infinite_stable_not_distinguished,
    gen_matching_epsilon,
    gen_planted_partition,
    gen_stable_bipartite_noise,
    gen_tightness_example,
)
from .instance import Cut, Instance, REL_TOL, cut_weight, cut_weights_for_sides, density_coefficient, same_bipartition
from .metric import (
    ball_enumeration_solve,
    cut_edge_lower_bound_check,
    enumerate_balls,
    normalize_total_weight,
    split_instance,
)
from .oracle import (
    brute_force_maxcut,
    cut_sides,
    cut_stability,
    enumerate_locally_stable_cuts,
    instance_stability,
    local_gammas,
    local_stability_gamma,
)
from .spectral import (
    bipolarity_check,
    build_spectral_bundle,
    distinguished_condition,
    glev_cut,
    gw_dual_extract,
    gw_primal_solve,
    psd_rank_certificate,
    strongly_bipolar_perturb,
    weight_scale,
)
from .stable import (
    spanning_tree_solve,
    spanning_tree_success_bound,
    sqrt_stability_threshold,
    sqrt_stable_solve,
    warmup_2n_solve,
)

INF = math.inf

DEFAULT_SEED = 20260801


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        keys = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"criterion {self.number} [{status}] {self.name} ({keys})"


def _le(a: float, b: float) -> bool:
    """a <= b up to the package-wide relative tolerance."""
    if a == INF:
        return b == INF
    if b == INF:
        return True
    return a <= b + REL_TOL * max(1.0, abs(a), abs(b))


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Instance pools.
# ---------------------------------------------------------------------------


_UNSEEDED = (gen_matching_epsilon, gen_tightness_example, gen_infinite_stable_not_distinguished)


def _draw(gen, options, k: int, seed: int) -> tuple[Instance, Cut | None]:
    """(instance, planted cut or None) of ``gen`` called with entry k of each option
    tuple, each cycling on its own length, then with ``seed`` unless ``gen`` takes none."""
    args = [opt[k % len(opt)] for opt in options]
    drawn = gen(*args) if gen in _UNSEEDED else gen(*args, seed)
    return (drawn, None) if isinstance(drawn, Instance) else (drawn.instance, drawn.planted_cut)


# family -> (generator, option tuples).  Instance i draws entry i of each tuple,
# so tuples of one length stay locked together.
_FAMILY_OPTIONS = {
    "planted-partition": (gen_planted_partition,
                          ((6, 8, 10, 12, 14), (0.85, 0.9, 1.0), (0.1, 0.2, 0.0))),
    "stable-bipartite-noise": (gen_stable_bipartite_noise,
                               ((6, 8, 10, 12, 14), (1.0, 2.0, 4.0, 8.0, INF))),
    "matching-eps": (gen_matching_epsilon, ((2, 3, 4, 5, 6, 7), (1e-3, 0.1, 0.5))),
    "tightness": (gen_tightness_example, ((2, 3),)),
    "euclidean": (gen_euclidean_metric, ((4, 6, 8, 10, 12), (1, 2, 3), (0.5, 2.0, 8.0))),
}

FAMILIES = tuple(_FAMILY_OPTIONS)


def _family_pool(family: str, count: int, seed: int):
    """Deterministic stream of (instance, planted-cut-or-None) for one family, n <= 14."""
    gen, options = _FAMILY_OPTIONS[family]
    return [_draw(gen, options, i, seed * 1_000_003 + i) for i in range(count)]


# ---------------------------------------------------------------------------
# 1. Oracle cross-validation.
# ---------------------------------------------------------------------------


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Oracle invariants on every generated family at n <= 14 within 5 minutes."""
    per_family = 200
    t0 = time.perf_counter()
    checked = 0
    failures = []
    for fi, family in enumerate(FAMILIES):
        for inst, _ in _family_pool(family, per_family, seed + fi):
            cut, _, count = brute_force_maxcut(inst)
            rep = cut_stability(inst, cut)
            gamma_raw, alpha, unique = rep.gamma, rep.alpha, count == 1
            # the subset scan's tie tally agrees with the max-cut scan's count
            ok = (rep.is_unique_maxcut == unique and _le(gamma_raw, rep.gamma_local)
                  and _le(alpha, rep.cheeger))
            if unique and alpha < 1.0:
                ok = ok and _le((1.0 + alpha) / (1.0 - alpha), gamma_raw)
            elif unique:
                ok = ok and gamma_raw == INF
            # stability above 1 iff the optimum is unique
            if gamma_raw > 1.0 + 1e-9:
                ok = ok and unique
            ok = ok and (gamma_raw >= 1.0 - 1e-9 if unique else gamma_raw <= 1.0 + 1e-9)
            checked += 1
            if not ok:
                failures.append((family, checked))
    runtime = time.perf_counter() - t0
    return CriterionResult(
        1, "oracle invariants across families", not failures and runtime < 300.0,
        {"instances": checked, "violations": len(failures), "seconds": round(runtime, 2)})


# ---------------------------------------------------------------------------
# 2. Dense solver: seeded failure frequencies and end-to-end recovery.
# ---------------------------------------------------------------------------


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Per-vertex misclassification frequency against the union bound; recovery rate."""
    trials, solver_seeds = 1000, 50
    details: dict = {}
    ok = True
    pools = {
        "bipartite-noise(14,8)": gen_stable_bipartite_noise(14, 8.0, seed),
        "complete-bipartite(14)": gen_planted_partition(14, 1.0, 0.0, seed),
    }
    solved = {}  # name -> (optimum, density coefficient, local gamma)
    for name, planted in pools.items():
        inst = planted.instance
        opt, _, _ = brute_force_maxcut(inst)
        C = density_coefficient(inst)
        gl = local_stability_gamma(inst, opt)
        solved[name] = opt, C, gl
        for m in (8, 16, 32):
            fails = 0
            for t in range(trials):
                samples = draw_samples(inst.n, m, seed * 7919 + 31 * m + t)
                fails += bool(per_vertex_failures(inst, opt, samples).any())
            freq = fails / trials
            bound = failure_bound(C, gl, m, inst.n)
            se = math.sqrt(bound * (1.0 - bound) / trials)
            good = freq <= bound + 3.0 * se
            ok = ok and good
            details[f"{name} m={m}"] = f"freq={freq:.4f} bound={bound:.4f}"

    planted = pools["bipartite-noise(14,8)"]
    inst = planted.instance
    opt, C, gl = solved["bipartite-noise(14,8)"]
    bound10 = failure_bound(C, gl, 10, inst.n)
    wins_enum = wins_seeded = 0
    for s in range(solver_seeds):
        cut = dense_solve(inst, DenseSolverConfig(m=10, seed=seed + s))
        wins_enum += same_bipartition(cut, opt)
        try:
            cut = dense_solve(inst, DenseSolverConfig(
                m=10, seed=seed + s, seed_cut=planted.planted_cut))
            wins_seeded += same_bipartition(cut, opt)
        except SolverFailure:
            pass
    details["recovery"] = (f"enum={wins_enum}/{solver_seeds} "
                           f"seeded={wins_seeded}/{solver_seeds} bound(m=10)={bound10:.3f}")
    # The union bound governs enumerate mode only when nonvacuous; otherwise
    # the criterion shifts to the seeded partition.
    if bound10 < 0.5:
        ok = ok and wins_enum > solver_seeds // 2
    else:
        ok = ok and wins_seeded > solver_seeds // 2
    return CriterionResult(2, "dense sampling solver", ok, details)


# ---------------------------------------------------------------------------
# 3. Metric splitting reduction.
# ---------------------------------------------------------------------------


_SPLIT_OPTIONS = ((4, 6, 8, 10, 12), (1, 2, 3), (0.5, 2.0, 6.0))


def _split_pool(seed: int) -> list[Instance]:
    """98 Euclidean instances drawn with seed * 31 + i, then both tightness examples."""
    pool = [_draw(gen_euclidean_metric, _SPLIT_OPTIONS, i, seed * 31 + i) for i in range(98)]
    return [inst for inst, _ in pool + _family_pool("tightness", 2, seed)]


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Weight/local-stability preservation and density of the split instance."""
    instances = _split_pool(seed)
    ok = True
    worst_weight_err = 0.0
    for inst in instances:
        n = inst.n
        normalized, _ = normalize_total_weight(inst)
        smap = split_instance(normalized)
        tau_split = smap.split.degrees()
        ok = ok and bool((tau_split >= 1.0 - REL_TOL).all())
        bound = 4.0 / (1.0 - 1.0 / n) ** 2
        ok = ok and density_coefficient(smap.split) <= bound * (1.0 + REL_TOL)
        for sides in cut_sides(n):
            lifted = sides[smap.pi]
            w_orig = cut_weights_for_sides(normalized.weights, sides)
            w_split = cut_weights_for_sides(smap.split.weights, lifted)
            err = float(np.max(np.abs(w_split - w_orig) / np.maximum(1.0, np.abs(w_orig))))
            worst_weight_err = max(worst_weight_err, err)
            g_orig = local_gammas(normalized.weights, sides)
            g_split = local_gammas(smap.split.weights, lifted)
            both_inf = np.isinf(g_orig) & np.isinf(g_split)
            close = np.abs(g_split - g_orig) <= REL_TOL * np.maximum(1.0, np.abs(g_orig))
            ok = ok and bool(np.where(both_inf, True, close).all())
    ok = ok and worst_weight_err <= REL_TOL
    return CriterionResult(3, "metric-to-dense splitting reduction", ok,
                           {"instances": len(instances),
                            "worst_weight_rel_err": f"{worst_weight_err:.2e}"})


# ---------------------------------------------------------------------------
# 4 and 5. The ball guarantee and the cut-edge lower bound.
# ---------------------------------------------------------------------------


BALL_POOL_SIZE = 100
_BALL_OPTIONS = ((4, 6, 8, 10, 12), (1, 2, 3), (6.0, 10.0, 20.0))


@functools.lru_cache(maxsize=1)
def _ball_pool(seed: int) -> tuple:
    """Metric instances with unique optimum and local stability above 3.

    Criteria 4 and 5 read the same pool, so it is built once per seed.
    """
    pool = []
    i = 0
    while len(pool) < BALL_POOL_SIZE and i < 10 * BALL_POOL_SIZE:
        inst, _ = _draw(gen_euclidean_metric, _BALL_OPTIONS, i, seed * 17 + i)
        i += 1
        cut, w, cnt = brute_force_maxcut(inst)
        gl = local_stability_gamma(inst, cut)
        if cnt == 1 and gl > 3.0 + 1e-9:
            pool.append((inst, cut, w, gl))
    return tuple(pool)


def _is_ball(inst: Instance, cut: Cut) -> bool:
    """One side of the cut is one of the instance's balls."""
    return any(np.array_equal(b, cut.side) or np.array_equal(b, ~cut.side)
               for b in enumerate_balls(inst))


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """One side of the optimum is a ball above local stability 3; tight below."""
    pool = _ball_pool(seed)
    ok = len(pool) == BALL_POOL_SIZE
    for inst, cut, w, _ in pool:
        solved = ball_enumeration_solve(inst)
        ok = ok and _is_ball(inst, cut) and _close(cut_weight(inst, solved), w)

    tight = gen_tightness_example(2).instance
    t = instance_stability(tight)
    t_ball_w = cut_weight(tight, ball_enumeration_solve(tight))
    tight_ok = (t.is_unique_maxcut and 2.0 + 1e-9 < t.gamma_local < 3.0 - 1e-9
                and not _is_ball(tight, t.cut) and t_ball_w < t.cut_weight * (1.0 - REL_TOL))
    ok = ok and tight_ok
    return CriterionResult(4, "ball guarantee at desk scale", ok,
                           {"qualified": len(pool), "tightness_gamma_local": round(t.gamma_local, 6),
                            "tightness_gamma_subset": round(t.gamma, 6),
                            "tightness_ball_weight": t_ball_w, "tightness_opt": t.cut_weight})


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Cut-edge lower bound holds at the measured local stability."""
    pool = _ball_pool(seed)
    ok = len(pool) == BALL_POOL_SIZE
    worst = INF
    for inst, cut, _, gl in pool:
        check = cut_edge_lower_bound_check(inst, cut, gl)
        ok = ok and check.ok
        worst = min(worst, check.worst_slack)
    return CriterionResult(5, "cut-edge lower bound", ok,
                           {"instances": len(pool), "worst_slack": f"{worst:.3e}"})


# ---------------------------------------------------------------------------
# 6. Merging solvers.
# ---------------------------------------------------------------------------


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    """sqrt-threshold solver and warm-up solver match the oracle on verified instances."""
    count = 100
    # name, seed stride, generator gamma, qualifying stability, solver
    solvers = (
        ("sqrt", 13, lambda n: 1.3 * sqrt_stability_threshold(n),
         lambda gamma, n: gamma > sqrt_stability_threshold(n),
         lambda inst: sqrt_stable_solve(inst, "auto")),
        ("warmup", 29, lambda n: 2.4 * n, lambda gamma, n: gamma >= 2 * n, warmup_2n_solve),
    )
    ok = True
    details = {}
    for name, stride, target, qualifies, solve in solvers:
        hits = total = 0
        i = 0
        while total < count and i < 10 * count:
            n = (8, 10, 12)[i % 3]
            planted = gen_stable_bipartite_noise(n, target(n), seed * stride + i)
            i += 1
            # at n <= 20 the claim is the subset oracle's scan of the planted cut
            if not qualifies(planted.claims["gamma"], n):
                continue
            total += 1
            opt, _, cnt = brute_force_maxcut(planted.instance)
            hits += cnt == 1 and same_bipartition(solve(planted.instance), opt)
        ok = ok and hits == total == count
        details[name] = f"{hits}/{total}"
    return CriterionResult(6, "merging solvers exact on stable instances", ok, details)


# ---------------------------------------------------------------------------
# 7. Spanning-tree solver.
# ---------------------------------------------------------------------------


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Per-repetition success rate matches the (gamma/(gamma+1))^(n-1) bound."""
    trials = 2000
    n = 12
    cases = {
        "gamma=10": gen_stable_bipartite_noise(n, 10.0, seed + 1),
        "gamma=20": gen_stable_bipartite_noise(n, 20.0, seed + 2),
        "gamma=inf": gen_planted_partition(n, 1.0, 0.0, seed + 3),
    }
    ok = True
    details = {}
    for name, planted in cases.items():
        inst = planted.instance
        opt, _, _ = brute_force_maxcut(inst)
        # the subset oracle's scan of the planted cut at n <= 20, inf on bipartite support
        gamma = planted.claims["gamma"]
        bound = spanning_tree_success_bound(gamma, n)
        hits = sum(
            same_bipartition(spanning_tree_solve(inst, seed=seed * 101 + t, repetitions=1), opt)
            for t in range(trials))
        rate = hits / trials
        se = math.sqrt(max(bound * (1.0 - bound), rate * (1.0 - rate)) / trials)
        good = rate >= bound - 3.0 * se
        if math.isinf(gamma):
            good = good and rate == 1.0
        ok = ok and good
        details[name] = f"rate={rate:.4f} bound={bound:.4f}"
    return CriterionResult(7, "spanning-tree success rate", ok, details)


# ---------------------------------------------------------------------------
# 8. PSD rank certificate.
# ---------------------------------------------------------------------------


# index i draws every kind at entry i, the last two only when i % 4 == 0
_CERTIFICATE_KINDS = (
    (gen_stable_bipartite_noise, ((6, 10, 14, 16), (2.0, 8.0, 20.0, INF))),
    (gen_planted_partition, ((6, 10, 14, 16), (0.9, 1.0), (0.15, 0.0))),
    (gen_euclidean_metric, ((4, 8, 12, 14), (1, 2, 3), (2.0, 30.0))),
    (gen_matching_epsilon, ((2, 3, 4, 5, 6), (1e-3,))),
    (gen_infinite_stable_not_distinguished, ((2, 3, 4, 5, 6, 7), (1e-3,))),
)


def _certificate_pool(seed: int) -> list[Instance]:
    return [_draw(gen, options, i, seed * 37 + i)[0] for i in range(40)
            for gen, options in _CERTIFICATE_KINDS[:3 if i % 4 else 5]]


def _c4() -> tuple[Instance, Cut]:
    """The 4-cycle and its maximum cut, the worked example of criteria 8 and 9."""
    return (Instance([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]),
            Cut([True, False, True, False]))


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Certificate fires whenever local stability clears the cut-expansion threshold,
    and the certified cut is the least-eigenvector cut of W + D'."""
    qualified = 0
    ok = True
    for inst in _certificate_pool(seed):
        cut, _, _ = brute_force_maxcut(inst)
        dist = distinguished_condition(inst, cut)
        if dist.gamma_local > dist.cheeger_threshold * (1.0 + 1e-6):
            qualified += 1
            bundle = build_spectral_bundle(inst, cut)
            ok = (ok and psd_rank_certificate(bundle) == "certified"
                  and same_bipartition(glev_cut(inst, bundle.shift), cut))

    c4, c4_cut = _c4()
    bundle = build_spectral_bundle(c4, c4_cut)
    spectrum_ok = bool(np.abs(bundle.eigenvalues - np.array([0.0, 2.0, 2.0, 4.0])).max() <= 1e-8)
    thr = distinguished_condition(c4, c4_cut).cheeger_threshold
    thr_ok = abs(thr - 14.928203230275509) <= 1e-8
    ok = ok and spectrum_ok and thr_ok and psd_rank_certificate(bundle) == "certified"
    return CriterionResult(8, "spectral PSD rank certificate", ok,
                           {"qualified": qualified, "c4_threshold": round(thr, 10),
                            "c4_spectrum_ok": spectrum_ok})


# ---------------------------------------------------------------------------
# 9. Relaxation battery.
# ---------------------------------------------------------------------------


_GW_KINDS = (
    (gen_stable_bipartite_noise, ((6, 14), (2.0, 20.0))),
    (gen_planted_partition, ((10, 16), (0.9,), (0.2,))),
    (gen_euclidean_metric, ((12, 4), (3,), (2.0,))),
    (gen_matching_epsilon, ((5, 3), (0.3,))),
    (gen_infinite_stable_not_distinguished, ((6,), (1e-3,))),
    (gen_tightness_example, ((4,),)),
)


def gw_pool(seed: int, count: int) -> list[Instance]:
    """Instances cycling through every family, n <= 16: instance i is of kind
    i % 6 at entry i // 6, drawn with seed seed * 41 + i."""
    return [_draw(*_GW_KINDS[i % 6], i // 6, seed * 41 + i)[0] for i in range(count)]


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Duality gaps, dual uniqueness, bipolarity agreement, and the worked examples."""
    ok = True
    details = {}
    pool = gw_pool(seed, 200)

    converged = finished = 0
    gap_ok = dual_ok = True
    for idx, inst in enumerate(pool):
        scale = weight_scale(inst.weights)
        sol1 = gw_primal_solve(inst, seed=seed + 2 * idx)
        sol2 = gw_primal_solve(inst, seed=seed + 2 * idx + 1)
        # a finished solve ignores its seed, so a pair of them agrees by construction
        finished += (sol1.finish_iterations > 0) + (sol2.finish_iterations > 0)
        ext1 = gw_dual_extract(inst, sol1.gram)
        ext2 = gw_dual_extract(inst, sol2.gram)
        if sol1.converged and sol2.converged:
            converged += 1
            gap_ok = gap_ok and ext1.gap < 1e-6 * scale and ext2.gap < 1e-6 * scale
            dual_ok = dual_ok and bool(
                np.abs(ext1.diag_values - ext2.diag_values).max() <= 1e-4 * scale)

    # Bipolarity agreement over 200 instances with a unique optimum (the
    # four-way equivalence presumes a maximum cut, unique so the verdicts
    # are well-posed).  Tolerance escalations are recorded, never silent.
    agreement_checked = 0
    agree_ok = True
    escalations = []
    idx = 0
    for inst in gw_pool(seed + 999, 400):
        if agreement_checked == 200:
            break
        idx += 1
        cut, _, cnt = brute_force_maxcut(inst)
        if cnt != 1:
            continue
        agreement_checked += 1
        for tol_scale in (1.0, 10.0, 100.0):
            report = bipolarity_check(inst, cut, seed=seed + idx, tol_scale=tol_scale)
            if report.agree:
                if tol_scale > 1.0:
                    escalations.append((idx, tol_scale))
                break
        else:
            agree_ok = False
    ok = ok and gap_ok and dual_ok and agree_ok and converged >= 0.9 * len(pool)
    ok = ok and agreement_checked == 200
    details["pool"] = len(pool)
    details["converged_pairs"] = converged
    details["finished_solves"] = finished
    details["bipolarity_checked"] = agreement_checked
    details["tolerance_escalations"] = len(escalations)

    c4, c4_cut = _c4()
    sol = gw_primal_solve(c4, seed=seed)
    ext = gw_dual_extract(c4, sol.gram)
    ok = ok and abs(sol.primal_value + 8.0) <= 1e-6 and bool(
        np.abs(ext.diag_values + 2.0).max() <= 1e-4)

    k3 = Instance([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    k3_cut = Cut([True, False, False])
    sol3 = gw_primal_solve(k3, seed=seed)
    ext3 = gw_dual_extract(k3, sol3.gram)
    ok = ok and abs(sol3.primal_value + 3.0) <= 1e-3 and bool(
        np.abs(ext3.diag_values + 1.0).max() <= 1e-3)
    u = np.array([0.0, 1.0, -1.0])
    quad = float(u @ build_spectral_bundle(k3, k3_cut).shifted @ u)
    ok = ok and abs(quad + 2.0) <= 1e-12
    ok = ok and not bipolarity_check(k3, k3_cut, seed=seed).bipolar

    strong = strongly_bipolar_perturb(c4, c4_cut, 0.1)
    ok = ok and psd_rank_certificate(build_spectral_bundle(strong, c4_cut)) == "certified"
    target = np.outer(c4_cut.delta, c4_cut.delta)
    for s in range(5):
        g = gw_primal_solve(strong, seed=seed + s)
        ok = ok and bool(np.abs(g.gram - target).max() <= 1e-3)
    details["c4_primal"] = round(sol.primal_value, 9)
    details["k3_primal"] = round(sol3.primal_value, 6)
    details["k3_quad_form"] = quad
    return CriterionResult(9, "relaxation battery", ok, details)


# ---------------------------------------------------------------------------
# 10. Locally stable cut counts.
# ---------------------------------------------------------------------------


_COUNT_KINDS = (
    (gen_stable_bipartite_noise, ((8, 10, 12, 14), (1.0,))),
    (gen_planted_partition, ((8, 10, 12, 14), (0.9,), (0.4,))),
    (gen_euclidean_metric, ((8, 10, 12, 14), (3,), (2.0,))),
)


def _count_pool(seed: int) -> list[Instance]:
    """50 dense instances: instance i is of kind i % 3 at entry i, seed seed * 53 + i."""
    return [_draw(*_COUNT_KINDS[i % 3], i, seed * 53 + i)[0] for i in range(50)]


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Counts stay inside a polynomial envelope on dense instances; contrast case."""
    pool = _count_pool(seed)
    ok = True
    max_ratio = 0.0
    for inst in pool:
        n = inst.n
        cuts = enumerate_locally_stable_cuts(inst, 1.1)
        ok = ok and len(cuts) <= n ** 3
        max_ratio = max(max_ratio, len(cuts) / n ** 3)
    contrast = len(enumerate_locally_stable_cuts(gen_matching_epsilon(3, 1e-3), 1.1))
    ok = ok and contrast > 2
    return CriterionResult(10, "locally stable cut counts", ok,
                           {"instances": len(pool), "max_count_over_n3": f"{max_ratio:.4f}",
                            "matching_contrast_count": contrast})


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [criterion(seed) for criterion in CRITERIA]
