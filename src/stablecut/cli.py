"""Command-line entry point: gen / solve / verify / certify / split / bench.

Every command writes a single JSON document to stdout.  Exit codes: 0 on
success, 1 when a solver declines (degenerate sampling etc.), 2 on usage
errors including malformed input files.  Infinite values serialize as the
string "inf"; runs are reproducible: the same argv and seed produce
byte-identical output (wall-clock timing is only included with --timing).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from .dense import DenseSolverConfig, dense_solve
from .errors import ParameterError, SolverFailure, StableCutError
from .generators import (
    gen_euclidean_metric,
    gen_infinite_stable_not_distinguished,
    gen_matching_epsilon,
    gen_planted_partition,
    gen_stable_bipartite_noise,
    gen_tightness_example,
)
from .instance import (
    check_cut,
    cut_to_json,
    cut_weight,
    load_cut,
    load_instance,
    same_bipartition,
    save_cut,
    save_instance,
)
from .metric import ball_enumeration_solve, metric_dense_solve, normalize_total_weight, split_instance
from .oracle import (
    brute_force_maxcut,
    local_stability_gamma,
    subset_scan_minima,
)
from .spectral import (
    bipolarity_check,
    distinguished_condition,
    gw_dual_extract,
    gw_primal_solve,
    gw_round,
    psd_rank_certificate,
)
from .stable import (
    default_tree_repetitions,
    spanning_tree_solve,
    sqrt_stability_threshold,
    sqrt_stable_solve,
    warmup_2n_solve,
)


def _jsonable(value):
    """Recursively convert to JSON-safe values; infinities become 'inf'."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _emit(doc: dict, fh) -> None:
    """Write ``doc`` to ``fh`` as indented JSON and a newline: the one encoding of
    every document the CLI writes, to stdout or to a file."""
    print(json.dumps(_jsonable(doc), indent=2), file=fh)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    fam = args.family
    if fam == "planted-partition":
        planted = gen_planted_partition(args.n, args.p, args.q, args.seed)
    elif fam == "bipartite-noise":
        planted = gen_stable_bipartite_noise(args.n, float(args.gamma), args.seed)
    elif fam == "euclidean":
        planted = gen_euclidean_metric(args.n, args.dim, args.sep, args.seed)
    elif fam == "tightness":
        planted = gen_tightness_example(args.pairs)
    elif fam == "matching-eps":
        inst = gen_matching_epsilon(args.pairs, args.eps)
        planted = None
    elif fam == "stable-not-distinguished":
        planted = gen_infinite_stable_not_distinguished(args.pairs, args.eps)
    if planted is not None:
        inst = planted.instance
    save_instance(inst, args.output)
    sidecar_path = args.sidecar or args.output + ".planted.json"
    summary = {"family": fam, "n": inst.n, "output": args.output}
    if planted is not None:
        with open(sidecar_path, "w") as fh:
            _emit({"planted_cut": cut_to_json(planted.planted_cut),
                   "claims": planted.claims}, fh)
        summary["sidecar"] = sidecar_path
        summary["claims"] = planted.claims
    _emit(summary, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _dense_config(args) -> DenseSolverConfig:
    k = None
    if args.mode.startswith("random:"):
        k = int(args.mode.split(":", 1)[1])
    elif args.mode not in ("enumerate", "seeded"):
        raise ParameterError(f"unknown mode {args.mode!r}: use enumerate, seeded or random:K")
    seeded = args.mode == "seeded"
    if seeded != (args.seed_cut is not None):
        raise ParameterError("--mode seeded and --seed-cut go together")
    seed_cut = load_cut(args.seed_cut) if seeded else None
    return DenseSolverConfig(eps=args.eps, C=args.C, m=args.m, k=k,
                             seed=args.seed, seed_cut=seed_cut)


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    t0 = time.perf_counter()
    verdicts: dict = {}
    oracle = None
    if args.algo == "brute":
        oracle = brute_force_maxcut(inst)
        cut, _, verdicts["optimal_count"] = oracle
    elif args.algo == "dense":
        cut = dense_solve(inst, _dense_config(args))
    elif args.algo == "metric-dense":
        cut = metric_dense_solve(inst, _dense_config(args))
    elif args.algo == "ball":
        cut = ball_enumeration_solve(inst)
    elif args.algo == "sqrt-stable":
        cut = sqrt_stable_solve(inst, "auto" if args.auto or args.gamma is None
                                else float(args.gamma))
    elif args.algo == "warmup-2n":
        cut = warmup_2n_solve(inst)
    elif args.algo == "spanning-tree":
        reps = args.reps
        if reps is None:
            # with a known stability level, ceil(3 / bound) repetitions
            reps = (default_tree_repetitions(float(args.gamma), inst.n)
                    if args.gamma is not None else 32)
        verdicts["repetitions"] = reps
        cut = spanning_tree_solve(inst, seed=args.seed, repetitions=reps)
    elif args.algo == "gw":
        sol = gw_primal_solve(inst, seed=args.seed)
        ext = gw_dual_extract(inst, sol.gram)
        cut = gw_round(inst, sol.vectors, seed=args.seed, trials=args.trials).cut
        verdicts.update(converged=sol.converged, duality_gap=ext.gap,
                        psd_residual=ext.psd_residual, kkt_residual=ext.kkt_residual)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    report = {
        "algorithm": args.algo,
        "instance": args.instance,
        "n": inst.n,
        "cut": cut_to_json(cut),
        "weight": cut_weight(inst, cut),
        "oracle_weight": None,
        "matched_oracle": None,
        "wall_time_ms": elapsed_ms if args.timing else None,
        "seed": args.seed,
        "verdicts": verdicts,
    }
    if args.with_oracle:
        opt, opt_w, _ = oracle or brute_force_maxcut(inst)
        report["oracle_weight"] = opt_w
        report["matched_oracle"] = same_bipartition(cut, opt)
    if args.cut_out:
        save_cut(cut, args.cut_out)
    _emit(report, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# verify / certify / split
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    given = load_cut(args.cut) if args.cut else None
    if given is not None:
        check_cut(inst, given)  # a wrong-size cut fails here, before the max-cut scan
    opt, _, count = brute_force_maxcut(inst)
    cut = opt if given is None else given
    weight = cut_weight(inst, cut)
    gamma, alpha, cheeger = subset_scan_minima(inst.weights, cut.delta)
    if given is None and count > 1:
        gamma = 1.0  # the clamp of instance_stability: a tied optimum is only 1-stable
    _emit({
        "gamma": gamma,
        "gamma_local": local_stability_gamma(inst, cut),
        "alpha": alpha,
        "cheeger": cheeger,
        "is_unique_maxcut": count == 1,
        "cut": cut_to_json(cut),
        "cut_weight": weight,
    }, sys.stdout)
    return 0


def _cmd_certify(args) -> int:
    inst = load_instance(args.instance)
    cut = load_cut(args.cut)
    dist = distinguished_condition(inst, cut)
    bipolar = bipolarity_check(inst, cut, seed=args.seed)
    _emit({
        "psd_rank_certificate": psd_rank_certificate(bipolar.bundle),
        "eigenvalues": bipolar.bundle.eigenvalues,
        "gamma_local": dist.gamma_local,
        "alpha": dist.alpha,
        "cut_cheeger": dist.cut_cheeger,
        "alpha_threshold": dist.alpha_threshold,
        "cheeger_threshold": dist.cheeger_threshold,
        "meets_alpha_condition": dist.meets_alpha,
        "meets_cheeger_condition": dist.meets_cheeger,
        "bipolarity": bipolar.conditions,
        "bipolarity_agree": bipolar.agree,
        "relaxation_primal": bipolar.primal_value,
        "binary_value": bipolar.binary_value,
    }, sys.stdout)
    return 0


def _cmd_split(args) -> int:
    inst = load_instance(args.instance)
    normalized, scale = normalize_total_weight(inst)
    smap = split_instance(normalized)
    save_instance(smap.split, args.output)
    if args.map:
        with open(args.map, "w") as fh:
            _emit({"scale": scale, "multiplicity": smap.multiplicity, "pi": smap.pi}, fh)
    _emit({"input_n": inst.n, "split_n": smap.split.n, "scale": scale,
           "output": args.output, "map": args.map}, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench_acceptance(seed: int) -> dict:
    from . import acceptance
    results = acceptance.run_all(seed)
    rows = []
    for r in results:
        details = {k: v for k, v in r.details.items() if k != "seconds"}
        rows.append({"criterion": r.number, "name": r.name,
                     "passed": r.passed, "details": details})
    return {"suite": "acceptance", "seed": seed,
            "all_passed": all(r.passed for r in results), "criteria": rows}


def _bench_stability_sweep(seed: int) -> dict:
    rows = []
    n = 12
    for gamma_target in (2.0, 4.0, 8.0, 16.0, 32.0):
        per_solver = {"sqrt-stable": 0, "spanning-tree": 0, "dense-seeded": 0}
        runs = 10
        gammas = []
        for i in range(runs):
            planted = gen_stable_bipartite_noise(n, gamma_target, seed * 71 + i)
            inst = planted.instance
            opt, _, _ = brute_force_maxcut(inst)
            gammas.append(planted.claims["gamma"])
            try:
                per_solver["sqrt-stable"] += same_bipartition(
                    sqrt_stable_solve(inst, "auto"), opt)
            except StableCutError:
                pass
            per_solver["spanning-tree"] += same_bipartition(
                spanning_tree_solve(inst, seed=seed + i, repetitions=16), opt)
            try:
                per_solver["dense-seeded"] += same_bipartition(
                    dense_solve(inst, DenseSolverConfig(
                        m=16, seed=seed + i,
                        seed_cut=planted.planted_cut)), opt)
            except SolverFailure:
                pass
        rows.append({"gamma_target": gamma_target,
                     "oracle_gamma_min": min(gammas),
                     "sqrt_threshold": sqrt_stability_threshold(n),
                     "success": {k: f"{v}/{runs}" for k, v in per_solver.items()}})
    return {"suite": "stability-sweep", "seed": seed, "n": n, "rows": rows}


def _cmd_bench(args) -> int:
    # acceptance is imported here and in the suites, not at the top, so the
    # other commands never load it
    from . import acceptance
    seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
    if args.suite == "acceptance":
        doc = _bench_acceptance(seed)
    elif args.suite == "stability-sweep":
        doc = _bench_stability_sweep(seed)
    _emit(doc, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stablecut",
                                     description="MAXCUT solvers and certificates "
                                                 "for stable instances")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance family member")
    p.add_argument("family", choices=["planted-partition", "bipartite-noise", "euclidean",
                                      "tightness", "matching-eps", "stable-not-distinguished"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--p", type=float, default=0.9)
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--gamma", default="4")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--sep", type=float, default=4.0)
    p.add_argument("--pairs", type=int, default=2)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--sidecar")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="run a solver on an instance file")
    p.add_argument("instance")
    p.add_argument("--algo", required=True,
                   choices=["brute", "dense", "metric-dense", "ball", "sqrt-stable",
                            "warmup-2n", "spanning-tree", "gw"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--C", type=float)
    p.add_argument("--mode", default="enumerate",
                   help="dense modes: enumerate | seeded (needs --seed-cut) | random:K")
    p.add_argument("--seed-cut", help="cut file supplying true sides; only with --mode seeded")
    p.add_argument("--gamma")
    p.add_argument("--auto", action="store_true")
    p.add_argument("--reps", type=int, default=None,
                   help="spanning-tree repetitions; defaults to ceil(3/bound) when --gamma is given, else 32")
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--cut-out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="exact stability report (brute force)")
    p.add_argument("instance")
    p.add_argument("--cut")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", help="spectral certificate for an instance/cut pair")
    p.add_argument("instance")
    p.add_argument("cut")
    p.add_argument("--spectral", action="store_true", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("split", help="normalize and split a metric instance")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--map")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("bench", help="benchmark suites")
    p.add_argument("--suite", required=True,
                   choices=["acceptance", "stability-sweep"])
    p.add_argument("--seed", type=int, help="defaults to the acceptance battery's DEFAULT_SEED")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverFailure as exc:
        print(json.dumps({"error": str(exc), "kind": "solver-failure"}), file=sys.stderr)
        return 1
    except (StableCutError, OSError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
