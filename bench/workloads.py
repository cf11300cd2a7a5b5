"""The three workloads: seeded instance pools, their operations and their checks.

A workload is a list of tasks.  A task owns one generated instance file and
the operations run on it, in order; an operation is one in-process
``stablecut.cli.main([...])`` call with stdout captured and parsed, or one
library call on an ``Instance`` built before timing starts.  Later operations
of a task may use the output of earlier ones (the cut a solver returned)
through the task's per-execution ``state``.

A workload function writes the instance files; that is what ``setup_s``
times.  ``Task.prepare`` computes the references with ``reference`` (never
through the package) and writes any cut files the operations read; it is
untimed.  Each operation's ``judge(output, outputs)`` compares one output
with the references and returns (category, passed) pairs: "exact" for
deterministic guarantees and relaxation checks, "recovered" for randomized
solvers, "info" for outputs that no guarantee covers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

INF = math.inf


class OpFailed(Exception):
    """A CLI call exited non-zero."""


@dataclass
class CliOutput:
    text: str
    doc: dict


def cli_call(sc, argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sc.cli.main(argv)
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    text = out.getvalue()
    return CliOutput(text, json.loads(text))


@dataclass
class Op:
    """``run(state)`` performs the operation; ``judge(output, outputs)`` checks it,
    where ``outputs`` maps each op kind of the task to that op's output."""

    kind: str
    run: Callable[[dict], object]
    judge: Callable[[object, dict], list]


@dataclass
class Task:
    name: str
    path: str
    weights: np.ndarray
    ops: list = field(default_factory=list)
    refs: dict = field(default_factory=dict)
    references: Callable[[], None] = lambda: None
    inst: object = None  # the Instance library calls receive, built by prepare

    def prepare(self, sc) -> None:
        self.inst = sc.Instance(self.weights)
        self.references()


def _write(sc, inst, path: str) -> np.ndarray:
    sc.save_instance(inst, path)
    return np.array(inst.weights)


def _same_side(a, b) -> bool:
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    return a.shape == b.shape and (np.array_equal(a, b) or np.array_equal(a, ~b))


def _seeds(rng, k: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


# ---------------------------------------------------------------------------
# oracle-exact
# ---------------------------------------------------------------------------

ENUM_GAMMA = 1.1


def _oracle_task(sc, workdir: str, name: str, inst, cut_side, kinds: tuple) -> Task:
    path = os.path.join(workdir, name + ".json")
    W = _write(sc, inst, path)
    task = Task(name, path, W)
    cut_path = os.path.join(workdir, name + ".cut.json")
    sc.save_cut(sc.Cut(cut_side), cut_path)
    cut_side = np.asarray(cut_side, dtype=bool)
    r = task.refs

    def references():
        best = ref.maxcut(W)
        r["opt"] = best
        r["opt_minima"] = ref.subset_minima(W, best["side"])
        r["opt_local"] = ref.local_gamma(W, best["side"])
        if "cli-verify-cut" in kinds:
            r["cut_minima"] = ref.subset_minima(W, cut_side)
            r["cut_local"] = ref.local_gamma(W, cut_side)
            r["cut_weight"] = ref.cut_weight(W, cut_side)
        if "lib-enumerate" in kinds:
            r["enum"] = ref.locally_stable_masks(W, ENUM_GAMMA).tolist()
    task.references = references

    def judge_verify(out, outs):
        d = out.doc
        opt = r["opt"]
        unique = opt["count"] == 1
        g_raw, alpha, cheeger = r["opt_minima"]
        # the CLI writes infinities as the string "inf", which float() reads back
        gamma, gl, a, h = float(d["gamma"]), float(d["gamma_local"]), float(d["alpha"]), float(d["cheeger"])
        ok = (d["cut"]["side"] == opt["side"].astype(int).tolist()
              and ref.close(d["cut_weight"], opt["weight"])
              and d["is_unique_maxcut"] == unique
              and ref.close(gamma, g_raw if unique else 1.0)
              and ref.close(gl, r["opt_local"]) and ref.close(a, alpha) and ref.close(h, cheeger))
        # criterion-1 invariants on the reported values
        ok = ok and ref.le(gamma, gl) and ref.le(a, h)
        if d["is_unique_maxcut"]:
            ok = ok and (ref.le((1 + a) / (1 - a), gamma) if a < 1 else gamma == INF)
            ok = ok and gamma >= 1 - 1e-9
        else:
            ok = ok and gamma <= 1 + 1e-9
        return [("exact", ok)]

    def judge_verify_cut(out, outs):
        d = out.doc
        g_raw, alpha, cheeger = r["cut_minima"]
        gamma, gl, a, h = float(d["gamma"]), float(d["gamma_local"]), float(d["alpha"]), float(d["cheeger"])
        ok = (d["cut"]["side"] == cut_side.astype(int).tolist()
              and ref.close(d["cut_weight"], r["cut_weight"])
              and d["is_unique_maxcut"] == (r["opt"]["count"] == 1)
              and ref.close(gamma, g_raw) and ref.close(gl, r["cut_local"])
              and ref.close(a, alpha) and ref.close(h, cheeger))
        # the criterion-1 relations that hold at any cut
        ok = ok and ref.le(gamma, gl) and ref.le(a, h)
        if 0 <= a < 1:
            ok = ok and ref.le((1 + a) / (1 - a), gamma)
        elif a >= 1:
            ok = ok and gamma == INF
        return [("exact", ok)]

    def judge_brute(out, outs):
        d = out.doc
        opt = r["opt"]
        ok = (d["cut"]["side"] == opt["side"].astype(int).tolist()
              and ref.close(d["weight"], opt["weight"])
              and d["verdicts"]["optimal_count"] == opt["count"])
        return [("exact", ok)]

    def judge_enum(out, outs):
        return [("exact", [ref.mask_of(c.side) for c in out] == r["enum"])]

    def judge_cheeger(out, outs):
        return [("exact", ref.close(out, r["opt_minima"][2]))]

    table = {
        "cli-verify": (lambda s: cli_call(sc, ["verify", path]), judge_verify),
        "cli-verify-cut": (lambda s: cli_call(sc, ["verify", path, "--cut", cut_path]),
                           judge_verify_cut),
        "cli-brute": (lambda s: cli_call(sc, ["solve", path, "--algo", "brute"]), judge_brute),
        "lib-enumerate": (lambda s: sc.enumerate_locally_stable_cuts(task.inst, ENUM_GAMMA),
                          judge_enum),
        "lib-cheeger": (lambda s: sc.cheeger_constant(task.inst), judge_cheeger),
    }
    task.ops = [Op(k, *table[k]) for k in kinds]
    return task


def oracle_exact(sc, seed: int, workdir: str) -> list[Task]:
    """Planted-partition (q > 0), Euclidean and matching-eps at n = 18.

    No generator here runs the subset oracle, so set-up stays free of oracle
    work.  Every scan visits 2^(n-1) masks whatever the weights, so the cost
    of a pass barely depends on the seed.  n = 18 keeps single operations
    near 0.1 s, short enough for a run to time each one many times.
    """
    rng = np.random.default_rng([seed, 1])
    n = 18
    kinds = ("cli-verify", "cli-verify-cut", "cli-brute", "lib-enumerate", "lib-cheeger")
    by_family = []
    for family in ("pp", "eu", "me"):
        tasks = []
        for k in range(2):
            s = int(rng.integers(0, 2**31 - 1))
            if family == "pp":
                planted = sc.gen_planted_partition(n, 0.9, float(rng.uniform(0.1, 0.3)), s)
                inst, side = planted.instance, planted.planted_cut.side
            elif family == "eu":
                planted = sc.gen_euclidean_metric(n, 1 + k % 3, float(rng.uniform(1.0, 4.0)), s)
                inst, side = planted.instance, planted.planted_cut.side
            else:
                inst = sc.gen_matching_epsilon(n // 2, float(rng.uniform(0.02, 0.3)))
                side = np.repeat(rng.integers(0, 2, size=n // 2).astype(bool), 2)
                side[1::2] = ~side[1::2]  # every matched pair separated
            tasks.append(_oracle_task(sc, workdir, f"{family}{k}", inst, side, kinds))
        by_family.append(tasks)
    # interleave the families so each stretch of a pass mixes their scans
    return [t for group in zip(*by_family) for t in group]


# ---------------------------------------------------------------------------
# solve-poly
# ---------------------------------------------------------------------------

BOUND = object()  # argv placeholder for the proven stability level of the instance


def _solve_ops(sc, task: Task, algo: str, args: list, category: str) -> list[Op]:
    """One solve, then one PSD certificate and one local_stability_gamma on its cut."""
    W = task.weights

    def run(state):
        argv = [repr(task.refs["screen"]) if a is BOUND else a for a in args]
        out = cli_call(sc, ["solve", task.path, "--algo", algo, *argv])
        state["cut"] = out.doc["cut"]["side"]
        return out

    def judge(out, outs):
        opt = task.refs.get("opt")
        kind = category
        if algo == "ball" and not task.refs.get("ball_guaranteed"):
            kind = "info"
        return [(kind, opt is not None and _same_side(out.doc["cut"]["side"], opt))]

    def cert(state):
        cut = sc.Cut(state["cut"])
        return cut.side, sc.psd_rank_certificate(sc.build_spectral_bundle(task.inst, cut))

    def gamma(state):
        cut = sc.Cut(state["cut"])
        return cut.side, sc.local_stability_gamma(task.inst, cut)

    suffix = "-enum" if "enumerate" in args else ""
    return [Op(f"cli-solve-{algo}{suffix}", run, judge),
            Op("lib-certificate", cert,
               lambda out, outs: [("exact", out[1] == ref.psd_verdict(W, out[0]))]),
            Op("lib-local-gamma", gamma,
               lambda out, outs: [("exact", ref.close(out[1], ref.local_gamma(W, out[0])))])]


def _screen(task: Task, needs: float):
    """Precondition screen: prove the planted cut stable enough for the solver."""
    def references():
        bound = ref.balanced_stability_bound(task.weights, task.refs["planted"])
        task.refs["screen"] = bound
        # a gamma-stable cut with gamma > 1 is the unique maximum cut
        if bound > needs:
            task.refs["opt"] = task.refs["planted"]
    return references


def _psd_proof(task: Task):
    """Euclidean instances: the planted split is optimal when W + D' is PSD of rank n-1."""
    def references():
        side = task.refs["planted"]
        if ref.proves_unique_optimum(task.weights, side):
            task.refs["opt"] = side
            task.refs["ball_guaranteed"] = ref.local_gamma(task.weights, side) > 3.0
    return references


def solve_poly(sc, seed: int, workdir: str) -> list[Task]:
    """Bipartite-noise at n = 64 and 200 and Euclidean (separation 10) at n = 24 and 40.

    Noise targets leave a wide margin over each solver's precondition; the
    screen proves the margin for every instance, so a decline or a wrong cut
    counts as a failure, never as behaviour outside the precondition.
    """
    rng = np.random.default_rng([seed, 2])

    def task_for(name, planted):
        path = os.path.join(workdir, name + ".json")
        task = Task(name, path, _write(sc, planted.instance, path))
        task.refs["planted"] = np.array(planted.planted_cut.side)
        return task

    order = []
    for n, n_eu in ((64, 24), (200, 40)):
        s_a, s_b, s_eu, solver_a, solver_b, solver_eu = _seeds(rng, 6)
        # (gamma_target / 2) is roughly the level the screen proves
        a = task_for(f"bn{n}a", sc.gen_stable_bipartite_noise(n, 4.0 * ref.sqrt_threshold(n), s_a))
        a.references = _screen(a, ref.sqrt_threshold(n))
        a.ops = [*_solve_ops(sc, a, "sqrt-stable", ["--auto"], "exact"),
                 *_solve_ops(sc, a, "dense", ["--mode", "random:1024", "--m", "8",
                                              "--seed", str(solver_a)], "recovered"),
                 *_solve_ops(sc, a, "gw", ["--seed", str(solver_a)], "recovered")]
        b = task_for(f"bn{n}b", sc.gen_stable_bipartite_noise(n, 6.0 * n, s_b))
        b.references = _screen(b, 2.0 * n)
        b.ops = [*_solve_ops(sc, b, "warmup-2n", [], "exact"),
                 # --gamma sets ceil(3 / success bound) repetitions
                 *_solve_ops(sc, b, "spanning-tree", ["--gamma", BOUND, "--seed", str(solver_b)],
                             "recovered"),
                 *_solve_ops(sc, b, "dense", ["--mode", "enumerate", "--m", "10",
                                              "--seed", str(solver_b)], "recovered")]
        eu = task_for(f"eu{n_eu}", sc.gen_euclidean_metric(n_eu, 1 + n_eu % 3, 10.0, s_eu))
        eu.references = _psd_proof(eu)
        eu.ops = [*_solve_ops(sc, eu, "metric-dense", ["--mode", "enumerate", "--m", "8",
                                                       "--seed", str(solver_eu)], "recovered"),
                  *_solve_ops(sc, eu, "ball", [], "exact")]
        order += [a, b, eu]
    return order


# ---------------------------------------------------------------------------
# relax-battery
# ---------------------------------------------------------------------------


def relax_battery(sc, seed: int, workdir: str, count: int = 24) -> list[Task]:
    """A criterion-9 style pool at n <= 16 cycling six families.

    Stable-not-distinguished needs hundreds of relaxation sweeps per solve and
    sets the tail; matching-eps has many optima, so its bipolarity verdicts
    are not judged (the four-way equivalence presumes a unique maximum cut).
    """
    rng = np.random.default_rng([seed, 3])
    tasks = []
    for i in range(count):
        s, solver, solver2 = _seeds(rng, 3)
        kind, slot = i % 6, (i // 6) % 4
        if kind == 0:
            inst = sc.gen_stable_bipartite_noise((6, 10, 14, 16)[slot],
                                                 (2.0, 8.0, 20.0, INF)[slot], s).instance
        elif kind == 1:
            inst = sc.gen_planted_partition((6, 10, 14, 16)[slot], 0.9, 0.2, s).instance
        elif kind == 2:
            inst = sc.gen_euclidean_metric((4, 8, 12, 16)[slot], 1 + slot % 3,
                                           (2.0, 10.0)[slot % 2], s).instance
        elif kind == 3:
            inst = sc.gen_matching_epsilon((3, 5, 7, 8)[slot], float(rng.uniform(1e-3, 0.3)))
        elif kind == 4:
            inst = sc.gen_infinite_stable_not_distinguished((4, 6, 7, 8)[slot], 1e-3).instance
        else:
            inst = sc.gen_tightness_example((2, 3, 4, 2)[slot]).instance
        name = f"r{i:02d}"
        path = os.path.join(workdir, name + ".json")
        task = Task(name, path, _write(sc, inst, path))
        _relax_ops(sc, task, os.path.join(workdir, name + ".cut.json"), solver, solver2)
        tasks.append(task)
    return tasks


def _relax_ops(sc, task: Task, cut_path: str, solver: int, solver2: int) -> None:
    W = task.weights
    scale = ref.weight_scale(W)
    r = task.refs

    def references():
        best = ref.maxcut(W)
        r["opt"] = best
        sc.save_cut(sc.Cut(best["side"]), cut_path)
        side = best["side"]
        d = np.where(side, 1.0, -1.0)
        r["verdict"] = ref.psd_verdict(W, side)
        r["local"] = ref.local_gamma(W, side)
        r["alpha"] = ref.subset_minima(W, side)[1]
        r["cut_cheeger"] = ref.subset_minima(W * (d[:, None] * d[None, :] < 0))[2]
        r["binary"] = float(d @ W @ d)
    task.references = references

    def judge_gw(out, outs):
        v = out.doc["verdicts"]
        gap_ok = bool(v["converged"]) and float(v["duality_gap"]) < 1e-6 * scale
        return [("exact", gap_ok), ("recovered", ref.close(out.doc["weight"], r["opt"]["weight"]))]

    def judge_certify(out, outs):
        d = out.doc
        ok = (d["psd_rank_certificate"] == r["verdict"]
              and ref.close(float(d["gamma_local"]), r["local"])
              and ref.close(float(d["alpha"]), r["alpha"])
              and ref.close(float(d["cut_cheeger"]), r["cut_cheeger"])
              and ref.close(d["binary_value"], r["binary"]))
        if r["opt"]["count"] == 1 and not d["bipolarity_agree"]:
            # criterion 9 escalates every tolerance before it calls a disagreement
            cut = sc.Cut(r["opt"]["side"])
            ok = ok and any(sc.bipolarity_check(task.inst, cut, seed=solver, tol_scale=t).agree
                            for t in (10.0, 100.0))
        return [("exact", ok)]

    def other_seed(outs):
        """The relaxation value the certify run's solve (another seed) reached, if it ran."""
        certify = outs.get("cli-certify")
        return None if certify is None else certify.doc["relaxation_primal"]

    def judge_primal(out, outs):
        own = float((out.gram * W).sum())
        other = other_seed(outs)
        ok = (out.converged and abs(own - out.primal_value) <= 1e-9 * scale
              and (other is None or abs(out.primal_value - other) <= 1e-6 * scale))
        return [("exact", bool(ok))]

    def judge_dual(out, outs):
        P = outs["lib-gw-primal"].gram
        lam = float(np.linalg.eigvalsh(W - np.diag(out.diag_values))[0])
        ok = (np.abs(np.diagonal(P @ W) - out.diag_values).max() <= 1e-9 * scale
              and out.gap < 1e-6 * scale and lam >= -1e-6 * scale)
        # a feasible dual of this seed certifies the relaxation value of the other seed
        other = other_seed(outs)
        ok = ok and (other is None or abs(float(out.diag_values.sum()) - other) <= 1e-6 * scale)
        return [("exact", bool(ok))]

    def primal(state):
        state["sol"] = sc.gw_primal_solve(task.inst, seed=solver2, max_sweeps=20_000)
        return state["sol"]

    task.ops = [
        Op("cli-solve-gw", lambda s: cli_call(sc, ["solve", task.path, "--algo", "gw",
                                                    "--seed", str(solver)]), judge_gw),
        Op("cli-certify", lambda s: cli_call(sc, ["certify", task.path, cut_path, "--spectral",
                                                   "--seed", str(solver)]), judge_certify),
        Op("lib-gw-primal", primal, judge_primal),
        Op("lib-gw-dual", lambda s: sc.gw_dual_extract(task.inst, s["sol"].gram), judge_dual),
    ]


# name -> (pool function, minimum operations per timed phase).  The minimum fixes
# the tail percentile (see run.tail_percentile) whatever the program's speed.
WORKLOADS = {
    "oracle-exact": (oracle_exact, 240),
    "solve-poly": (solve_poly, 1000),
    "relax-battery": (relax_battery, 1000),
}
