"""Outside-in tracing of the stablecut layers.

The tracer replaces every public function of the layer modules with a
wrapper, at every ``stablecut.*`` namespace that binds it (the defining
module, the package root, ``cli`` and every other importer), so each call a
caller makes by name opens a span.  Nothing under ``src/`` changes.  Spans
(name, start, end, parent, operation) and counts derived from arguments and
return values stay in memory; the runner writes them out when it ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("cli", "instance", "generators", "oracle", "dense", "metric", "stable", "spectral")

# Spans kept for the trace file; aggregates and counts are always exact.
SPAN_CAP = 50_000

WITNESS_KINDS = ("heavy-incident-pair", "t1-incident-pair", "t2-pair", "common-neighbor-pair")


def _masks(n: int) -> int:
    return (1 << (n - 1)) - 1


def _count_hooks():
    """name -> hook(tracer, args, kwargs, result) adding counts for that call."""

    def maxcut(t, args, kwargs, result):
        t.add("oracle.masks", _masks(args[0].n))

    def subset_scan(t, args, kwargs, result):
        t.add("oracle.masks", _masks(args[0].shape[0]))

    def primal(t, args, kwargs, result):
        t.add("spectral.sweeps", result.sweeps)
        t.add("spectral.converged", int(result.converged))
        if t.active("spectral.bipolarity_check"):
            t.add("spectral.primal_in_bipolarity")

    def split(t, args, kwargs, result):
        t.peak("metric.split_n", result.split.n)

    def balls(t, args, kwargs, result):
        t.add("metric.balls", len(result))

    def pair(t, args, kwargs, result):
        t.add(f"stable.witness.{result.kind}")

    def merge(t, args, kwargs, result):
        if t.active("stable.sqrt_stable_solve") or t.active("stable.warmup_2n_solve"):
            t.add("stable.merge_rounds")

    def tree(t, args, kwargs, result):
        t.add("stable.tree_reps", kwargs.get("repetitions", args[2] if len(args) > 2 else 1))

    def score(t, args, kwargs, result):
        if t.active("dense.dense_solve"):
            t.add("dense.partitions", result.shape[1])

    def load(t, args, kwargs, result):
        t.add("instance.load_bytes", os.path.getsize(args[0]))

    return {
        "oracle.brute_force_maxcut": maxcut,
        "oracle.enumerate_locally_stable_cuts": maxcut,
        "oracle.subset_scan_minima": subset_scan,
        "spectral.gw_primal_solve": primal,
        "metric.split_instance": split,
        "metric.enumerate_balls": balls,
        "stable.find_same_side_pair_2n": pair,
        "stable.find_same_side_pair_sqrt": pair,
        "instance.merge_vertices": merge,
        "stable.spanning_tree_solve": tree,
        "dense.induced_side_matrix": score,
        "instance.load_instance": load,
    }


class Tracer:
    """Span stack, per-function aggregates and counts for one traced phase."""

    def __init__(self):
        self.hooks = _count_hooks()
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: list[list] = []  # [span index, name, start, child seconds]
        self.depth: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: dict = {}
        self.op_counts: Counter | None = None
        self.op_index = -1
        self.op_kind = ""
        self.kind_calls: Counter = Counter()

    # -- counts ----------------------------------------------------------

    def add(self, key: str, value: int = 1) -> None:
        self.counts[key] += value
        if self.op_counts is not None:
            self.op_counts[key] += value

    def peak(self, key: str, value: int) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0), value)

    def active(self, name: str) -> bool:
        return self.depth[name] > 0

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> list:
        idx = len(self.spans) + self.dropped
        frame = [idx, name, self.clock(), 0.0]
        self.stack.append(frame)
        self.depth[name] += 1
        return frame

    def _close(self, frame: list) -> float:
        end = self.clock()
        self.stack.pop()
        idx, name, start, child = frame
        self.depth[name] -= 1
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.calls[name] += 1
        self.incl[name] += dur
        self.self_s[name] += dur - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append((name, start - self.origin, end - self.origin,
                               parent[0] if parent is not None else -1, self.op_index))
        else:
            self.dropped += 1
        return dur

    def call(self, name: str, fn, args, kwargs):
        frame = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(frame)
        if self.op_counts is not None:
            self.op_counts["calls." + name] += 1
        self.kind_calls[(self.op_kind, name)] += 1
        hook = self.hooks.get(name)
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def begin_op(self, index: int, kind: str) -> list:
        self.op_index = index
        self.op_kind = kind
        self.op_counts = Counter()
        self.kind_calls[(kind, "op")] += 1
        return self._open("op:" + kind)

    def end_op(self, frame: list) -> dict:
        self._close(frame)
        counts, self.op_counts = dict(self.op_counts), None
        self.op_index = -1
        self.op_kind = ""
        return counts

    def span_dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "columns": ["name", "start_us", "end_us", "parent", "op"],
                "spans": [[ids[s[0]], round(s[1] * 1e6), round(s[2] * 1e6), s[3], s[4]]
                          for s in self.spans],
                "dropped": self.dropped}


def public_functions(package) -> dict:
    """'layer.func' -> function for every public function the layer modules define."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                found[f"{layer}.{attr}"] = value
    return found


class Installation:
    """Wrappers bound at every stablecut namespace; ``remove`` restores the originals."""

    def __init__(self, tracer: Tracer, package):
        self.replaced: list[tuple] = []
        originals = {id(fn): (name, fn) for name, fn in public_functions(package).items()}
        wrappers = {}
        prefix = package.__name__
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                name, fn = hit
                if name not in wrappers:
                    wrappers[name] = _wrap(tracer, name, fn)
                setattr(module, attr, wrappers[name])
                self.replaced.append((module, attr, fn))
        self.wrapped = sorted(wrappers)

    def remove(self) -> None:
        for module, attr, fn in self.replaced:
            setattr(module, attr, fn)
        self.replaced = []


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def _sum(table: Counter, names) -> float:
    return float(sum(table[n] for n in names))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, rounds: int) -> dict:
    """Per-layer metrics, per pass over the workload's pool (totals / rounds)."""
    r = float(rounds)
    c = t.counts
    incl, calls = t.incl, t.calls

    def per(x):
        return x / r

    def self_of(layer):
        return per(sum(v for k, v in t.self_s.items() if k.startswith(layer + ".")))

    scans = ("oracle.brute_force_maxcut", "oracle.subset_scan_minima",
             "oracle.enumerate_locally_stable_cuts")
    # per `stablecut verify` without --cut, which scans for the optimum twice today
    verify_ops = t.kind_calls[("cli-verify", "op")]
    verify_maxcut = t.kind_calls[("cli-verify", "oracle.brute_force_maxcut")]
    pair_finders = ("stable.find_same_side_pair_2n", "stable.find_same_side_pair_sqrt")
    merge_solvers = ("stable.sqrt_stable_solve", "stable.warmup_2n_solve")
    split_n = t.peaks.get("metric.split_n", 0)

    m = {
        "oracle.maxcut_calls": (per(calls["oracle.brute_force_maxcut"]), "count"),
        "oracle.maxcut_s": (per(incl["oracle.brute_force_maxcut"]), "s"),
        "oracle.subset_scan_calls": (per(calls["oracle.subset_scan_minima"]), "count"),
        "oracle.subset_scan_s": (per(incl["oracle.subset_scan_minima"]), "s"),
        "oracle.enum_s": (per(incl["oracle.enumerate_locally_stable_cuts"]), "s"),
        "oracle.masks": (per(c["oracle.masks"]), "count"),
        "oracle.s_per_Mmask": (_ratio(_sum(incl, scans), c["oracle.masks"] / 2**20), "s"),
        "oracle.maxcut_per_verify": (_ratio(verify_maxcut, verify_ops), "count"),
        "oracle.self_s": (self_of("oracle"), "s"),
        "spectral.primal_calls": (per(calls["spectral.gw_primal_solve"]), "count"),
        "spectral.primal_s": (per(incl["spectral.gw_primal_solve"]), "s"),
        "spectral.sweeps": (per(c["spectral.sweeps"]), "count"),
        "spectral.s_per_sweep": (_ratio(incl["spectral.gw_primal_solve"], c["spectral.sweeps"]), "s"),
        "spectral.converged_frac": (_ratio(c["spectral.converged"],
                                           calls["spectral.gw_primal_solve"]), "frac"),
        "spectral.primal_in_bipolarity": (per(c["spectral.primal_in_bipolarity"]), "count"),
        "spectral.bipolarity_s": (per(incl["spectral.bipolarity_check"]), "s"),
        "spectral.dual_s": (per(incl["spectral.gw_dual_extract"]), "s"),
        "spectral.round_s": (per(incl["spectral.gw_round"]), "s"),
        "spectral.certificate_s": (per(_sum(incl, ("spectral.build_spectral_bundle",
                                                   "spectral.psd_rank_certificate"))), "s"),
        "spectral.self_s": (self_of("spectral"), "s"),
        "metric.split_s": (per(incl["metric.split_instance"]), "s"),
        "metric.split_n": (float(split_n), "count"),
        "metric.split_bytes_computed": (8.0 * split_n * split_n, "B"),
        "metric.dense_solve_s": (per(incl["metric.metric_dense_solve"]), "s"),
        "metric.ball_s": (per(incl["metric.ball_enumeration_solve"]), "s"),
        "metric.balls": (per(c["metric.balls"]), "count"),
        "metric.self_s": (self_of("metric"), "s"),
        "stable.pair_finder_calls": (per(_sum(calls, pair_finders)), "count"),
        "stable.pair_finder_s": (per(_sum(incl, pair_finders)), "s"),
        "stable.merge_rounds": (per(c["stable.merge_rounds"]), "count"),
        "stable.s_per_merge_round": (_ratio(_sum(incl, merge_solvers), c["stable.merge_rounds"]), "s"),
        **{f"stable.witness.{k}": (per(c[f"stable.witness.{k}"]), "count") for k in WITNESS_KINDS},
        "stable.tree_reps": (per(c["stable.tree_reps"]), "count"),
        "stable.s_per_tree_rep": (_ratio(incl["stable.spanning_tree_solve"], c["stable.tree_reps"]), "s"),
        "stable.self_s": (self_of("stable"), "s"),
        "dense.solve_calls": (per(calls["dense.dense_solve"]), "count"),
        "dense.solve_s": (per(incl["dense.dense_solve"]), "s"),
        "dense.partitions": (per(c["dense.partitions"]), "count"),
        "dense.s_per_kpartition": (_ratio(incl["dense.dense_solve"], c["dense.partitions"] / 1000.0), "s"),
        "dense.self_s": (self_of("dense"), "s"),
        "instance.load_s": (per(incl["instance.load_instance"]), "s"),
        "instance.load_bytes": (per(c["instance.load_bytes"]), "B"),
        "instance.merge_s": (per(incl["instance.merge_vertices"]), "s"),
        "instance.self_s": (self_of("instance"), "s"),
        "cli.calls": (per(calls["cli.main"]), "count"),
        "cli.self_s": (per(t.self_s["cli.main"]), "s"),
        "trace.spans": (per(sum(calls.values())), "count"),
    }
    return m


def generator_metrics(t: Tracer) -> dict:
    gens = [k for k in t.calls if k.startswith("generators.gen_")]
    return {"generators.gen_s": (_sum(t.incl, gens), "s"),
            "generators.instances": (_sum(t.calls, gens), "count")}
