"""stablecut benchmark: one workload, closed loop, checked outputs.

    python3 bench/run.py --workload oracle-exact --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout and nowhere else; without it the run exits with status 2.

One caller issues one operation at a time.  After set-up, references are
computed with the benchmark's own code, one warm-up pass covers every
operation kind, and the timed phase runs whole passes over the pool until
``--seconds`` have elapsed and the workload's minimum number of operations is
reached.  Every output is checked against its reference after timing, and
every repeat of an operation must produce the same bytes.  A run is correct
only if no operation failed.  Set-up is repeated after each timed pass,
untimed as far as the operations go, and ``setup_s`` is the fastest.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the pool, reports the per-layer metrics and
the tracing overhead, and requires byte-identical outputs from both.  The
last stdout line is the JSON result; a fuller report, with the spans of a
traced run, is written to ``.bench_out/``.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread (at most nproc) keeps the closed
# loop's timings and the relaxation's reduction order steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CliOutput  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
MIN_ROUNDS = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
clock = time.perf_counter


def tail_percentile(min_ops: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it in every run.

    Every run times at least ``min_ops`` operations, so the percentile is a
    property of the workload, not of the program's speed.
    """
    return max(p for p in TAIL_LADDER if min_ops * (100.0 - p) / 100.0 >= 10.0 - 1e-9)


def canon(x) -> bytes:
    """Canonical bytes of an operation's output, for the byte-identity checks."""
    if isinstance(x, CliOutput):
        return x.text.encode()
    if isinstance(x, np.ndarray):
        return b"A" + str(x.dtype).encode() + repr(x.shape).encode() + x.tobytes()
    if isinstance(x, (bool, int, str, type(None), np.bool_, np.integer)):
        return repr(x).encode()
    if isinstance(x, (float, np.floating)):
        return float(x).hex().encode()
    if isinstance(x, (list, tuple)):
        return b"[" + b",".join(canon(v) for v in x) + b"]"
    if dataclasses.is_dataclass(x):
        return type(x).__name__.encode() + canon([getattr(x, f.name) for f in dataclasses.fields(x)])
    if hasattr(x, "side"):  # stablecut.Cut
        return b"Cut" + canon(x.side)
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x) -> str:
    return hashlib.sha256(canon(x)).hexdigest()


def package_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "stablecut" or k.startswith("stablecut.")}


def fresh_import():
    """Import stablecut (and its CLI) from this checkout's src/, dropping any earlier import."""
    for name in package_modules():
        del sys.modules[name]
    sc = importlib.import_module("stablecut")
    importlib.import_module("stablecut.cli")
    if Path(sc.__file__).resolve().parent != ROOT / "src" / "stablecut":
        raise ImportError(f"stablecut imported from {sc.__file__}, not from this checkout")
    return sc


def files_digest(workdir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(workdir.iterdir()):
        h.update(p.name.encode() + p.read_bytes())
    return h.hexdigest()


class Phase:
    """Latencies, output digests and failures of one run over the pool."""

    def __init__(self):
        self.latencies: list[float] = []
        self.digests: dict = {}  # (task, op) -> list of digests, one per execution
        self.first: dict = {}  # (task, op) -> first output
        self.errors: dict = {}  # (task, op) -> first error text
        self.failed = 0
        self.rounds = 0
        self.wall = 0.0
        self.op_counts: dict = {}  # (task, op) -> list of per-execution count dicts

    @property
    def ops(self) -> int:
        return len(self.latencies)


def run_pass(tasks, phase: Phase, tracer=None, kinds=None) -> None:
    """One pass over the pool (or, with ``kinds``, over the tasks that hold one of them)."""
    for ti, task in enumerate(tasks):
        if kinds is not None and not kinds & {op.kind for op in task.ops}:
            continue
        state: dict = {}
        for oi, op in enumerate(task.ops):
            key = (ti, oi)
            frame = tracer.begin_op(ti * 100 + oi, op.kind) if tracer else None
            t0 = clock()
            try:
                out, err = op.run(state), None
            except Exception as exc:  # an operation that raises is a counted failure
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            if tracer:
                phase.op_counts.setdefault(key, []).append(tracer.end_op(frame))
            phase.latencies.append(t1 - t0)
            if err is not None:
                phase.failed += 1
                phase.errors.setdefault(key, err)
                continue
            phase.digests.setdefault(key, []).append(digest(out))
            phase.first.setdefault(key, out)
        if kinds is not None:
            kinds -= {op.kind for op in task.ops}
            if not kinds:
                return


def timed(tasks, seconds: float, min_ops: int, between) -> Phase:
    """Whole passes until the stop rule holds; ``between()`` runs after each pass, untimed."""
    phase = Phase()
    start = clock()
    while True:
        run_pass(tasks, phase)
        phase.rounds += 1
        between()
        phase.wall = clock() - start
        if phase.wall >= seconds and phase.ops >= min_ops and phase.rounds >= MIN_ROUNDS:
            return phase


def alternating(tasks, seconds: float, sc, tracer) -> tuple[Phase, Phase, list]:
    """Untraced and traced passes in turn until ``seconds`` have elapsed.

    Alternating passes see the same spells of host speed, so the difference
    between the two phases is the tracing overhead.  Returns (untraced,
    traced, names of the wrapped functions).
    """
    untraced, traced = Phase(), Phase()
    start = clock()
    while untraced.rounds < MIN_ROUNDS or clock() - start < seconds:
        run_pass(tasks, untraced)
        untraced.rounds += 1
        installed = tracing.Installation(tracer, sc)
        try:
            run_pass(tasks, traced, tracer)
        finally:
            installed.remove()
        traced.rounds += 1
    untraced.wall = traced.wall = clock() - start
    return untraced, traced, installed.wrapped


def judge(tasks, phase: Phase) -> dict:
    """Check the first output of every operation against its reference."""
    tally = {"exact": [0, 0], "recovered": [0, 0], "info": [0, 0]}
    mismatches = []
    for ti, task in enumerate(tasks):
        outs: dict = {}
        for oi, op in enumerate(task.ops):
            out = phase.first.get((ti, oi))
            if out is None:
                mismatches.append(f"{task.name}/{op.kind}: no output, every execution failed")
                continue
            outs[op.kind] = out
            try:
                verdicts = op.judge(out, outs)
            except Exception as exc:  # a check that cannot run counts as a mismatch
                verdicts = [("exact", False)]
                mismatches.append(f"{task.name}/{op.kind}: check raised {type(exc).__name__}: {exc}")
            for category, ok in verdicts:
                tally[category][0] += bool(ok)
                tally[category][1] += 1
                if not ok and category != "info":
                    mismatches.append(f"{task.name}/{op.kind}: {category} output differs from reference")
    return {"tally": tally, "mismatches": mismatches}


def unstable_outputs(phases, tasks) -> list[str]:
    """Operations whose outputs differ between executions (across the given phases)."""
    seen: dict = {}
    for phase in phases:
        for key, ds in phase.digests.items():
            seen.setdefault(key, set()).update(ds)
    return [f"{tasks[ti].name}/{tasks[ti].ops[oi].kind}" for (ti, oi), ds in seen.items() if len(ds) > 1]


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"seed": seed, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def setup(name: str, seed: int, workdir: Path, tracer=None):
    """Import the package afresh and write the workload's instances into ``workdir``.

    Returns (package, tasks, seconds taken, digest of the files written).  With
    a tracer, the generation is traced and the time is not meaningful.
    """
    make_pool, _ = workloads.WORKLOADS[name]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = clock()
    sc = fresh_import()
    if tracer is None:
        tasks = make_pool(sc, seed, str(workdir))
    else:
        installed = tracing.Installation(tracer, sc)
        try:
            tasks = make_pool(sc, seed, str(workdir))
        finally:
            installed.remove()
    return sc, tasks, clock() - t0, files_digest(workdir)


def spread_setups(name: str, seed: int, workdir: Path, times: list, digests: set):
    """A ``between`` hook: one more set-up after each pass, up to SETUP_REPEATS in all.

    The host's speed drifts in spells of seconds, so set-ups spread over the
    timed phase find its fast spells where back-to-back ones would not.  Each
    writes into ``workdir`` and its tasks are discarded; the package modules
    the operations run on are put back in ``sys.modules`` afterwards.
    """
    def between():
        if len(times) >= SETUP_REPEATS:
            return
        ours = package_modules()
        _, _, t, d = setup(name, seed, workdir)
        times.append(t)
        digests.add(d)
        for k in package_modules():
            del sys.modules[k]
        sys.modules.update(ours)
    return between


def measure(args) -> dict:
    name = args.workload
    _, min_ops = workloads.WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    gen_tracer = tracing.Tracer() if args.trace else None
    try:
        sc, tasks, setup_s, files = setup(name, args.seed, workdir / "pool", gen_tracer)
        setup_times, digests = [setup_s], {files}
        for task in tasks:
            task.prepare(sc)
        warm = Phase()
        run_pass(tasks, warm, kinds={op.kind for t in tasks for op in t.ops})
        report = {"workload": name, "environment": environment(args.seed),
                  "pool": {"tasks": len(tasks), "ops_per_pass": sum(len(t.ops) for t in tasks),
                           "kinds": sorted({op.kind for t in tasks for op in t.ops})}}
        if not args.trace:
            more_setups = spread_setups(name, args.seed, workdir / "setup", setup_times, digests)
            final = timed(tasks, args.seconds, min_ops, more_setups)
            while len(setup_times) < SETUP_REPEATS:
                more_setups()
            phases = [warm, final]
        else:
            tracer = tracing.Tracer()
            untraced, final, wrapped = alternating(tasks, args.seconds, sc, tracer)
            phases = [warm, untraced, final]
            report["trace"] = {"wrapped": wrapped, "counts": count_repeats(final),
                               "spans": tracer.span_dump()}
        checks = judge(tasks, final)
        unstable = unstable_outputs(phases, tasks)
        failed = sum(p.failed for p in phases[1:])
        attempted = sum(p.ops for p in phases[1:])
        if args.trace:
            result = per_layer(tracer, gen_tracer, untraced, final)
        else:
            result = end_to_end(final, setup_times, min_ops, checks["tally"], failed, attempted)
        exact_ok, exact_n = checks["tally"]["exact"]
        same_files = len(digests) == 1
        correct = exact_ok == exact_n and failed == 0 and not unstable and same_files
        report.update(correct=bool(correct), attempted=attempted, failed=failed,
                      checks=checks, unstable_outputs=unstable,
                      errors={f"{tasks[ti].name}/{tasks[ti].ops[oi].kind}": e
                              for p in phases for (ti, oi), e in p.errors.items()},
                      setup_files_identical=same_files, rounds=final.rounds,
                      timed_ops=final.ops, timed_wall_s=final.wall, min_ops=min_ops,
                      metrics=result["metrics"], notes=result["notes"],
                      latencies_s=final.latencies)
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def typical_latencies(phase: Phase) -> np.ndarray:
    """Each operation's fastest latency over the passes, one value per operation.

    Every pass runs the same operations on the same inputs in the same order,
    so an operation's work does not change between passes; what does change
    is the time other tenants of a shared host take from it, in spells of
    seconds that can cover most of a run.  Only the fastest execution stays
    steady through them (the median over passes does not; see README.md).
    """
    return np.array(phase.latencies).reshape(phase.rounds, -1).min(axis=0)


def end_to_end(phase: Phase, setup_times, min_ops: int, tally: dict, failed: int,
               attempted: int) -> dict:
    typical_ms = typical_latencies(phase) * 1000.0
    p = tail_percentile(min_ops)
    # each operation's fastest time counts once per pass, as its executions did
    tail = float(np.percentile(np.tile(typical_ms, phase.rounds), p))
    (ex_ok, ex_n), (rc_ok, rc_n) = tally["exact"], tally["recovered"]
    return {"metrics": {
        "setup_s": (min(setup_times), "s"),
        "ops_per_s": ((phase.ops - phase.failed) / (phase.rounds * typical_ms.sum()) * 1000.0, "1/s"),
        "op_ms_p50": (float(np.percentile(typical_ms, 50.0)), "ms"),
        "op_ms_tail": (tail, "ms"),
        "exact_frac": (ex_ok / ex_n if ex_n else 1.0, "frac"),
        # vacuously 1 on a workload that runs no randomized solver
        "recovered_frac": (rc_ok / rc_n if rc_n else 1.0, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (failed / attempted, "frac"),
    }, "notes": {
        "ops_per_s": f"each operation timed by its fastest of {phase.rounds} passes",
        "op_ms_p50": f"median over the {typical_ms.size} operations of a pass, each its fastest",
        "op_ms_tail": (f"p{p:g} of {phase.ops} executions, each timed by its operation's "
                       f"fastest; {int((typical_ms > tail).sum())} of the {typical_ms.size} "
                       f"operations of a pass lie beyond it"),
        "setup_s": f"fastest of {len(setup_times)}: {[round(t, 4) for t in setup_times]}",
        "exact_frac": f"{ex_ok}/{ex_n}",
        "recovered_frac": f"{rc_ok}/{rc_n}",
        "failed_frac": f"{failed}/{attempted}",
    }}


def per_layer(tracer, gen_tracer, untraced: Phase, traced: Phase) -> dict:
    metrics = tracing.layer_metrics(tracer, traced.rounds)
    metrics.update(tracing.generator_metrics(gen_tracer))
    rate_u, rate_t = (1.0 / typical_latencies(p).mean() for p in (untraced, traced))
    metrics["trace.overhead_frac"] = ((rate_u - rate_t) / rate_u, "frac")
    return {"metrics": metrics, "notes": {
        "trace.overhead_frac": f"{rate_u:.4g} ops/s untraced, {rate_t:.4g} traced",
        "per pass": f"per-layer values are per pass over the pool ({traced.rounds} passes)"}}


def count_repeats(phase: Phase) -> dict:
    """Which per-operation counts repeated exactly across the traced passes."""
    names, varying = set(), set()
    for runs in phase.op_counts.values():
        for counts in runs:
            names.update(counts)
        for k in {k for c in runs for k in c}:
            if len({c.get(k, 0) for c in runs}) > 1:
                varying.add(k)
    return {"passes": phase.rounds, "repeat_exactly": sorted(names - varying),
            "varied": sorted(varying)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stablecut" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'stablecut'} is missing; run from a stablecut checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    report = measure(args)
    metrics, notes = report["metrics"], report["notes"]
    print(f"stablecut benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in report["environment"].items()))
    print(f"pool: {report['pool']['tasks']} tasks, {report['pool']['ops_per_pass']} operations "
          f"per pass; timed {report['rounds']} passes, {report['timed_ops']} operations "
          f"in {report['timed_wall_s']:.2f} s")
    for key, (value, unit) in sorted(metrics.items()):
        extra = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:38s} {value:>12.6g} {unit}{extra}")
    if args.trace:
        print(notes["per pass"])
        counts = report["trace"]["counts"]
        print(f"counts repeating exactly over {counts['passes']} traced passes: "
              f"{len(counts['repeat_exactly'])}; varied: {', '.join(counts['varied']) or 'none'}")
    for line in report["checks"]["mismatches"]:
        print("CHECK FAILED " + line)
    for name in report["unstable_outputs"]:
        print("CHECK FAILED output differs between executions: " + name)
    for name, err in report["errors"].items():
        print(f"OPERATION FAILED {name}: {err}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, default=str) + "\n")

    # failed_frac is printed above; the result line carries it as failed/attempted
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": {k: v for k, v in report["metrics"].items() if k != "failed_frac"}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
