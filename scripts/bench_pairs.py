"""Run the benchmark on two checkouts in alternating pairs and record the result.

    python3 scripts/bench_pairs.py --label relax_sweep --base ../parent --change . \\
        --workload relax-battery --seeds 5 11 5 11

For every entry of ``--seeds`` this runs one pair,

    python3 bench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

once in each checkout, with ``run_seconds`` read from ``BENCHMARK.json``, and
alternates which checkout goes first from pair to pair.  It does no timing of
its own: every number comes from the result line that ``bench/run.py`` prints
last.  ``BENCH_<label>.json`` is written at the root of this repository after
every pair, so an interrupted run keeps the pairs it finished.  The file holds:

- both checkouts' commit shas, with a digest of their ``src/`` trees;
- ``invocations``: the exact argv of every call of this script (checkout paths
  relative to this repository) and the argv template of its runs;
- ``pairs``: each pair's workload, seed, order, invocation index and the raw
  result line of each side;
- ``summary``: per workload, seed and pair of checkout directories, each
  side's median and quartiles per metric, how many pairs the change won (in
  the direction ``BENCHMARK.json`` declares) and whether the medians differ by
  more than the base side's quartile spread.  The row of an end-to-end metric
  also reads it as the no-regression gate does: its ``bound`` from
  ``BENCHMARK.json``, ``worse_past_bound`` when the change's median is worse
  than the base median by more than ``bound`` times the base median, and
  ``unresolved`` when the base side's quartile spread is wider than that,
  unless every run of the change reads better than every run of the base.
  Pairs run from different directories are not pooled, since the directory
  alone can move a timing;
- ``excluded``: the pairs left out of the summary, with the reason.  A pair is
  left out when either side exits nonzero, prints no parsable result, reads
  ``correct`` other than true, or when the change fails more operations than
  the base: a faster run that is wrong or fails more is no gain.

Running it again with the same label and the same two ``src/`` trees adds
pairs, for example of another workload.

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def checkout_identity(path: Path) -> dict:
    """Commit sha, dirty flag and a digest of the files under ``src/``."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(path), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    digest = hashlib.sha256()
    for f in sorted((path / "src").rglob("*.py")):
        digest.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes() + b"\0")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "src")),
            "src_sha256": digest.hexdigest()}


def run_once(path: Path, argv: list[str]) -> dict:
    proc = subprocess.run(argv, cwd=path, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = {"returncode": proc.returncode, "line": lines[-1] if lines else ""}
    if proc.returncode != 0:
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def exclusion(pair: dict) -> str | None:
    """Why ``pair`` may not count in the summary, or None if it may."""
    results = {}
    for side in SIDES:
        if pair[side]["returncode"] != 0:
            return f"{side} exited with code {pair[side]['returncode']}"
        try:
            results[side] = json.loads(pair[side]["line"])
        except json.JSONDecodeError:
            return f"{side} printed no parsable result line"
        if results[side].get("correct") is not True:
            return f"{side} reads correct: {results[side].get('correct')}"
    if results["change"].get("failed", 0) > results["base"].get("failed", 0):
        return "change failed more operations than base"
    return None


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def gate(row: dict, base_runs: list[float], change_runs: list[float]) -> dict:
    """How the no-regression gate reads a summarized row with a relative ``bound``."""
    sign = 1.0 if row["better"] == "higher" else -1.0  # sign * value grows as it gets better
    base, change = row["base"], row["change"]
    slack = row["bound"] * abs(base["median"])
    reading = {"worse_past_bound": sign * (base["median"] - change["median"]) > slack}
    if base["q1"] is not None:
        clear_win = min(sign * v for v in change_runs) > max(sign * v for v in base_runs)
        reading["unresolved"] = base["q3"] - base["q1"] > slack and not clear_win
    return reading


def tabulate(doc: dict, declared: dict) -> tuple[dict, list[dict]]:
    """Per workload, seed and checkout directories: both sides' medians and quartiles,
    and pair wins, over the pairs that ``exclusion`` admits; and the excluded pairs.

    ``declared`` maps a metric name to its ``end_to_end`` entry in
    ``BENCHMARK.json``, which gives its "better" direction and its "bound"."""
    table: dict = {}
    excluded = []
    for k, pair in enumerate(doc["pairs"]):
        reason = exclusion(pair)
        if reason is not None:
            excluded.append({"pair": k, "reason": reason})
            continue
        base, change = (json.loads(pair[side]["line"])["metrics"] for side in SIDES)
        paths = doc["invocations"][pair["invocation"]]["paths"]
        key = f"{pair['workload']} seed {pair['seed']}, {paths['base']} vs {paths['change']}"
        rows = table.setdefault(key, {})
        for name, entry in change.items():
            if name not in base:
                continue
            spec = declared.get(name, {})
            row = rows.setdefault(name, {"unit": entry["unit"], "better": spec.get("better"),
                                         "bound": spec.get("bound"),
                                         "base": [], "change": [], "wins": 0, "pairs": 0})
            b, c = base[name]["value"], entry["value"]
            row["base"].append(b)
            row["change"].append(c)
            row["pairs"] += 1
            if row["better"] == "higher":
                row["wins"] += c > b
            elif row["better"] == "lower":
                row["wins"] += c < b
    for rows in table.values():
        for row in rows.values():
            runs = row["base"], row["change"]
            base, change = summary(row["base"]), summary(row["change"])
            row["base"], row["change"] = base, change
            if base["q1"] is not None:
                row["median_shift_exceeds_base_iqr"] = (
                    abs(change["median"] - base["median"]) > base["q3"] - base["q1"])
            if row["bound"] is not None:
                row.update(gate(row, *runs))
    return table, excluded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", required=True, type=Path, help="checkout measured as the parent")
    parser.add_argument("--change", required=True, type=Path, help="checkout measured as the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+", help="one pair per entry")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = str(benchmark["run_seconds"])
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    paths = {side: os.path.relpath(p, ROOT) for side, p in sides.items()}
    out = ROOT / f"BENCH_{args.label}.json"
    doc = {"label": args.label,
           "checkouts": {side: checkout_identity(p) for side, p in sides.items()},
           "invocations": [], "pairs": []}
    if out.is_file():  # add pairs, for example of another workload, to the same record
        previous = json.loads(out.read_text())
        if any(previous["checkouts"][side]["src_sha256"] != doc["checkouts"][side]["src_sha256"]
               for side in SIDES):
            raise SystemExit(f"{out.name} records other checkouts; pick a new --label")
        doc["invocations"], doc["pairs"] = previous["invocations"], previous["pairs"]
    run_argv = ["python3", "bench/run.py", "--workload", args.workload, "--seed", "{seed}",
                "--seconds", seconds, "--trace", "0"]
    doc["invocations"].append({
        "argv": ["python3", "scripts/bench_pairs.py", "--label", args.label,
                 "--base", paths["base"], "--change", paths["change"],
                 "--workload", args.workload, "--seeds", *map(str, args.seeds)],
        "paths": paths, "run_argv": run_argv})
    invocation = len(doc["invocations"]) - 1

    pairs = doc["pairs"]
    for k, seed in enumerate(args.seeds):
        order = SIDES if len(pairs) % 2 == 0 else SIDES[::-1]
        pair = {"workload": args.workload, "seed": seed, "first": order[0],
                "invocation": invocation}
        for side in order:
            print(f"[{k + 1}/{len(args.seeds)}] {args.workload} seed {seed}: {side}",
                  file=sys.stderr, flush=True)
            pair[side] = run_once(sides[side], [a.format(seed=seed) for a in run_argv])
        pairs.append(pair)
        doc["summary"], doc["excluded"] = tabulate(doc, declared)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
