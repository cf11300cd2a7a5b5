"""Run every workload over several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 --out bench/results/baseline.json

Each run is a separate ``bench/run.py`` process (one workload per process,
run length from BENCHMARK.json).  For every metric the summary gives the ten
values, the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread (Q3 - Q1) / median that BENCHMARK.json's bounds
are compared with.  One traced run per workload (the first seed) adds the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        results = []
        for seed in args.seeds:
            results.append(run(name, seed, spec["run_seconds"], 0))
            print(f"{name} seed {seed}: correct={results[-1]['correct']} "
                  f"failed={results[-1]['failed']}/{results[-1]['attempted']}", flush=True)
        traced = run(name, args.seeds[0], spec["run_seconds"], 1)
        report = ROOT / ".bench_out" / f"{name}-seed{args.seeds[0]}-trace1.json"
        doc["environment"] = json.loads(report.read_text())["environment"]
        doc["workloads"][name] = {
            "runs": [{k: r[k] for k in ("correct", "attempted", "failed")} for r in results],
            "end_to_end": summarise(results),
            "per_layer": {"seed": args.seeds[0], "correct": traced["correct"],
                          "metrics": traced["metrics"]},
        }
        for metric, s in doc["workloads"][name]["end_to_end"].items():
            print(f"  {metric:16s} median {s['median']:.6g} {s['unit']}  spread {s['spread']:.3f}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
