"""Time the exhaustive scan kernels of the checkout this script sits in.

    python3 scripts/oracle_layers.py [--sizes 8 12 18 22 24 26] [--repeat 5]

For every n of ``--sizes`` it builds ``gen_planted_partition(n, 0.6, 0.4, 1)``
and times, best of ``--repeat`` calls after one warm-up call:

- ``maxcut``: ``brute_force_maxcut(inst)``;
- ``minima_cut``: ``subset_scan_minima(W, delta)`` at the planted cut;
- ``minima``: ``subset_scan_minima(W, None)``, the Cheeger scan;
- ``enumerate``: ``enumerate_locally_stable_cuts(inst, 1.1)``.

Each time is reported in ms per 2^20 masks (a scan of n vertices visits
2^(n-1) - 1 masks), next to ``enumerate_peak_mb``, the tracemalloc peak of one
warm enumeration.  It prints one JSON line.  BLAS threads are whatever the
environment gives numpy; set ``OPENBLAS_NUM_THREADS=1`` for one-thread figures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import stablecut as sc  # noqa: E402
from stablecut.oracle import subset_scan_minima  # noqa: E402

ENUM_GAMMA = 1.1


def best_ms(fn, repeat: int) -> float:
    """Fastest of ``repeat`` timed calls after one untimed call, in ms."""
    fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * min(times)


def enumeration_peak_mb(inst) -> float:
    """tracemalloc peak of one enumeration, after a warm-up call fills the caches."""
    sc.enumerate_locally_stable_cuts(inst, ENUM_GAMMA)
    tracemalloc.start()
    try:
        sc.enumerate_locally_stable_cuts(inst, ENUM_GAMMA)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def layer_row(n: int, repeat: int) -> dict:
    planted = sc.gen_planted_partition(n, 0.6, 0.4, 1)
    inst, W = planted.instance, planted.instance.weights
    delta = planted.planted_cut.delta
    per_mmask = 2**20 / ((1 << (n - 1)) - 1)
    kernels = {
        "maxcut": lambda: sc.brute_force_maxcut(inst),
        "minima_cut": lambda: subset_scan_minima(W, delta),
        "minima": lambda: subset_scan_minima(W, None),
        "enumerate": lambda: sc.enumerate_locally_stable_cuts(inst, ENUM_GAMMA),
    }
    row = {f"{name}_ms_per_Mmask": round(best_ms(fn, repeat) * per_mmask, 4)
           for name, fn in kernels.items()}
    row["enumerate_peak_mb"] = round(enumeration_peak_mb(inst), 3)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 18, 22, 24, 26])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    doc = {"repeat": args.repeat, "numpy": np.__version__,
           "sizes": {str(n): layer_row(n, args.repeat) for n in args.sizes}}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
