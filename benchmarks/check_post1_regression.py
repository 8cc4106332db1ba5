"""CI smoke check: primitive matching (post1) must not regress.

Runs the quick-trained RF pipeline on the phased array and compares
the ``post1`` stage wall-clock against the committed baseline in
``BENCH_runtime.json`` (``pipeline_stages.phased_array.post1``).  Every
run gets a new primitive library, so it searches each CCC shape of the
deck instead of naming all of them from the shape table an earlier
run left in its library.  Exits
non-zero when the live time exceeds ``--factor`` (default 2x) times
the baseline — loose enough to absorb runner noise, tight enough that
an accidental return to per-launch matcher setup (an order of
magnitude) cannot slip through.

Usage::

    PYTHONPATH=src python benchmarks/check_post1_regression.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_runtime.json"


def committed_baseline() -> float:
    data = json.loads(BENCH_JSON.read_text())
    return float(data["pipeline_stages"]["phased_array"]["post1"])


def measure_post1(reps: int) -> float:
    from _common import fresh_library
    from repro.core.pipeline import GanaPipeline
    from repro.datasets.systems import phased_array

    annotator = GanaPipeline.pretrained("rf", quick=True).annotator
    system = phased_array()
    best = float("inf")
    for _ in range(reps):
        pipeline = GanaPipeline(annotator=annotator, library=fresh_library())
        result = pipeline.run(
            system.circuit, port_labels=system.port_labels, name=system.name
        )
        best = min(best, result.timings["post1"])
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when live post1 exceeds baseline * FACTOR (default 2)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="pipeline runs; the fastest post1 is compared (default 3)",
    )
    args = parser.parse_args(argv)

    baseline = committed_baseline()
    started = time.perf_counter()
    live = measure_post1(args.reps)
    elapsed = time.perf_counter() - started
    ratio = live / baseline
    print(
        f"post1: live {live:.4f}s vs committed baseline {baseline:.4f}s "
        f"({ratio:.2f}x, limit {args.factor:.1f}x; "
        f"{args.reps} reps in {elapsed:.1f}s)"
    )
    if live > args.factor * baseline:
        print("FAIL: post1 regressed beyond the allowed factor")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
