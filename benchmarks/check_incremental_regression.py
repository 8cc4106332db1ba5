"""CI smoke check: staged incremental recompute must stay warm.

Annotates the phased array cold (fresh artifact cache), then re-runs
with *only the primitive library changed*.  The warm run must

* reuse the cached parse/preprocess/graph/GCN artifacts (the library
  fingerprint only enters the key chain at Postprocessing I),
* answer every (CCC, template) pair of the recomputed post1 stage from
  the primitive-match cache: no VF2 search, and exactly
  ``ccc_matched x len(default_library())`` match-cache hits, and
* finish at least ``--factor`` times faster than the cold run (default
  3x).  The cold run searches each CCC shape once per run, so this
  ratio reads lower than before that change with no slower warm run.

The measured cold/warm wall-clock lands in ``BENCH_runtime.json``
under ``staged_incremental``.

Usage::

    PYTHONPATH=src python benchmarks/check_incremental_regression.py
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

#: Stages whose artifacts are independent of the primitive library.
LIBRARY_INDEPENDENT = ("parse", "preprocess", "graph", "gcn")


def measure(reps: int) -> dict:
    from benchmarks._common import load_annotator
    from repro.core.pipeline import GanaPipeline
    from repro.datasets.systems import phased_array
    from repro.primitives.library import default_library, extended_library
    from repro.runtime.cache import ArtifactCache

    annotator = load_annotator("rf")
    system = phased_array()
    cold_pipe = GanaPipeline(annotator=annotator, library=extended_library())
    warm_pipe = GanaPipeline(annotator=annotator, library=default_library())

    with tempfile.TemporaryDirectory(prefix="gana-incremental-") as tmp:
        # Cold best-of-reps, each against a virgin cache dir — a single
        # cold sample is noisy on small hosts and would swing the ratio.
        cold_seconds = float("inf")
        for rep in range(reps):
            cache = ArtifactCache(Path(tmp) / f"artifacts-{rep}")
            start = time.perf_counter()
            cold = cold_pipe.run_staged(
                system.circuit,
                port_labels=system.port_labels,
                name=system.name,
                artifact_cache=cache,
            )
            cold_seconds = min(cold_seconds, time.perf_counter() - start)
            assert cold.cache_hits == (), "cold run unexpectedly hit the cache"
        # Snapshot the cold run's entries so each warm rep measures a
        # genuine *first* re-run: anything a previous warm rep stored
        # (its post1/post2/hierarchy artifacts under the new library
        # key) is pruned, otherwise reps 2+ are trivial all-hit runs.
        baseline_entries = set(cache.entries())

        warm_seconds = float("inf")
        reused: tuple[str, ...] = ()
        warm_searches = match_cache_hits = ccc_matched = 0
        for _ in range(reps):
            for entry in cache.entries():
                if entry not in baseline_entries:
                    entry.unlink()
            start = time.perf_counter()
            warm = warm_pipe.run_staged(
                system.circuit,
                port_labels=system.port_labels,
                name=system.name,
                artifact_cache=cache,
            )
            warm_seconds = min(warm_seconds, time.perf_counter() - start)
            reused = tuple(s.value for s in warm.cache_hits)
            counters = warm.profile["counters"]
            warm_searches = sum(
                entry["launches"] for entry in warm.profile["per_template"].values()
            )
            match_cache_hits = counters.get("match_cache_hits", 0)
            ccc_matched = counters.get("ccc_matched", 0)

    return {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / max(warm_seconds, 1e-9),
        "reused_stages": sorted(reused),
        "warm_searches": warm_searches,
        "match_cache_hits": match_cache_hits,
        "expected_hits": ccc_matched * len(default_library()),
        "change": "primitive library extended->default, deck unchanged",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--factor",
        type=float,
        default=3.0,
        help="fail when warm is not FACTOR times faster than cold (default 3)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="warm re-runs; the fastest is compared (default 3)",
    )
    parser.add_argument(
        "--no-commit",
        action="store_true",
        help="skip rewriting the staged_incremental BENCH_runtime.json section",
    )
    args = parser.parse_args(argv)

    stats = measure(args.reps)
    print(
        "staged incremental: cold {cold_seconds:.4f}s vs warm "
        "{warm_seconds:.4f}s ({speedup:.2f}x, limit {factor:.1f}x); "
        "reused: {reused}; warm post1: {warm_searches} VF2 searches, "
        "{match_cache_hits}/{expected_hits} match-cache hits".format(
            factor=args.factor,
            reused=", ".join(stats["reused_stages"]) or "none",
            **{
                k: stats[k]
                for k in (
                    "cold_seconds",
                    "warm_seconds",
                    "speedup",
                    "warm_searches",
                    "match_cache_hits",
                    "expected_hits",
                )
            },
        )
    )

    missing = set(LIBRARY_INDEPENDENT) - set(stats["reused_stages"])
    if missing:
        print(f"FAIL: warm run recomputed cached stages: {sorted(missing)}")
        return 1
    stale = set(stats["reused_stages"]) - set(LIBRARY_INDEPENDENT)
    if stale:
        print(
            f"FAIL: warm run reused library-dependent stages {sorted(stale)} "
            f"— a changed library must invalidate them"
        )
        return 1
    if stats["warm_searches"]:
        print(
            f"FAIL: warm post1 ran {stats['warm_searches']} VF2 searches "
            f"— every (CCC, template) pair should come from the match cache"
        )
        return 1
    if not stats["expected_hits"] or (
        stats["match_cache_hits"] != stats["expected_hits"]
    ):
        print(
            f"FAIL: warm post1 hit the match cache {stats['match_cache_hits']} "
            f"times, not once per CCC and template ({stats['expected_hits']})"
        )
        return 1
    if stats["speedup"] < args.factor:
        print("FAIL: incremental recompute regressed below the allowed factor")
        return 1

    if not args.no_commit:
        from benchmarks._common import update_bench_json

        update_bench_json("staged_incremental", stats)
        print("updated BENCH_runtime.json [staged_incremental]")
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
