"""CI smoke check: staged incremental recompute must stay warm.

Annotates the phased array cold (fresh artifact cache), then re-runs
with *only the primitive library changed*.  The warm run must

* reuse the cached parse/preprocess/graph/GCN artifacts (the library
  fingerprint only enters the key chain at Postprocessing I),
* recompute post1 exactly as a run without a cache does: the same
  per-template VF2 launches, shared answers and skips, and the same
  ``pipeline_result_fingerprint``, as a cache-less run of the deck with
  ``default_library()``, and
* finish at least ``--factor`` times faster than the cold run (default
  3x).  Every run searches each CCC shape once and the cache stores
  whole stages only, so the warm run recomputes post1 in full, and on
  a 2-vCPU host the ratio reads about 1.5x.

A library keeps the CCC shapes it has searched, so every measured run,
cold or warm, gets a new library: each one searches the deck's shapes
as a run in a new process does.  Last, repeating the cache-less run on
its now-warm pipeline must run no VF2 search and give the same result
fingerprint.

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
    from benchmarks._common import fresh_library, load_annotator
    from repro.core.pipeline import GanaPipeline
    from repro.datasets.systems import phased_array
    from repro.primitives.library import default_library, extended_library
    from repro.runtime.cache import ArtifactCache

    annotator = load_annotator("rf")
    system = phased_array()

    def pipeline(make_library) -> GanaPipeline:
        return GanaPipeline(annotator=annotator, library=fresh_library(make_library))

    with tempfile.TemporaryDirectory(prefix="gana-incremental-") as tmp:
        # Cold best-of-reps, each against a virgin cache dir — a single
        # cold sample is noisy on small hosts and would swing the ratio.
        cold_seconds = float("inf")
        for rep in range(reps):
            cache = ArtifactCache(Path(tmp) / f"artifacts-{rep}")
            cold_pipe = pipeline(extended_library)
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
        warm_runs = []
        for _ in range(reps):
            for entry in cache.entries():
                if entry not in baseline_entries:
                    entry.unlink()
            warm_pipe = pipeline(default_library)
            start = time.perf_counter()
            warm = warm_pipe.run_staged(
                system.circuit,
                port_labels=system.port_labels,
                name=system.name,
                artifact_cache=cache,
            )
            warm_seconds = min(warm_seconds, time.perf_counter() - start)
            reused = tuple(s.value for s in warm.cache_hits)
            warm_runs.append(matching(warm_pipe.result_from_staged(warm)))

    # The one-path reference: the same deck and library, no cache.
    reference_pipe = pipeline(default_library)
    reference = matching(
        reference_pipe.run(
            system.circuit, port_labels=system.port_labels, name=system.name
        )
    )
    # Its library now holds every shape of the deck.
    repeat = matching(
        reference_pipe.run(
            system.circuit, port_labels=system.port_labels, name=system.name
        )
    )
    return {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / max(warm_seconds, 1e-9),
        "reused_stages": sorted(reused),
        "warm_searches": searches(warm_runs[-1][0]),
        "cacheless_searches": searches(reference[0]),
        "same_as_cacheless": all(run == reference for run in warm_runs),
        "repeat_searches": searches(repeat[0]),
        "repeat_same": repeat[1] == reference[1],
        "change": "primitive library extended->default, deck unchanged",
    }


def matching(result) -> tuple[dict, str]:
    """Post1's per-template (VF2 launches, shared answers, skips) and
    the result fingerprint: what a cached run must share with a
    cache-less one."""
    from repro.core.stages import pipeline_result_fingerprint

    counts = {
        name: (entry["launches"], entry["shared"], entry["skips"])
        for name, entry in result.profile["per_template"].items()
    }
    return counts, pipeline_result_fingerprint(result)


def searches(counts: dict) -> int:
    return sum(launches for launches, _, _ in counts.values())


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
        "reused: {reused}; warm post1: {warm_searches} VF2 searches vs "
        "{cacheless_searches} cache-less, same counts and result: {same}; "
        "repeat on the warm library: {repeat_searches} VF2 searches, same "
        "result: {repeat_same}".format(
            factor=args.factor,
            reused=", ".join(stats["reused_stages"]) or "none",
            same="yes" if stats["same_as_cacheless"] else "NO",
            repeat_same="yes" if stats["repeat_same"] else "NO",
            **{
                k: stats[k]
                for k in (
                    "cold_seconds",
                    "warm_seconds",
                    "speedup",
                    "warm_searches",
                    "cacheless_searches",
                    "repeat_searches",
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
    if not stats["same_as_cacheless"]:
        print(
            "FAIL: warm post1 differs from a cache-less run with the same "
            "library (per-template launches/shared/skips or result "
            "fingerprint) — a cached run must match exactly like an "
            "uncached one"
        )
        return 1
    if stats["repeat_searches"] or not stats["repeat_same"]:
        print(
            f"FAIL: repeating the cache-less run on its warm library ran "
            f"{stats['repeat_searches']} VF2 searches (want 0) or changed the "
            f"result fingerprint"
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
