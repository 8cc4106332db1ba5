"""CI smoke check: hier runs match like flat runs, and repeated channels
must not multiply VF2 searches.

Runs the quick-trained RF pipeline on the hierarchical phased array
(one ``channel`` subckt definition instantiated N times) in both
elaboration modes, on 2 and on 16 channels, and fails unless

* the ``--hier`` run is byte-identical to the flat run,
* on each size, hier and flat run the same number of VF2 searches (a
  hier run's Postprocessing I is the flat run's),
* on each size, the hier report's ``reused`` equals the run profile's
  ``ccc_shared`` counter,
* in both modes, the run's searched shapes — ``ccc_matched -
  ccc_shared``, the CCCs no earlier CCC of the same shape answered —
  are as many on 16 channels as on 2, and
* in both modes, going from 2 to 16 channels (8x the channels) grows
  the run's VF2 searches at most ``8 / --factor`` times (default
  factor 2).  A 16-channel run that searched each channel anew would
  grow them about 8x, and
* repeating the 16-channel hier run on the same, now-warm pipeline
  runs no VF2 search and gives the same result fingerprint.

Postprocessing I shares one search among the same-shape
channel-connected components, and the library keeps it in its shape
table, so a repeated channel is paid for once per library.  Every
measured run therefore gets a new library, whose table is empty: its
counts and times are those of a run in a new process.  The ``post1``
(primitive annotation) stage wall-clock of both modes is printed for
the record, without a floor: both modes run the same matching, so
hier/flat reads about 1x.  Both modes run without an artifact cache.

With ``--commit`` the measurement also lands in ``BENCH_runtime.json``
under ``hier_annotation``.

Usage::

    PYTHONPATH=src python benchmarks/check_hier_regression.py
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from _common import fresh_library, load_annotator, update_bench_json

#: Repeated channel instances — well above 8, so a search per channel
#: would show as growth.
N_CHANNELS = 16
#: The small deck the counts of the large one are held to.
BASE_CHANNELS = 2


def match_counts(result) -> tuple[int, int]:
    """VF2 searches and searched shapes (``ccc_matched - ccc_shared``)
    of a run's Postprocessing I."""
    counters = result.profile["counters"]
    searches = sum(
        entry["launches"] for entry in result.profile["per_template"].values()
    )
    return searches, counters["ccc_matched"] - counters.get("ccc_shared", 0)


def measure(reps: int) -> dict:
    from repro.core.pipeline import GanaPipeline
    from repro.core.stages import pipeline_result_fingerprint
    from repro.datasets.systems import phased_array_hier

    annotator = load_annotator("rf")
    decks = {n: phased_array_hier(n_channels=n) for n in (BASE_CHANNELS, N_CHANNELS)}

    def fresh_pipeline() -> GanaPipeline:
        return GanaPipeline(annotator=annotator, library=fresh_library())

    def run(pipeline: GanaPipeline, n: int, hier_mode: bool):
        netlist, port_labels = decks[n]
        return pipeline.run(netlist, port_labels=port_labels, name="pa_hier", hier=hier_mode)

    stats = {"n_channels": N_CHANNELS, "base_channels": BASE_CHANNELS}
    for prefix, n in (("base_", BASE_CHANNELS), ("", N_CHANNELS)):
        flat = run(fresh_pipeline(), n, False)
        warm_pipeline = fresh_pipeline()
        hier = run(warm_pipeline, n, True)
        if pipeline_result_fingerprint(flat) != pipeline_result_fingerprint(
            hier
        ):
            raise AssertionError(
                f"--hier produced a different annotation than the flat "
                f"path on {n} channels"
            )
        for mode, result in (("flat", flat), ("hier", hier)):
            searches, shapes = match_counts(result)
            stats[f"{prefix}{mode}_searches"] = searches
            stats[f"{prefix}{mode}_shapes"] = shapes
        stats[f"{prefix}reused"] = hier.hier.reused
        stats[f"{prefix}ccc_shared"] = hier.profile["counters"].get(
            "ccc_shared", 0
        )

    # The 16-channel hier run's library now holds every shape of the
    # deck: a repeat names every CCC from its shape table.
    again = run(warm_pipeline, N_CHANNELS, True)
    stats["warm_searches"] = match_counts(again)[0]
    stats["warm_same"] = pipeline_result_fingerprint(again) == pipeline_result_fingerprint(hier)

    def timed_post1(hier_mode: bool) -> float:
        return run(fresh_pipeline(), N_CHANNELS, hier_mode).timings["post1"]

    # Interleave the modes so CPU-frequency / scheduler drift hits both
    # equally, and keep the collector out of the timed region — the
    # best-of then compares like with like.
    flat_s = hier_s = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(reps):
            flat_s = min(flat_s, timed_post1(False))
            hier_s = min(hier_s, timed_post1(True))
    finally:
        gc.enable()
    stats.update(
        flat_post1_s=round(flat_s, 6),
        hier_post1_s=round(hier_s, 6),
        speedup=round(flat_s / hier_s, 3),
    )
    return stats


def failures(stats: dict, factor: float) -> list[str]:
    """Why ``stats`` fails the gate (empty when it passes)."""
    out = []
    n, base = stats["n_channels"], stats["base_channels"]
    for prefix, size in (("base_", base), ("", n)):
        flat = stats[f"{prefix}flat_searches"]
        hier = stats[f"{prefix}hier_searches"]
        if hier != flat:
            out.append(
                f"hier ran {hier} VF2 searches on {size} channels against "
                f"{flat} flat"
            )
        reused = stats[f"{prefix}reused"]
        shared = stats[f"{prefix}ccc_shared"]
        if reused != shared:
            out.append(
                f"hier reused {reused} CCCs on {size} channels but the "
                f"profile counts {shared} ccc_shared"
            )
    growth = n / base / factor
    for mode in ("flat", "hier"):
        large = stats[f"{mode}_searches"]
        small = stats[f"base_{mode}_searches"]
        if large > growth * small:
            out.append(
                f"{mode} ran {large} VF2 searches on {n} channels against "
                f"{small} on {base} (limit {growth:g}x)"
            )
        shapes = stats[f"{mode}_shapes"]
        base_shapes = stats[f"base_{mode}_shapes"]
        if shapes != base_shapes:
            out.append(
                f"{mode} searched {shapes} CCC shapes on {n} channels "
                f"against {base_shapes} on {base}"
            )
    if stats["warm_searches"]:
        out.append(
            f"a repeated hier run on {n} channels ran {stats['warm_searches']} "
            f"VF2 searches on its warm library"
        )
    if not stats["warm_same"]:
        out.append(f"a repeated hier run on {n} channels changed the result")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when VF2 searches grow more than 8/FACTOR times from 2 "
        "to 16 channels, in either mode (default 2)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=5,
        help="runs per mode; the fastest post1 of each is printed "
        "(default 5)",
    )
    parser.add_argument(
        "--commit",
        action="store_true",
        help="also write the measurement to BENCH_runtime.json",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    stats = measure(args.reps)
    elapsed = time.perf_counter() - started
    base, n = stats["base_channels"], stats["n_channels"]
    print(
        f"hier annotation ({n} channels): "
        f"flat post1 {stats['flat_post1_s']:.4f}s vs hier "
        f"{stats['hier_post1_s']:.4f}s -> {stats['speedup']:.2f}x "
        f"(no floor; {args.reps} reps/mode in {elapsed:.1f}s)"
    )
    print(
        f"VF2 searches, {base} -> {n} channels: "
        f"flat {stats['base_flat_searches']} -> {stats['flat_searches']}, "
        f"hier {stats['base_hier_searches']} -> {stats['hier_searches']} "
        f"(hier = flat; limit {n / base / args.factor:g}x)"
    )
    print(
        f"searched shapes (ccc_matched - ccc_shared), {base} -> {n} "
        f"channels: flat {stats['base_flat_shapes']} -> "
        f"{stats['flat_shapes']}, hier {stats['base_hier_shapes']} -> "
        f"{stats['hier_shapes']}; hier reused {stats['base_reused']} -> "
        f"{stats['reused']} CCCs, ccc_shared {stats['base_ccc_shared']} -> "
        f"{stats['ccc_shared']}"
    )
    print(
        f"repeated hier run on the warm library ({n} channels): "
        f"{stats['warm_searches']} VF2 searches, same result: "
        f"{'yes' if stats['warm_same'] else 'NO'}"
    )
    if args.commit:
        update_bench_json("hier_annotation", stats)
        print("committed to BENCH_runtime.json [hier_annotation]")
    problems = failures(stats, args.factor)
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
