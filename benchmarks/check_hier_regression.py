"""CI smoke check: hierarchy-scoped annotation must beat the flat path.

Runs the quick-trained RF pipeline on the hierarchical phased array
(one ``channel`` subckt definition instantiated N times) in both
elaboration modes and compares the ``post1`` (primitive annotation)
stage wall-clock.  The ``--hier`` path matches each unique definition
once and replays the match sets onto every sibling instance, so on a
repeated-instance design it must beat flat-path annotation by at least
``--factor`` (default 2x) warm.  Both modes run without an artifact
cache: the speedup measured here is pure in-run definition-scoped
dedup, not disk-cache hits.

With ``--commit`` the measurement also lands in ``BENCH_runtime.json``
under ``hier_annotation`` (the committed baseline CI compares against).

Usage::

    PYTHONPATH=src python benchmarks/check_hier_regression.py
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from _common import load_pipeline, update_bench_json

#: Repeated channel instances — well above 8, so the per-unique-
#: definition cost (one representative walk) amortizes visibly.
N_CHANNELS = 16


def measure(reps: int) -> dict:
    from repro.core.stages import pipeline_result_fingerprint
    from repro.datasets.systems import phased_array_hier

    pipeline = load_pipeline("rf")
    netlist, port_labels = phased_array_hier(n_channels=N_CHANNELS)

    # Warm both paths (library match profiles, predicate memos) before
    # timing anything, and assert byte-identity while at it.
    flat = pipeline.run(netlist, port_labels=port_labels, name="pa_hier")
    hier = pipeline.run(
        netlist, port_labels=port_labels, name="pa_hier", hier=True
    )
    if pipeline_result_fingerprint(flat) != pipeline_result_fingerprint(hier):
        raise AssertionError(
            "--hier produced a different annotation than the flat path"
        )

    def timed_post1(hier_mode: bool) -> float:
        result = pipeline.run(
            netlist,
            port_labels=port_labels,
            name="pa_hier",
            hier=hier_mode,
        )
        return result.timings["post1"]

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
    report = hier.hier
    return {
        "n_channels": N_CHANNELS,
        "flat_post1_s": round(flat_s, 6),
        "hier_post1_s": round(hier_s, 6),
        "speedup": round(flat_s / hier_s, 3),
        "interior_cccs": report.interior,
        "reused": report.reused,
        "replayed": report.replayed,
        "guard_failures": report.guard_failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when hier post1 is not FACTOR x faster than flat "
        "(default 2)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=5,
        help="runs per mode; the fastest post1 of each is compared "
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
    print(
        f"hier annotation ({stats['n_channels']} channels): "
        f"flat post1 {stats['flat_post1_s']:.4f}s vs hier "
        f"{stats['hier_post1_s']:.4f}s -> {stats['speedup']:.2f}x "
        f"(gate {args.factor:.1f}x; reused {stats['reused']}/"
        f"{stats['interior_cccs']} interior CCCs, "
        f"{stats['guard_failures']} guard failures; "
        f"{args.reps} reps/mode in {elapsed:.1f}s)"
    )
    if args.commit:
        update_bench_json("hier_annotation", stats)
        print("committed to BENCH_runtime.json [hier_annotation]")
    if stats["speedup"] < args.factor:
        print("FAIL: --hier did not beat the flat path by the gate factor")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
