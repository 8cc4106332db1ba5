"""CI smoke check: repeated channels must not multiply VF2 searches.

Runs the quick-trained RF pipeline on the hierarchical phased array
(one ``channel`` subckt definition instantiated N times) in both
elaboration modes, and fails unless

* the ``--hier`` run is byte-identical to the flat run,
* hier replay answered every interior CCC of every channel but the
  first (``reused == replayed == interior x 15/16``) with no
  order-preservation guard failure, and
* in both modes, going from 2 to 16 channels (8x the channels) grows
  the run's VF2 searches at most ``8 / --factor`` times (default
  factor 2).  A 16-channel run that searched each channel anew would
  grow them about 8x.

Flat annotation shares one search among the same-shape
channel-connected components of a run, and hier replay shares the
match sets of one definition's instances, so both pay for a repeated
channel once.  The ``post1`` (primitive annotation) stage wall-clock of
both modes is printed for the record, without a floor: with flat runs
sharing searches too, hier/flat reads about 0.8-1.1x on a 2-vCPU
host, too close to 1 for a wall-clock floor.  Both modes run without
an artifact cache.

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

from _common import load_pipeline, update_bench_json

#: Repeated channel instances — well above 8, so the per-unique-
#: definition cost (one representative walk) amortizes visibly.
N_CHANNELS = 16
#: The small deck the search count of the large one is held to.
BASE_CHANNELS = 2


def searches(result) -> int:
    """VF2 searches a run's Postprocessing I ran."""
    return sum(
        entry["launches"] for entry in result.profile["per_template"].values()
    )


def measure(reps: int) -> dict:
    from repro.core.stages import pipeline_result_fingerprint
    from repro.datasets.systems import phased_array_hier

    pipeline = load_pipeline("rf")
    netlist, port_labels = phased_array_hier(n_channels=N_CHANNELS)
    base_netlist, base_labels = phased_array_hier(n_channels=BASE_CHANNELS)

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
    base_flat, base_hier = (
        pipeline.run(
            base_netlist, port_labels=base_labels, name="pa_hier", hier=mode
        )
        for mode in (False, True)
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
        "base_channels": BASE_CHANNELS,
        "flat_searches": searches(flat),
        "hier_searches": searches(hier),
        "base_flat_searches": searches(base_flat),
        "base_hier_searches": searches(base_hier),
    }


def failures(stats: dict, factor: float) -> list[str]:
    """Why ``stats`` fails the gate (empty when it passes)."""
    out = []
    if stats["guard_failures"]:
        out.append(f"{stats['guard_failures']} hier guard failures")
    n = stats["n_channels"]
    replayable = stats["interior_cccs"] * (n - 1)
    if not (stats["reused"] * n == stats["replayed"] * n == replayable):
        out.append(
            f"hier reused {stats['reused']} and replayed "
            f"{stats['replayed']} of {stats['interior_cccs']} interior CCCs, "
            f"not every CCC of every channel but the first"
        )
    growth = n / stats["base_channels"] / factor
    for mode in ("flat", "hier"):
        large = stats[f"{mode}_searches"]
        small = stats[f"base_{mode}_searches"]
        if large > growth * small:
            out.append(
                f"{mode} ran {large} VF2 searches on {n} channels against "
                f"{small} on {stats['base_channels']} (limit {growth:g}x)"
            )
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
    print(
        f"hier annotation ({stats['n_channels']} channels): "
        f"flat post1 {stats['flat_post1_s']:.4f}s vs hier "
        f"{stats['hier_post1_s']:.4f}s -> {stats['speedup']:.2f}x "
        f"(no floor; reused {stats['reused']}/"
        f"{stats['interior_cccs']} interior CCCs, "
        f"{stats['guard_failures']} guard failures; "
        f"{args.reps} reps/mode in {elapsed:.1f}s)"
    )
    print(
        f"VF2 searches, {stats['base_channels']} -> {stats['n_channels']} "
        f"channels: flat {stats['base_flat_searches']} -> "
        f"{stats['flat_searches']}, hier {stats['base_hier_searches']} -> "
        f"{stats['hier_searches']} (limit "
        f"{stats['n_channels'] / stats['base_channels'] / args.factor:g}x)"
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
