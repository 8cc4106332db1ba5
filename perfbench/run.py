"""GANA annotation benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload flat --seed 0 --seconds 8 --trace 0

Workloads (all closed loop, one client, one process; BLAS pinned to one
thread per process):

* ``flat``  -- ``GanaPipeline.run`` on distinct flat RF systems of
  400-700 devices (quick RF model).
* ``hier``  -- ``run(..., hier=True)`` on decks of repeated cells from a
  small seeded library, cycled so definitions repeat.
* ``fleet`` -- ``run_many(batch, workers=2)`` on batches of 16 distinct
  small OTA decks (quick OTA model, warm pool).
* ``train`` -- ``train()`` of a fresh quick-config GCN on a fixed OTA
  sample set (the same for every seed).

Each run prepares untimed (inputs, and a model cache of the program
version's own, trained on the first run of that version), times set-up
in fresh interpreters, then runs a fixed number of ops set by
``--seconds`` and the workload's nominal op time, so every count
repeats exactly for a seed.  Every time is host-normalized: before and
after each op a reference kernel (``probe.py``) is timed, and the op's
seconds are scaled by R0 over the rolling median of nearby probes.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a run whose second half is timed from outside by
span wrappers (``layers.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full records (raw seconds,
probe references and normalized seconds of every op; spans) land in
``.perfbench/runs/``.  The exit code is 1 when an op failed or an
output check disagreed, 2 when the program or a step is missing.

The benchmark's own tests: ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

from layers import aggregate
from probe import R0
from spans import Span
from stats import normalize, tail
from workloads import FLEET_WORKERS, NOMINAL_OP_SECONDS

#: Set-ups timed per run (the measured session's own plus fresh
#: set-up-only interpreters); ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Fewest ops in a run: the tail percentile needs ten beyond it.
MIN_OPS = 20
#: Wall-clock ceiling for a whole run; a step still going then is
#: killed and the run fails without a result.
RUN_TIMEOUT = 170
#: The same for the first run on a version of the program, whose
#: prepare step trains the models.
TRAINING_RUN_TIMEOUT = 870
#: Written into a model cache once a prepare step has filled it.
PREPARED = "prepared"

class StepFailed(Exception):
    pass


def declared_metrics(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def n_ops(workload: str, seconds: int) -> int:
    return max(MIN_OPS, round(seconds / NOMINAL_OP_SECONDS[workload]))


def model_cache() -> Path:
    """The model cache of the program version in ``src/``, named by a
    digest of its sources.  Each version trains into a cache of its own,
    so no version is measured with weights another one trained."""
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return WORK / "cache" / digest.hexdigest()[:16]


def child_env(cache: Path) -> dict:
    env = dict(os.environ)
    env.pop("GANA_NO_CACHE", None)
    env.pop("GANA_WORKERS", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        GANA_CACHE_DIR=str(cache),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(args: list[str], cache: Path, deadline: float) -> None:
    """Run one step in its own process group.  Whatever is left of the
    group afterwards (a timed-out or interrupted step, stray pool
    workers) is killed, and the call returns only once no process of
    the group remains."""
    proc = subprocess.Popen([sys.executable, *args], env=child_env(cache), cwd=ROOT,
                            stdout=sys.stderr, start_new_session=True)
    code = None
    try:
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        _kill_group(proc)
    if code != 0:
        outcome = "timed out" if code is None else f"exited {code}"
        raise StepFailed(f"{Path(args[0]).name} {outcome}")


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def cache_listing(cache: Path) -> list[str]:
    return sorted(p.name for p in cache.glob("*.npz")) if cache.is_dir() else []


def _normalize_ops(ops: list[dict]) -> list[float]:
    """Add each op's probe reference and normalized seconds beside its
    raw seconds; return the normalized seconds."""
    norm, refs = normalize([op["raw_s"] for op in ops], [op["probe_s"] for op in ops])
    for op, n, r in zip(ops, norm, refs):
        op["ref_s"], op["norm_s"] = r, n
    return norm


def end_to_end(record: dict, setups: list[dict]) -> dict[str, float]:
    """End-to-end metrics of an untraced run.  Times are normalized;
    rates are medians of per-op rates over the ops that succeeded;
    ``setups`` holds every set-up sample taken in the run."""
    ops = record["ops"]
    norm = _normalize_ops(ops)
    percentile, tail_s = tail(norm)
    record["tail_percentile"] = percentile
    ok = [op for op in ops if op["error"] is None]
    scored = sum(op.get("total", 0) for op in ops)
    setup_values = [s["setup_raw_s"] * R0 / s["setup_ref_s"] for s in setups]

    def rate(key):
        """Median per-op rate over the ops that succeeded (0 if none)."""
        return statistics.median(op[key] / op["norm_s"] for op in ok) if ok else 0.0

    return {
        "setup_s": statistics.median(setup_values),
        "op_p50_s": statistics.median(norm),
        "op_tail_s": tail_s,
        "devices_per_s": rate("devices"),
        "graphs_per_s": rate("graphs"),
        "accuracy": sum(op.get("correct", 0) for op in ops) / scored if scored else 0.0,
        "ok_share": len(ok) / len(ops),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(record: dict, workers: int) -> dict[str, float]:
    """Per-layer metrics of a traced run: normalized self seconds and
    counts per traced op, plus the host figures that audit them."""
    ops = record["ops"]
    _normalize_ops(ops)
    first = record["traced_from"]
    traced, bare = ops[first:], ops[:first]
    trace = record["trace"]
    windows = [tuple(w) for w in trace["windows"]]
    scale = {i: R0 / ops[i]["ref_s"] for _s, _e, i in windows}
    processes = [[Span(*row) for row in rows] for rows in trace["spans"]]
    out = aggregate(processes, windows, scale, workers)

    def per_device(part):
        """Median normalized seconds per device of the ops that succeeded."""
        return statistics.median(op["norm_s"] / op["devices"] for op in part if op["error"] is None)

    hier = [op.get("hier") or (0, 0, 0) for op in traced]
    out.update({
        "core.hier_reused": sum(h[0] for h in hier) / len(traced),
        "core.hier_replayed": sum(h[1] for h in hier) / len(traced),
        "core.hier_guard_failures": sum(h[2] for h in hier) / len(traced),
        "runtime.pool_rebuilds": record["pool_rebuilds"],
        "runtime.pool_breaks": record["pool_breaks"],
        "runtime.memo_entries": sum(trace["memos"].values()),
        "host.ref_s": statistics.median(op["ref_s"] for op in traced),
        "host.wall_s": statistics.median(op["raw_s"] for op in traced),
        "host.trace_overhead": per_device(traced) / per_device(bare) - 1,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_OP_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = declared_metrics(bool(args.trace))
    # Turn SIGTERM into an exception so the running step's process
    # group is cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    cache = model_cache()
    cache.mkdir(parents=True, exist_ok=True)
    prepared = cache / PREPARED
    deadline = time.monotonic() + (RUN_TIMEOUT if prepared.exists() else TRAINING_RUN_TIMEOUT)
    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = run_dir / "inputs.json"
    n = n_ops(args.workload, args.seconds)
    try:
        run_child([str(HERE / "prepare.py"), "--workload", args.workload, "--seed",
                   str(args.seed), "--ops", str(n), "--out", str(inputs)], cache, deadline)
        prepared.touch()
        deadline = min(deadline, time.monotonic() + RUN_TIMEOUT)
        models = cache_listing(cache)
        setups = []
        modes = ["setup"] * (SETUP_SAMPLES - 1) * (1 - args.trace) + ["run"]
        for k, mode in enumerate(modes):
            out = run_dir / f"{mode}{k}.json"
            run_child([str(HERE / "session.py"), "--workload", args.workload,
                       "--inputs", str(inputs), "--mode", mode, "--trace", str(args.trace),
                       "--run-dir", str(run_dir), "--out", str(out),
                       "--spawned", repr(time.monotonic())], cache, deadline)
            with open(out) as handle:
                setups.append(json.load(handle))
            out.unlink()
        if cache_listing(cache) != models:
            raise StepFailed("set-up trained a model instead of loading the prepared cache")
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Inputs are cheap to regenerate from the seed; records stay.
        inputs.unlink(missing_ok=True)
    record = setups[-1]
    workers = FLEET_WORKERS if args.workload == "fleet" else 0
    metrics = per_layer(record, workers) if args.trace else end_to_end(record, setups)
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} are produced or "
              f"declared in BENCHMARK.json, not both", file=sys.stderr)
        return 2
    record["setups"] = setups[:-1]
    record["metrics"] = metrics
    failed = sum(op["error"] is not None for op in record["ops"])
    with open(run_dir / "record.json", "w") as handle:
        json.dump(record, handle)
    print(json.dumps({"workload": args.workload, "properties": record["properties"]}),
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(record["ops"]),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
