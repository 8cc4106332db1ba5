"""One measured process: timed set-up, the op loop, the output checks.

``run.py`` starts this in a fresh interpreter, so set-up time includes
importing the program.  With ``--mode setup`` the process stops once it
is ready; with ``--mode run`` it goes on to the ops and writes its
record (every op's raw seconds, probe seconds, work done and failures)
as JSON to ``--out``; ``run.py`` turns it into metrics.

With ``--trace 1`` the first half of the ops run bare and the second
half under the span wrappers of ``layers.py``; the halves give the
tracing overhead, and the traced half gives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

from workloads import FLEET_WORKERS, WORKLOADS

#: Probes right after set-up; their median scales ``setup_s``.
SETUP_PROBES = 25


def _peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest
    reaped child (the pool workers, once shut down)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _pool_counters() -> tuple[int, int]:
    from repro.runtime.parallel import pool_health

    slots = pool_health().values()
    return sum(h.rebuilt for h in slots), sum(h.breaks for h in slots)


def _shutdown_pools() -> None:
    from repro.runtime.parallel import shutdown_pools

    shutdown_pools(wait=True)


class Session:
    """Drives one workload: set-up, op loop, checks.  ``run_dir``
    holds worker span files in traced runs."""

    def __init__(self, workload, trace: bool = False, run_dir: str = ".", workers: int = 0):
        self.workload = workload
        self.trace = trace
        self.run_dir = run_dir
        self.workers = workers
        self._kernel = None
        # A pooled op runs on every CPU at once, so its probes take each
        # CPU in turn; a single-process op runs wherever the scheduler
        # puts it, and so does its probe.  In paired runs of eight seeds
        # on the 2-vCPU reference host, rotation cut the spread of
        # fleet's op_tail_s from 9.4 % to 3.0 %, and rotating on flat
        # too widened its op_p50_s spread from 3.1 % to 10.8 %.
        self._cpus = sorted(os.sched_getaffinity(0)) if workers else []
        self._turn = 0

    def probe(self) -> float:
        """Time the reference kernel once."""
        if not self._cpus:
            return self._kernel()
        cpu = self._cpus[self._turn % len(self._cpus)]
        self._turn += 1
        os.sched_setaffinity(0, {cpu})
        try:
            return self._kernel()
        finally:
            os.sched_setaffinity(0, self._cpus)

    def setup(self, spawned: float, excluded: float) -> dict:
        """Set up the workload; ``spawned`` is when this interpreter was
        started (``time.monotonic``) and ``excluded`` seconds of input
        loading are left out."""
        self.workload.setup()
        ready = time.monotonic()
        from probe import ReferenceProbe

        self._kernel = ReferenceProbe()
        probes = [self.probe() for _ in range(SETUP_PROBES)]
        return {
            "setup_raw_s": ready - spawned - excluded,
            "setup_ref_s": statistics.median(probes),
        }

    def _start_tracing(self):
        import layers
        from spans import Tracer, install

        worker_dir = os.path.join(self.run_dir, "workers")
        os.makedirs(worker_dir, exist_ok=True)
        for entry in os.listdir(worker_dir):
            os.remove(os.path.join(worker_dir, entry))
        tracer = Tracer(worker_dir=worker_dir, memo_reader=layers.memo_entries)
        targets = layers.TARGETS
        if self.workload.name == "train":
            targets += layers.TRAINING_TARGETS
        if self.workers:
            # Workers must fork after the wrappers exist.
            _shutdown_pools()
        installation = install(targets, tracer)
        if self.workers:
            self.workload.warm()
        return tracer, installation, worker_dir

    def run(self, record: dict) -> dict:
        workload = self.workload
        n = workload.n_ops
        traced_from = n // 2 if self.trace else n
        rebuilds0, breaks0 = _pool_counters()
        # Objects alive after set-up (the model, the inputs) stay for the
        # whole run: keep the collector from rescanning them inside
        # timed ops.  Garbage the ops make is collected as it comes,
        # inside whichever op the collector happens to run in.
        gc.collect()
        gc.freeze()
        tracer = None
        ops = []
        digests = []
        windows = []
        for i in range(n):
            if i == traced_from:
                tracer, installation, worker_dir = self._start_tracing()
            before_s = self.probe()
            if tracer is not None:
                tracer.op = i
                root = tracer.open("op")
            start = time.perf_counter()
            error = None
            try:
                result = workload.op(i)
            except Exception as exc:  # the op failed; the run goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.close(root)
                tracer.op = None
                span = tracer.spans[root]
                windows.append((span.start, span.end, i))
                tracer.resolve(root)
            probe_s = self.probe()
            digest = None
            if error is None:
                try:
                    digest = workload.digest(i, result)
                except Exception as exc:
                    error = f"output unreadable: {type(exc).__name__}: {exc}"
            del result
            # The op's probe is the mean of one probe on each side of it.
            ops.append({"raw_s": seconds, "probe_s": (before_s + probe_s) / 2, "error": error})
            digests.append(digest)
        workload.check(digests)
        rebuilds, breaks = _pool_counters()
        memos = {}
        if tracer is not None:
            from layers import memo_entries

            memos = memo_entries()
        _shutdown_pools()
        record["peak_rss_mb"] = _peak_rss_mb(self.workers)
        for op, digest in zip(ops, digests):
            if digest is not None:
                op.update(devices=digest.devices, graphs=digest.graphs, correct=digest.correct,
                          total=digest.total, hier=digest.hier,
                          error=op["error"] or digest.failure or digest.mismatch
                          or workload.misannotation(digest))
        record.update(
            ops=ops,
            traced_from=traced_from,
            properties=workload.properties(),
            pool_rebuilds=rebuilds - rebuilds0,
            pool_breaks=breaks - breaks0,
        )
        if tracer is not None:
            record["trace"] = self._trace_record(tracer, installation, worker_dir, windows, memos)
        return record

    def _trace_record(self, tracer, installation, worker_dir, windows, memos) -> dict:
        from spans import read_worker_files, span_row

        tracer.resolve()
        installation.remove()
        workers = read_worker_files(worker_dir)
        shutil.rmtree(worker_dir)
        for worker in workers:
            for name, count in worker["memos"].items():
                memos[name] = memos.get(name, 0) + count
        return {
            "patched": installation.patched,
            "absent": installation.absent,
            "windows": windows,
            "memos": memos,
            "spans": [[span_row(s) for s in tracer.spans]]
            + [[span_row(s) for s in w["spans"]] for w in workers],
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    started = time.monotonic()
    with open(args.inputs) as handle:
        inputs = json.load(handle)
    loading = time.monotonic() - started
    session = Session(
        WORKLOADS[args.workload](inputs),
        trace=bool(args.trace),
        run_dir=args.run_dir,
        workers=FLEET_WORKERS if args.workload == "fleet" else 0,
    )
    record = {"workload": args.workload, **session.setup(args.spawned, loading)}
    if args.mode == "run":
        session.run(record)
    else:
        _shutdown_pools()
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
