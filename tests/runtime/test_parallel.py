"""The process-pool map: ordering, fallback, worker resolution, the
warm-pool registry, and its one failure path."""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import parallel
from repro.runtime.parallel import (
    default_chunksize,
    parallel_map,
    resolve_workers,
    shutdown_pools,
)


def _square(x: int) -> int:
    return x * x


def _tag_pid(x: int) -> tuple[int, int]:
    return x, os.getpid()


_STATE: str | None = None


def _set_state(value: str) -> None:
    global _STATE
    _STATE = value


def _get_state(x: int) -> tuple[str | None, int]:
    return _STATE, os.getpid()


def _noop_init() -> None:
    pass


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("GANA_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("GANA_WORKERS", "5")
        assert resolve_workers() == 5

    def test_garbage_env_falls_through(self, monkeypatch):
        monkeypatch.setenv("GANA_WORKERS", "many")
        assert resolve_workers() >= 1

    def test_default_is_positive(self, monkeypatch):
        monkeypatch.delenv("GANA_WORKERS", raising=False)
        assert resolve_workers() >= 1

    def test_floor_of_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1


class TestChunksize:
    def test_small_input_single_chunks(self):
        assert default_chunksize(3, 8) == 1

    def test_large_input_amortizes(self):
        assert default_chunksize(1000, 4) > 1


class TestParallelMap:
    def test_serial_path_preserves_order(self):
        assert parallel_map(_square, range(10), workers=1) == [
            x * x for x in range(10)
        ]

    def test_pool_path_preserves_order(self):
        # Forcing two workers exercises the pool even on a 1-cpu host.
        assert parallel_map(_square, range(20), workers=2) == [
            x * x for x in range(20)
        ]

    def test_empty_input(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_single_item_stays_serial(self):
        result = parallel_map(_tag_pid, [3], workers=8)
        assert result == [(3, os.getpid())]

    def test_unpicklable_fn_falls_back_to_serial(self):
        # Lambdas don't pickle; the pool attempt must degrade, not raise.
        result = parallel_map(lambda x: x + 1, range(6), workers=2)
        assert result == [1, 2, 3, 4, 5, 6]

    def test_initializer_runs_in_serial_path(self):
        calls = []
        result = parallel_map(
            _square, [2, 3], workers=1, initializer=calls.append, initargs=("yes",)
        )
        assert result == [4, 9]
        assert calls == ["yes"]

    def test_worker_exception_propagates(self):
        import pytest

        def boom(x):
            raise RuntimeError("worker failure")

        with pytest.raises(RuntimeError, match="worker failure"):
            parallel_map(boom, range(3), workers=1)


class TestPoolReuse:
    """ISSUE 6 satellite: ``parallel_map`` must not tear its pool down
    on every call — warm pools are cached and handed back."""

    def test_generic_pool_is_reused(self):
        shutdown_pools()
        first = {pid for _, pid in parallel_map(_tag_pid, range(8), workers=2)}
        executor = parallel._POOLS.get((2, None))
        assert executor is not None
        second = {pid for _, pid in parallel_map(_tag_pid, range(8), workers=2)}
        # Same executor object served both calls; a torn-down-and-
        # rebuilt pool would have forked fresh worker processes.
        assert parallel._POOLS.get((2, None)) is executor
        assert len(first | second) <= 2
        assert len(parallel._POOLS) == 1

    def test_shutdown_pools_clears_registry(self):
        shutdown_pools()
        parallel_map(_square, range(4), workers=2)
        assert parallel._POOLS
        shutdown_pools()
        assert not parallel._POOLS
        # The registry refills on the next pooled call.
        assert parallel_map(_square, range(4), workers=2) == [0, 1, 4, 9]
        assert len(parallel._POOLS) == 1

    def test_initializer_without_key_is_ephemeral(self):
        shutdown_pools()
        parallel_map(_square, range(4), workers=2, initializer=_noop_init)
        # Unkeyed initializer state can't be trusted across calls.
        assert not parallel._POOLS

    def test_keyed_initializer_pool_is_reused(self):
        shutdown_pools()
        kwargs = dict(
            workers=2,
            initializer=_set_state,
            initargs=("alpha",),
            pool_key="state-alpha",
        )
        first = parallel_map(_get_state, range(4), **kwargs)
        assert all(state == "alpha" for state, _ in first)
        executor = parallel._POOLS.get((2, "state-alpha"))
        assert executor is not None
        second = parallel_map(_get_state, range(4), **kwargs)
        # Reused workers still carry the initializer-installed state.
        assert all(state == "alpha" for state, _ in second)
        assert parallel._POOLS.get((2, "state-alpha")) is executor
        pids = {pid for _, pid in first} | {pid for _, pid in second}
        assert len(pids) <= 2
        assert list(parallel._POOLS) == [(2, "state-alpha")]

    def test_lru_evicts_oldest_pool(self):
        shutdown_pools()
        parallel_map(_square, range(4), workers=2)
        parallel_map(_square, range(4), workers=3)
        parallel_map(_square, range(4), workers=4)
        keys = list(parallel._POOLS)
        assert len(keys) == parallel._MAX_POOLS
        assert (2, None) not in keys


def _exit_on_three(x: int) -> int:
    if x == 3:
        os._exit(1)  # simulated segfault: kills the worker, no traceback
    return x * 2


def _always_exit(x: int) -> int:
    os._exit(1)


def _crash_once_marker(payload) -> int:
    """Dies while the marker file exists (and disarms it): a transient
    crash — an OOM-killed worker — rather than a poison item."""
    marker, x = payload
    if x == 0 and os.path.exists(marker):
        try:
            os.unlink(marker)
        except OSError:
            pass
        os._exit(1)
    return x


def _lost(item, exc):
    return ("lost", item)


class TestPoolSupervision:
    """ISSUE 7: broken pools are quarantined, not resold.

    ``_checkout_pool`` must never hand out an executor with a dead
    worker; a poison item that kills its worker is bisected out and
    mapped through ``on_crash`` while its siblings complete.
    """

    def _break_warm_pool(self):
        shutdown_pools()
        parallel.reset_pool_health()
        assert parallel_map(_square, range(8), workers=2) == [
            x * x for x in range(8)
        ]
        executor = parallel._POOLS[(2, None)]
        with pytest.raises(BrokenProcessPool):
            executor.submit(os._exit, 1).result()
        return executor

    def test_checkout_discards_pool_with_dead_worker(self):
        # The worker dies *between* calls (external SIGKILL / OOM
        # killer) — nothing marks the executor broken until it is
        # health-checked at the next checkout.
        shutdown_pools()
        parallel.reset_pool_health()
        parallel_map(_square, range(8), workers=2)
        executor = parallel._POOLS[(2, None)]
        victim_pid, victim = next(iter(executor._processes.items()))
        os.kill(victim_pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while victim.is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not parallel._pool_is_healthy(executor)

        assert parallel_map(_square, range(8), workers=2) == [
            x * x for x in range(8)
        ]
        assert parallel._POOLS[(2, None)] is not executor
        assert parallel.pool_health()[(2, None)].rebuilt == 1

    def test_broken_executor_is_rebuilt_at_checkout(self):
        executor = self._break_warm_pool()
        assert parallel_map(_square, range(8), workers=2) == [
            x * x for x in range(8)
        ]
        assert parallel._POOLS[(2, None)] is not executor
        assert parallel.pool_health()[(2, None)].rebuilt >= 1

    def test_shutdown_pools_survives_broken_pool(self):
        self._break_warm_pool()
        shutdown_pools()  # must neither raise nor hang on the corpse
        assert not parallel._POOLS

    @pytest.mark.slow
    def test_waiting_shutdown_is_bounded_for_wedged_worker(self):
        # A worker that is alive but never drains (here: stuck in a
        # long sleep) must not hang the waiting shutdown forever; the
        # bounded join kills the workers after ``join_timeout``.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=1)
        future = pool.submit(time.sleep, 600)
        deadline = time.monotonic() + 10
        while not future.running() and time.monotonic() < deadline:
            time.sleep(0.05)
        start = time.monotonic()
        parallel._shutdown_quietly(pool, wait=True, join_timeout=1.0)
        assert time.monotonic() - start < 8

    def test_poison_item_is_quarantined_and_siblings_complete(self):
        shutdown_pools()
        parallel.reset_pool_health()
        out = parallel_map(
            _exit_on_three, range(6), workers=2, on_crash=_lost
        )
        assert out == [0, 2, 4, ("lost", 3), 8, 10]
        health = parallel.pool_health()[(2, None)]
        assert health.breaks >= 1
        assert health.quarantined == 1
        # The broken pool was evicted; the next call starts healthy.
        assert parallel_map(_square, range(6), workers=2) == [
            x * x for x in range(6)
        ]

    def test_every_item_poison_still_returns_placeholders(self):
        shutdown_pools()
        parallel.reset_pool_health()
        out = parallel_map(_always_exit, range(4), workers=2, on_crash=_lost)
        assert out == [("lost", x) for x in range(4)]
        assert parallel.pool_health()[(2, None)].quarantined == 4

    def test_transient_crash_with_supervision_loses_nothing(self, tmp_path):
        # A once-only crash is not a poison item: bisection reruns both
        # halves on fresh pools, everything completes, nothing is
        # quarantined.
        shutdown_pools()
        parallel.reset_pool_health()
        marker = tmp_path / "crash-once"
        marker.write_text("armed")
        items = [(str(marker), x) for x in range(6)]
        out = parallel_map(
            _crash_once_marker, items, workers=2, on_crash=_lost
        )
        assert out == list(range(6))
        health = parallel.pool_health()[(2, None)]
        assert health.breaks >= 1
        assert health.quarantined == 0


def _log_and_raise(payload) -> int:
    """Append ``item pid`` to the log per call; item 5 raises."""
    log, x, error = payload
    with open(log, "a") as fh:
        fh.write(f"{x} {os.getpid()}\n")
    time.sleep(0.05)
    if x == 5:
        raise error(f"item {x} failed")
    return x


#: Run in a subprocess: a poison item mapped in the calling process
#: would end that process with the item's exit status.
_POISON_SCRIPT = """
import os
from concurrent.futures.process import BrokenProcessPool
from repro.runtime.parallel import parallel_map

def exit_on_three(x):
    if x == 3:
        os._exit(7)
    return x

try:
    parallel_map(exit_on_three, range(6), workers=2)
except BrokenProcessPool:
    print("BrokenProcessPool")
"""


def _serial_path_records(caplog) -> list[str]:
    return [
        record.getMessage()
        for record in caplog.records
        if "serial path" in record.getMessage()
    ]


class TestOneFailurePath:
    """A broken pool always bisects, and ``fn``'s own errors propagate
    from the pool: nothing is retried, and nothing reruns in the
    calling process."""

    def test_poison_item_without_on_crash_raises(self):
        src_dir = Path(parallel.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        proc = subprocess.run(
            [sys.executable, "-c", _POISON_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["BrokenProcessPool"]

    @pytest.mark.parametrize("error", [ValueError, OSError])
    def test_fn_error_propagates_from_the_pool(self, error, tmp_path, caplog):
        log = tmp_path / "calls.log"
        items = [(str(log), x, error) for x in range(8)]
        with caplog.at_level(logging.WARNING, logger="repro.runtime.parallel"):
            with pytest.raises(error, match="item 5 failed"):
                parallel_map(_log_and_raise, items, workers=2)
        calls = [line.split() for line in log.read_text().splitlines()]
        called = [int(x) for x, _ in calls]
        assert 5 in called
        assert len(called) == len(set(called))  # each item at most once
        assert str(os.getpid()) not in {pid for _, pid in calls}
        assert not _serial_path_records(caplog)

    def test_break_during_submission_bisects(self, monkeypatch):
        # An early item can kill its worker while ``map`` is still
        # submitting later chunks; ``submit`` then raises
        # BrokenProcessPool before any result is read.
        class _BreaksOnSubmit:
            def map(self, *args, **kwargs):
                raise BrokenProcessPool("worker died during submission")

            def shutdown(self, *args, **kwargs):
                pass

        shutdown_pools()
        parallel.reset_pool_health()
        monkeypatch.setattr(
            parallel, "_checkout_pool", lambda *args: _BreaksOnSubmit()
        )
        out = parallel_map(_square, range(6), workers=2, on_crash=_lost)
        assert out == [x * x for x in range(6)]
        assert parallel.pool_health()[(2, None)].breaks == 1


def _sample_arrays(sample) -> list[np.ndarray]:
    pyramid = sample.pyramid
    return [
        sample.features,
        sample.labels,
        sample.mask,
        *pyramid.assignments,
        *(
            array
            for lap in pyramid.laplacians
            for array in (lap.indptr, lap.indices, lap.data)
        ),
    ]


class TestRealCallersUseThePool:
    """Every real caller's items and results pickle, so ``workers=2``
    runs on the pool (an unpicklable item would raise, not fall back)
    and equals ``workers=1``."""

    def test_dataset_samples_and_folds_match_serial(self, caplog):
        from repro.datasets.synth import (
            build_samples,
            generate_ota_bias_dataset,
            task_classes,
        )
        from repro.gcn.model import GCNConfig
        from repro.gcn.train import TrainConfig, cross_validate

        shutdown_pools()
        classes = task_classes("ota")
        runs = {}
        with caplog.at_level(logging.WARNING, logger="repro.runtime.parallel"):
            for workers in (1, 2):
                dataset = generate_ota_bias_dataset(12, workers=workers)
                samples = build_samples(dataset, classes, workers=workers)
                config = GCNConfig(
                    n_features=samples[0].features.shape[1],
                    n_classes=len(classes),
                    filter_size=4,
                    channels=(8, 8),
                    fc_size=16,
                    seed=0,
                )
                folds = cross_validate(
                    config,
                    samples,
                    folds=3,
                    train_config=TrainConfig(epochs=3, patience=0),
                    workers=workers,
                )
                runs[workers] = dataset, samples, folds
        assert (2, None) in parallel._POOLS
        assert not _serial_path_records(caplog)
        serial_data, serial_samples, serial_folds = runs[1]
        pooled_data, pooled_samples, pooled_folds = runs[2]
        assert pooled_data == serial_data
        assert [s.name for s in pooled_samples] == [s.name for s in serial_samples]
        for got, want in zip(pooled_samples, serial_samples):
            for a, b in zip(_sample_arrays(got), _sample_arrays(want), strict=True):
                assert np.array_equal(a, b)
        assert pooled_folds == serial_folds
