"""Process-pool ``parallel_map`` with chunking, retries, and a serial
fallback.

The GANA flow has three embarrassingly parallel loops: synthetic
dataset generation, cross-validation folds, and fleet-scale batch
annotation.  All three funnel through :func:`parallel_map`, which

* resolves the worker count from the argument, the ``GANA_WORKERS``
  environment variable, or ``os.cpu_count()`` (in that order),
* preserves input order in the result list regardless of completion
  order (``ProcessPoolExecutor.map`` semantics),
* chunks items so per-task IPC overhead amortizes,
* retries transient pool failures (a killed/OOMed worker breaks the
  whole pool) with exponential backoff before giving up on the pool,
* keeps executors warm between calls: pools are expensive to build
  (fork + per-worker initializer), so pools without an initializer —
  and pools whose initializer state is fingerprinted by a ``pool_key``
  — are cached in a small LRU registry and handed back to the next
  compatible call instead of being torn down (see
  :func:`shutdown_pools`); a cached pool is health-checked at checkout
  (broken flag, shut-down flag, per-worker liveness) and silently
  rebuilt when a worker died between calls,
* supervises crashes when the caller passes ``on_crash``: a broken
  pool triggers a bisection over the item list that quarantines the
  specific poison item (run alone in a sacrificial single-worker
  pool) and maps it through ``on_crash`` while every sibling item
  completes normally — per-pool health counters (:func:`pool_health`)
  record breaks, rebuilds, and quarantines, and
* falls back to a plain serial loop when only one worker is available,
  when the item list is tiny, or when the pool cannot be used at all
  (unpicklable payloads, sandboxed environments without ``fork``) —
  results are identical either way, only wall-clock differs.  The
  fallback is *logged* with the original pool failure (logger
  ``repro.runtime.parallel``), and if the serial rerun itself fails,
  the pool failure is chained in as the exception's ``__cause__`` so
  batch failures stay debuggable.
"""

from __future__ import annotations

import atexit
import logging
import math
import os
import pickle
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

#: Environment variable overriding the default worker count.
WORKERS_ENV = "GANA_WORKERS"

#: Pool failures worth retrying: a crashed worker (OOM-kill, segfault,
#: ``os._exit``) breaks the executor, but a fresh pool usually works.
TRANSIENT_POOL_ERRORS = (BrokenProcessPool, OSError)

#: Pool failures that will never succeed on retry (unpicklable payloads,
#: missing multiprocessing support) — go straight to the serial path.
_FATAL_POOL_ERRORS = (
    ValueError,
    TypeError,
    AttributeError,
    ImportError,
    pickle.PicklingError,
)

_LOG = logging.getLogger(__name__)

#: Warm executors keyed by ``(n_workers, pool_key)``.  A ``None`` key
#: slot holds the generic no-initializer pool; keyed slots hold pools
#: whose per-worker initializer state is pinned by the caller's
#: ``pool_key`` fingerprint (same key ⇒ same initializer semantics, so
#: reuse is safe).  Ordered for LRU eviction.
_POOLS: "OrderedDict[tuple[int, str | None], ProcessPoolExecutor]" = OrderedDict()

#: How many warm pools to keep at once; the least recently used pool
#: beyond this is shut down.  Two covers the common interleaving of a
#: generic pool (cross-validation, dataset generation) with one
#: pipeline-initialized pool (batch annotation).
_MAX_POOLS = 2


@dataclass
class PoolHealth:
    """Lifecycle counters for one warm-pool registry slot.

    Counters survive pool rebuilds and shutdowns — they describe the
    *slot* (a ``(n_workers, pool_key)`` pairing), not one executor
    instance, so a long-lived host can watch crash rates over time.
    """

    checkouts: int = 0  # warm (reused) checkouts served
    rebuilt: int = 0  # cached pools found unhealthy and rebuilt
    maps: int = 0  # completed parallel_map calls
    items: int = 0  # items completed across those maps
    breaks: int = 0  # BrokenProcessPool/OSError events
    quarantined: int = 0  # poison items isolated by bisection


#: Health counters per registry key; see :func:`pool_health`.
_POOL_HEALTH: dict[tuple[int, str | None], PoolHealth] = {}


def _health(key: tuple[int, str | None]) -> PoolHealth:
    return _POOL_HEALTH.setdefault(key, PoolHealth())


def pool_health() -> dict[tuple[int, str | None], PoolHealth]:
    """Live per-slot health counters keyed by ``(n_workers, pool_key)``."""
    return dict(_POOL_HEALTH)


def reset_pool_health() -> None:
    """Zero all health counters (test isolation)."""
    _POOL_HEALTH.clear()


def _pool_is_healthy(pool: ProcessPoolExecutor) -> bool:
    """True when the executor can still serve work.

    Not broken, not shut down, and every spawned worker alive.  A
    worker that died *between* calls (OOM killer, external SIGKILL)
    only flags the executor on its next use — checking liveness up
    front keeps :func:`_checkout_pool` from handing out a doomed pool.
    """
    if getattr(pool, "_broken", False) or getattr(pool, "_shutdown_thread", False):
        return False
    processes = getattr(pool, "_processes", None) or {}
    return all(process.is_alive() for process in processes.values())


def _checkout_pool(
    n_workers: int,
    pool_key: str | None,
    initializer: Callable[..., None] | None,
    initargs: Sequence[Any],
) -> ProcessPoolExecutor:
    """Fetch (or build) the warm pool for this key; refresh its LRU slot.

    An unhealthy cached pool (dead worker, broken, already shut down)
    is discarded and replaced with a fresh one — callers never see it.
    """
    key = (n_workers, pool_key)
    pool = _POOLS.pop(key, None)
    if pool is not None and not _pool_is_healthy(pool):
        _LOG.warning(
            "warm pool %s is unhealthy (broken executor or dead worker); "
            "rebuilding",
            key,
        )
        _health(key).rebuilt += 1
        _shutdown_quietly(pool, wait=False)
        pool = None
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=initializer,
            initargs=tuple(initargs),
        )
    else:
        _health(key).checkouts += 1
    _POOLS[key] = pool
    while len(_POOLS) > _MAX_POOLS:
        _, stale = _POOLS.popitem(last=False)
        _shutdown_quietly(stale, wait=False)
    return pool


def _shutdown_quietly(
    pool: ProcessPoolExecutor, wait: bool, join_timeout: float = 10.0
) -> None:
    """Shut a pool down without letting a broken executor's teardown
    error escape into the caller's (often already-failing) path.

    The waiting path is bounded: a worker wedged by an unlucky fork
    (e.g. a child forked while another thread held a lock) stays alive
    but never drains its call queue, so ``shutdown(wait=True)`` would
    join the manager thread forever.  Grab the thread/process handles
    before ``shutdown`` clears them, give the manager ``join_timeout``
    seconds to drain, then kill the workers and join once more.
    """
    try:
        if not wait:
            pool.shutdown(wait=False, cancel_futures=True)
            return
        thread = getattr(pool, "_executor_manager_thread", None)
        procs = dict(getattr(pool, "_processes", None) or {})
        pool.shutdown(wait=False, cancel_futures=True)
        if thread is None:
            return
        thread.join(join_timeout)
        if thread.is_alive():
            _LOG.warning(
                "pool shutdown stalled >%.0fs; killing %d worker(s)",
                join_timeout,
                len(procs),
            )
            for proc in procs.values():
                try:
                    proc.kill()
                except Exception:
                    pass
            thread.join(join_timeout)
    except Exception:
        _LOG.debug("pool shutdown raised", exc_info=True)


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Drop a (presumed broken) pool from the registry and kill it."""
    for key, cached in list(_POOLS.items()):
        if cached is pool:
            del _POOLS[key]
    _shutdown_quietly(pool, wait=False)


def shutdown_pools(wait: bool = True) -> None:
    """Shut down every warm executor (atexit runs this with wait=False).

    Call it explicitly from long-lived hosts that want to release the
    worker processes early; the registry refills on the next pooled
    :func:`parallel_map` call.  Pools already marked broken (or with
    dead workers) are discarded without waiting — joining a crashed
    worker set at exit would hang the interpreter.
    """
    while _POOLS:
        _, pool = _POOLS.popitem(last=False)
        _shutdown_quietly(pool, wait=wait and _pool_is_healthy(pool))


atexit.register(shutdown_pools, wait=False)


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument > ``GANA_WORKERS`` > cpu count."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def default_chunksize(n_items: int, workers: int) -> int:
    """Aim for ~4 chunks per worker so stragglers rebalance."""
    return max(1, math.ceil(n_items / (workers * 4)))


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: int | None = None,
    chunksize: int | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: Sequence[Any] = (),
    pool_retries: int = 1,
    backoff: float = 0.2,
    pool_key: str | None = None,
    on_crash: Callable[[Any, BaseException], Any] | None = None,
) -> list[Any]:
    """``[fn(x) for x in items]``, possibly across a process pool.

    The result order always matches the input order.  ``fn`` (and the
    items) must be picklable for the pool path.  Transient pool
    failures (a worker killed mid-batch) are retried ``pool_retries``
    times with exponential backoff (``backoff * 2**attempt`` seconds);
    ``fn`` must therefore be effectively pure, since a retry recomputes
    the whole batch.  If the pool stays unusable the map reruns
    serially, logging the original pool failure — callers get the same
    values either way.

    ``initializer(*initargs)`` runs once per worker (pool path) or once
    up front (serial path) — use it to install heavyweight shared state
    such as a trained pipeline instead of pickling it per item.

    Pool reuse: a call with no initializer always reuses the warm
    generic pool.  A call *with* an initializer reuses a warm pool only
    when ``pool_key`` is given — the key must fingerprint the
    initializer state, because reused workers keep the state the pool's
    *first* call installed.  Without a key, an initializer call gets a
    throwaway pool, exactly as before.

    ``on_crash`` switches a broken pool from blind whole-batch retry to
    *supervision*: the item list is bisected across fresh pools until
    the poison item that kills its worker is isolated, that item maps
    to ``on_crash(item, exc)`` (e.g. a
    :class:`~repro.runtime.resilience.FailureReport`), and every other
    item completes normally.  The broken pool is evicted from the warm
    registry either way, so the next call gets a healthy pool.
    """
    items = list(items)
    n_workers = min(resolve_workers(workers), len(items))
    if n_workers <= 1 or len(items) <= 1:
        return _serial_map(fn, items, initializer, initargs)
    chunksize = chunksize or default_chunksize(len(items), n_workers)
    reusable = initializer is None or pool_key is not None
    key = (n_workers, pool_key if initializer is not None else None)

    pool_failure: BaseException | None = None
    for attempt in range(max(0, pool_retries) + 1):
        pool: ProcessPoolExecutor | None = None
        try:
            # Before any pool is touched: a pool fed a callable it
            # cannot pickle fails inside its executor thread, after
            # forking its workers.
            pickle.dumps(fn)
            if reusable:
                pool = _checkout_pool(
                    n_workers,
                    pool_key if initializer is not None else None,
                    initializer,
                    initargs,
                )
                result = list(pool.map(fn, items, chunksize=chunksize))
            else:
                with ProcessPoolExecutor(
                    max_workers=n_workers,
                    initializer=initializer,
                    initargs=tuple(initargs),
                ) as pool:
                    result = list(pool.map(fn, items, chunksize=chunksize))
            health = _health(key)
            health.maps += 1
            health.items += len(items)
            return result
        except _FATAL_POOL_ERRORS as exc:
            pool_failure = exc
            _LOG.warning(
                "process pool unusable (%s: %s); falling back to the "
                "serial path",
                type(exc).__name__,
                exc,
            )
            break
        except TRANSIENT_POOL_ERRORS as exc:
            pool_failure = exc
            _health(key).breaks += 1
            if reusable and pool is not None:
                # A broken pool must never be handed to the next call.
                _discard_pool(pool)
            if on_crash is not None:
                _LOG.warning(
                    "process pool broke (%s: %s); bisecting %d item(s) to "
                    "quarantine the crash",
                    type(exc).__name__,
                    exc,
                    len(items),
                )
                return _bisect_map(
                    fn, items, n_workers, initializer, initargs, on_crash, key
                )
            if attempt < pool_retries:
                delay = backoff * (2**attempt)
                _LOG.warning(
                    "process pool failed (%s: %s); rebuilding and "
                    "retrying in %.2gs (attempt %d of %d)",
                    type(exc).__name__,
                    exc,
                    delay,
                    attempt + 1,
                    pool_retries,
                )
                time.sleep(delay)
            else:
                _LOG.warning(
                    "process pool failed %d time(s) (%s: %s); falling "
                    "back to the serial path",
                    attempt + 1,
                    type(exc).__name__,
                    exc,
                )

    try:
        return _serial_map(fn, items, initializer, initargs)
    except Exception as exc:
        if pool_failure is not None and exc.__cause__ is None:
            # Surface the pool failure alongside the serial one —
            # "silently swallowed the pool error" is undebuggable.
            raise exc from pool_failure
        raise


def _bisect_map(
    fn: Callable[[Any], Any],
    items: list[Any],
    n_workers: int,
    initializer: Callable[..., None] | None,
    initargs: Sequence[Any],
    on_crash: Callable[[Any, BaseException], Any],
    key: tuple[int, str | None],
) -> list[Any]:
    """Quarantine the poison item(s) in a crashed batch.

    ``BrokenProcessPool`` gives no hint *which* item killed its worker
    — every in-flight future is marked broken — so the whole list is
    suspect.  Classic fault isolation: split in half, run each half on
    a fresh throwaway pool, recurse into halves that crash again.  A
    single suspect item runs alone in a sacrificial one-worker pool; if
    it kills that worker too, it is quarantined through ``on_crash``.
    A purely transient crash (a worker OOM-killed once) costs one level
    of bisection and quarantines nothing — both halves simply succeed
    on their fresh pools.
    """
    if len(items) == 1:
        try:
            with ProcessPoolExecutor(
                max_workers=1,
                initializer=initializer,
                initargs=tuple(initargs),
            ) as solo:
                return [solo.submit(fn, items[0]).result()]
        except TRANSIENT_POOL_ERRORS as exc:
            _health(key).quarantined += 1
            _LOG.warning(
                "quarantined poison item (%s: %s)", type(exc).__name__, exc
            )
            return [on_crash(items[0], exc)]
    mid = len(items) // 2
    results: list[Any] = []
    for half in (items[:mid], items[mid:]):
        if len(half) == 1:
            # Straight to the sacrificial solo pool — mapping a single
            # suspect in a throwaway pool first would just crash twice.
            results.extend(
                _bisect_map(
                    fn, half, n_workers, initializer, initargs, on_crash, key
                )
            )
            continue
        try:
            with ProcessPoolExecutor(
                max_workers=min(n_workers, len(half)),
                initializer=initializer,
                initargs=tuple(initargs),
            ) as pool:
                # Materialize before extending: a crash mid-iteration
                # must not leave half-consumed results in the output.
                mapped = list(pool.map(fn, half, chunksize=1))
            results.extend(mapped)
        except TRANSIENT_POOL_ERRORS:
            _health(key).breaks += 1
            results.extend(
                _bisect_map(
                    fn, half, n_workers, initializer, initargs, on_crash, key
                )
            )
    return results


def _serial_map(fn, items, initializer, initargs) -> list[Any]:
    if initializer is not None:
        initializer(*initargs)
    return [fn(item) for item in items]
