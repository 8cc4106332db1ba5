"""Runtime layer: caching, parallel execution, and resilience.

The paper's headline numbers are wall-clock (Sec. V-B: 135 s for the
switched-capacitor filter, 514 s for the phased array), and the
north-star deployment feeds the flow arbitrary user netlists at
volume — so runtime behaviour is a first-class concern of the
reproduction.  This package holds the infrastructure the rest of the
code builds on:

* :mod:`repro.runtime.cache` — a content-addressed disk cache for
  trained recognition models, so ``GanaPipeline.pretrained()`` is a
  millisecond load after the first call in *any* process;
* :mod:`repro.runtime.parallel` — a process-pool ``parallel_map`` with
  chunking, deterministic result ordering, transient-failure retries,
  and a logged serial fallback; used for dataset generation,
  cross-validation folds, and batch annotation;
* :mod:`repro.runtime.resilience` — structured diagnostics for lenient
  parsing, per-item failure reports for fault-isolated batch runs,
  step/wall-clock budgets for unbounded searches, and SIGALRM
  time limits.

A run's profile needs no package of its own: the staged runner builds
it for every run from the seconds and matcher statistics the run
already records (:func:`repro.core.stages.run_profile`).
"""

from repro.runtime.cache import (
    ModelCache,
    cache_enabled,
    default_cache_dir,
    fingerprint,
)
from repro.runtime.parallel import parallel_map, resolve_workers
from repro.runtime.resilience import (
    Budget,
    Diagnostic,
    FailureReport,
    diagnostic_from_error,
    failure_report,
    stage,
    time_limit,
)

__all__ = [
    "Budget",
    "Diagnostic",
    "FailureReport",
    "ModelCache",
    "cache_enabled",
    "default_cache_dir",
    "diagnostic_from_error",
    "failure_report",
    "fingerprint",
    "parallel_map",
    "resolve_workers",
    "stage",
    "time_limit",
]
