"""Shared benchmark infrastructure.

* **Scale** — ``REPRO_SCALE=paper`` (default) reproduces the paper's
  dataset sizes and training budget; ``REPRO_SCALE=quick`` shrinks
  everything for smoke runs.
* **Model cache** — trained recognition models go through the runtime
  model cache (:mod:`repro.runtime.cache`; ``~/.cache/gana`` or
  ``GANA_CACHE_DIR``), so the first benchmark run pays for training
  once and later runs (and other benchmarks, and the CLI) reuse it.
* **Results** — every benchmark writes its reproduced table/figure to
  ``benchmarks/results/<name>.txt`` and prints it, so the numbers
  survive pytest's output capture.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.annotator import GcnAnnotator
from repro.core.pipeline import GanaPipeline
from repro.datasets.synth import pretrain_annotator
from repro.primitives.index import template_profile
from repro.primitives.library import PrimitiveLibrary, extended_library

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Committed perf trajectory — each section is updated in place by the
#: corresponding benchmark/check, so numbers from different runs coexist.
BENCH_JSON = REPO_ROOT / "BENCH_runtime.json"

SCALE = os.environ.get("REPRO_SCALE", "paper")
PAPER = SCALE != "quick"


def update_bench_json(section: str, payload: dict) -> None:
    """Rewrite one section of ``BENCH_runtime.json`` in place."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except ValueError:
            data = {}
    data[section] = payload
    data["host"] = {"cpu_count": os.cpu_count(), "scale": SCALE}
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

#: Dataset/training sizes per scale.
OTA_TRAIN = 624 if PAPER else 80
RF_TRAIN = 608 if PAPER else 80
OTA_TEST = 168 if PAPER else 24
RF_TEST = 105 if PAPER else 16
EPOCHS = 60 if PAPER else 12


def load_annotator(task: str) -> GcnAnnotator:
    """Train (or load from the runtime cache) the task's model."""
    return pretrain_annotator(task, quick=not PAPER)


def load_pipeline(task: str) -> GanaPipeline:
    return GanaPipeline(annotator=load_annotator(task))


def fresh_library(make=extended_library) -> PrimitiveLibrary:
    """A new library, with its template profiles already built.

    A library keeps the CCC shapes it has searched for its lifetime, so
    a run on a warm one searches only shapes it has not seen.  A run on
    this one searches every shape of its deck, as in a new process, and
    a timed run pays for those searches, not for profiling the
    templates.
    """
    library = make()
    for template in library.templates:
        template_profile(template)
    return library


def write_result(name: str, text: str) -> None:
    """Persist a reproduced table/figure and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text)
    print(f"\n=== {name} ===\n{text}")
