"""Graceful degradation: when GCN inference dies (or is too unsure),
``GanaPipeline.run`` falls back to the template-library classifier.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.pipeline import GanaPipeline
from repro.core.stages import STAGE_ORDER
from repro.datasets.ota import generate_ota, ota_variants
from repro.runtime.cache import ArtifactCache
from repro.spice.writer import write_circuit

OTA_CLASSES = ("ota", "bias")


class _BrokenAnnotator:
    """Annotator whose inference always dies (e.g. corrupted weights)."""

    class_names = OTA_CLASSES

    def annotate(self, graph, net_roles=None):
        raise RuntimeError("weights corrupted")


@pytest.fixture(scope="module")
def deck():
    spec = ota_variants(1, seed="degradation")[0]
    return write_circuit(generate_ota(spec, name="victim").circuit)


@pytest.fixture(scope="module")
def pipeline(quick_ota_annotator):
    return GanaPipeline(annotator=quick_ota_annotator)


class TestDegradation:
    def test_gcn_failure_falls_back(self, deck):
        pipeline = GanaPipeline(annotator=_BrokenAnnotator())
        result = pipeline.run(deck)
        assert result.degraded
        assert "GCN inference failed" in result.degraded_reason
        assert "RuntimeError" in result.degraded_reason
        # The fallback still produces a usable annotation over the
        # task's vocabulary.
        classes = set(result.annotation.element_classes.values())
        assert classes <= set(OTA_CLASSES) | {"?"}
        assert result.hierarchy is not None

    def test_degrade_false_propagates(self, deck):
        pipeline = GanaPipeline(annotator=_BrokenAnnotator(), degrade=False)
        with pytest.raises(RuntimeError, match="weights corrupted"):
            pipeline.run(deck)

    def test_healthy_run_is_not_degraded(self, pipeline, deck):
        result = pipeline.run(deck)
        assert not result.degraded
        assert result.degraded_reason is None

    def test_confidence_floor_triggers_fallback(self, quick_ota_annotator, deck):
        # An unattainable floor (softmax tops out at 1.0) forces the
        # "all vertices below the floor" path.
        pipeline = GanaPipeline(
            annotator=quick_ota_annotator, confidence_floor=1.5
        )
        result = pipeline.run(deck)
        assert result.degraded
        assert "confidence below" in result.degraded_reason

    def test_confidence_floor_zero_disables_check(
        self, quick_ota_annotator, deck
    ):
        pipeline = GanaPipeline(
            annotator=quick_ota_annotator, confidence_floor=0.0
        )
        assert not pipeline.run(deck).degraded

    def test_fallback_recognizer_is_cached(self, deck):
        pipeline = GanaPipeline(annotator=_BrokenAnnotator())
        pipeline.run(deck)
        first = pipeline._fallback()
        pipeline.run(deck)
        assert pipeline._fallback() is first
        # The public field names an injected recognizer only.
        assert pipeline.fallback_recognizer is None

    def test_degraded_run_keeps_pool_and_stage_cache_keys(
        self, quick_ota_annotator, deck, tmp_path
    ):
        pipeline = GanaPipeline(annotator=quick_ota_annotator)
        key = pipeline._pool_key()
        pipeline.confidence_floor = 1.5
        assert pipeline.run(deck).degraded
        pipeline.confidence_floor = 0.0
        assert pipeline._pool_key() == key
        cache = ArtifactCache(tmp_path)
        pipeline.run_staged(deck, artifact_cache=cache)
        warm = pipeline.run_staged(deck, artifact_cache=cache)
        assert set(warm.cache_hits) == set(STAGE_ORDER)

    def test_degraded_probabilities_are_one_hot(self, deck):
        pipeline = GanaPipeline(annotator=_BrokenAnnotator())
        result = pipeline.run(deck)
        probs = result.gcn_annotation.probabilities
        assert probs is not None
        assert probs.shape[1] == len(OTA_CLASSES)
        assert ((probs == 0.0) | (probs == 1.0)).all()
        assert (probs.sum(axis=1) == 1.0).all()


#: Every deck degrades (the floor is unattainable) inside a two-worker
#: run_many, so the template fallback is built in the pool workers.
_DEGRADE_IN_POOL = """
from repro.core.pipeline import GanaPipeline
from repro.datasets.ota import generate_ota, ota_variants
from repro.datasets.synth import pretrain_annotator
from repro.spice.writer import write_circuit

decks = [
    write_circuit(generate_ota(spec, name=f"pool{i}").circuit)
    for i, spec in enumerate(ota_variants(4, seed="degrade-in-pool"))
]
annotator = pretrain_annotator("ota", quick=True, train_size=150, seed=0)
pipeline = GanaPipeline(annotator=annotator, confidence_floor=1.5)
results = pipeline.run_many(decks, workers=2, on_error="report")
assert all(r.ok and r.degraded for r in results), results
"""


def test_degrading_in_pool_workers_lets_the_interpreter_exit(
    quick_ota_annotator,
):
    # The session fixture has stored the model in the (inherited)
    # GANA_CACHE_DIR, so the child loads it instead of training.
    # GANA_WORKERS=2 makes any nested pool a real one on every host.
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "GANA_WORKERS": "2", "PYTHONPATH": str(src)}
    # A session of its own, so a hang can be killed with every pool
    # worker the child forked.
    child = subprocess.Popen(
        [sys.executable, "-c", _DEGRADE_IN_POOL],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("the interpreter did not exit within 60 s")
    assert child.returncode == 0, err
