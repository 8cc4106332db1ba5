"""Trained-model cache: correctness, corruption fallback, knobs; and
the artifact cache's one envelope.

The load-bearing guarantee (ISSUE 1 acceptance): an annotator loaded
from cache produces bit-identical predictions to a freshly trained
one, and any unreadable cache entry silently falls back to retraining.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.core.stages as stages_module
from repro.core.stages import Artifact, StageName, load_artifacts
from repro.datasets.ota import OtaSpec, generate_ota
from repro.datasets.synth import pretrain_annotator, training_fingerprint
from repro.gcn.model import GCNConfig
from repro.gcn.samples import GraphSample
from repro.gcn.train import TrainConfig
from repro.graph.bipartite import CircuitGraph
from repro.runtime.cache import (
    CACHE_FORMAT_VERSION,
    ArtifactCache,
    ModelCache,
    cache_enabled,
    default_cache_dir,
    fingerprint,
)
from repro.spice.parser import parse_netlist
from tests.conftest import DIFF_OTA_DECK

#: Tiny-but-real training spec shared by the tests below.
TRAIN_KW = dict(task="ota", quick=True, train_size=12, seed=3)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    path = tmp_path / "model-cache"
    monkeypatch.setenv("GANA_CACHE_DIR", str(path))
    return path


def _probe_probabilities(annotator) -> np.ndarray:
    lc = generate_ota(OtaSpec(topology="five_transistor"), name="cache_probe")
    graph = CircuitGraph.from_circuit(lc.circuit)
    sample = GraphSample.from_graph(
        graph, {}, levels=annotator.model.config.levels_needed
    )
    return annotator.model.predict_proba_batch([sample])[0]


class TestFingerprint:
    def test_key_order_does_not_matter(self):
        a = fingerprint({"x": 1, "y": (2, 3)})
        b = fingerprint({"y": (2, 3), "x": 1})
        assert a == b

    def test_dataclasses_fingerprint_stably(self):
        a = fingerprint({"m": GCNConfig(), "t": TrainConfig()})
        b = fingerprint({"m": GCNConfig(), "t": TrainConfig()})
        assert a == b

    def test_spec_changes_change_the_key(self):
        base = training_fingerprint("ota", 72, 0, GCNConfig(), TrainConfig())
        assert base != training_fingerprint(
            "ota", 72, 1, GCNConfig(), TrainConfig()
        )
        assert base != training_fingerprint(
            "ota", 73, 0, GCNConfig(), TrainConfig()
        )
        assert base != training_fingerprint(
            "ota", 72, 0, GCNConfig(filter_size=16), TrainConfig()
        )

    def test_unfingerprintable_object_raises(self):
        with pytest.raises(TypeError):
            fingerprint({"fn": object()})


class TestEnvironmentKnobs:
    def test_cache_dir_override(self, cache_dir):
        assert default_cache_dir() == cache_dir

    def test_no_cache_env(self, monkeypatch):
        monkeypatch.setenv("GANA_NO_CACHE", "1")
        assert not cache_enabled()
        monkeypatch.setenv("GANA_NO_CACHE", "")
        assert cache_enabled()


class TestCacheCorrectness:
    def test_cached_predictions_bit_identical(self, cache_dir):
        fresh = pretrain_annotator(**TRAIN_KW)  # trains, stores
        assert len(ModelCache().entries()) == 1
        cached = pretrain_annotator(**TRAIN_KW)  # loads
        retrained = pretrain_annotator(**TRAIN_KW, cache=False)
        p_cached = _probe_probabilities(cached)
        assert np.array_equal(p_cached, _probe_probabilities(fresh))
        assert np.array_equal(p_cached, _probe_probabilities(retrained))
        assert cached.class_names == fresh.class_names

    def test_cache_off_stores_nothing(self, cache_dir):
        pretrain_annotator(**TRAIN_KW, cache=False)
        assert ModelCache().entries() == []

    def test_no_cache_env_bypasses(self, cache_dir, monkeypatch):
        monkeypatch.setenv("GANA_NO_CACHE", "1")
        pretrain_annotator(**TRAIN_KW)
        assert ModelCache().entries() == []

    def test_corrupted_entry_falls_back_to_retraining(self, cache_dir):
        baseline = pretrain_annotator(**TRAIN_KW)
        [entry] = ModelCache().entries()
        entry.write_bytes(b"this is not an npz archive")
        recovered = pretrain_annotator(**TRAIN_KW)
        assert np.array_equal(
            _probe_probabilities(recovered), _probe_probabilities(baseline)
        )
        # The poisoned file was replaced by a healthy rewrite.
        assert len(ModelCache().entries()) == 1
        reloaded = ModelCache().load(
            ModelCache().entries()[0].name.removesuffix(".npz")
        )
        assert reloaded is not None

    def test_truncated_entry_is_a_miss(self, cache_dir):
        pretrain_annotator(**TRAIN_KW)
        [entry] = ModelCache().entries()
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 3])
        key = entry.name.removesuffix(".npz")
        assert ModelCache().load(key) is None
        assert not entry.exists()  # bad entries are evicted

    def test_stale_format_version_is_a_miss(self, cache_dir, monkeypatch):
        pretrain_annotator(**TRAIN_KW)
        [entry] = ModelCache().entries()
        key = entry.name.removesuffix(".npz")
        import repro.runtime.cache as cache_module

        monkeypatch.setattr(
            cache_module, "CACHE_FORMAT_VERSION", CACHE_FORMAT_VERSION + 1
        )
        assert ModelCache().load(key) is None

    def test_clear_removes_entries(self, cache_dir):
        pretrain_annotator(**TRAIN_KW)
        cache = ModelCache()
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_store_survives_unwritable_directory(self, tmp_path, monkeypatch):
        annotator = pretrain_annotator(**TRAIN_KW, cache=False)
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        cache = ModelCache(blocked)
        assert cache.store("somekey", annotator) is None  # no raise


class TestArtifactCache:
    """Entries are :meth:`Artifact.save` envelopes with the key as
    fingerprint; anything else under a key is a miss and is removed."""

    @pytest.fixture()
    def artifact(self):
        return Artifact(
            stage=StageName.PARSE,
            source=parse_netlist(DIFF_OTA_DECK),
            mode="strict",
        )

    def test_store_leaves_the_artifact_unchanged(self, tmp_path, artifact):
        cache = ArtifactCache(tmp_path)
        before = artifact.content_fingerprint()
        assert cache.store("key-a", artifact) is not None
        assert artifact.fingerprint == ""
        artifact.fingerprint = "key-b"
        cache.store("key-c", artifact)
        assert artifact.fingerprint == "key-b"
        assert artifact.content_fingerprint() == before
        assert cache.load("key-a").fingerprint == "key-a"
        assert cache.load("key-c").fingerprint == "key-c"

    def test_entry_is_a_saved_artifact(self, tmp_path, artifact):
        cache = ArtifactCache(tmp_path)
        path = cache.store("some-key", artifact)
        loaded = Artifact.load(path)
        assert loaded.fingerprint == "some-key"
        assert loaded.content_fingerprint() == artifact.content_fingerprint()
        [listed] = load_artifacts(path)
        assert listed.fingerprint == "some-key"

    def test_format_bump_is_a_miss(self, tmp_path, artifact, monkeypatch):
        cache = ArtifactCache(tmp_path)
        path = cache.store("some-key", artifact)
        monkeypatch.setattr(
            stages_module,
            "ARTIFACT_FORMAT_VERSION",
            stages_module.ARTIFACT_FORMAT_VERSION + 1,
        )
        assert cache.load("some-key") is None
        assert not path.exists()

    def test_payload_entry_is_a_miss(self, tmp_path, artifact):
        cache = ArtifactCache(tmp_path)
        path = cache.path_for("some-key")
        path.write_bytes(
            pickle.dumps(
                {
                    "format_version": CACHE_FORMAT_VERSION,
                    "key": "some-key",
                    "value": artifact,
                }
            )
        )
        assert cache.load("some-key") is None
        assert not path.exists()

    def test_entry_under_another_key_is_a_miss(self, tmp_path, artifact):
        cache = ArtifactCache(tmp_path)
        cache.store("key-a", artifact)
        moved = cache.path_for("key-b")
        moved.write_bytes(cache.path_for("key-a").read_bytes())
        assert cache.load("key-b") is None
        assert not moved.exists()
        assert cache.load("key-a") is not None

    def test_store_survives_unwritable_directory(self, tmp_path, artifact):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        assert ArtifactCache(blocked).store("some-key", artifact) is None
        assert artifact.fingerprint == ""
