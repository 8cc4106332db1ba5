"""Staged pipeline architecture (ISSUE 4).

Golden equivalence: ``run()`` on the cases below, and on a lenient
deck with one bogus card, reproduces the committed goldens of
``tests/core/test_golden.py``.  Plus: the one run record each stage
extends, artifact save/load round-trips, incremental recompute via the
artifact cache, early stop, resume, and the canonical stage-name enum.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.pipeline import GanaPipeline
from repro.core.stages import (
    ARTIFACT_SUFFIX,
    STAGE_ORDER,
    TIMING_STAGES,
    Artifact,
    StageName,
    coerce_stage,
    content_fingerprint,
    load_artifacts,
    pipeline_result_fingerprint,
)
from repro.datasets.systems import phased_array, switched_cap_filter
from repro.exceptions import ArtifactError
from repro.runtime.cache import ArtifactCache
from tests.conftest import (
    CURRENT_MIRROR_DECK,
    DIFF_OTA_DECK,
    EXAMPLES_DIR,
    HIERARCHICAL_DECK,
)
from tests.core.test_golden import CASES as GOLDEN_CASES
from tests.core.test_golden import REGENERATE, first_difference, golden_payload


@pytest.fixture(scope="module")
def ota_pipeline(quick_ota_annotator):
    return GanaPipeline(annotator=quick_ota_annotator)


@pytest.fixture(scope="module")
def rf_pipeline(quick_rf_annotator):
    return GanaPipeline(annotator=quick_rf_annotator)


#: (case id, deck factory) — every example netlist in the repo.  The
#: factory returns (netlist, run kwargs); decks are strings, systems
#: are flat circuits with port labels.
OTA_CASES = {
    "diff_ota": lambda: (DIFF_OTA_DECK, {}),
    "current_mirror": lambda: (CURRENT_MIRROR_DECK, {}),
    "hierarchical": lambda: (HIERARCHICAL_DECK, {}),
    "switched_cap_filter": lambda: (
        switched_cap_filter().circuit,
        {"port_labels": switched_cap_filter().port_labels},
    ),
}
RF_CASES = {
    "phased_array_2ch": lambda: (
        phased_array(n_channels=2).circuit,
        {"port_labels": phased_array(n_channels=2).port_labels},
    ),
}


def _assert_results_equivalent(got, want):
    """Field-by-field equality of two PipelineResults (minus timings)."""
    assert pipeline_result_fingerprint(got) == pipeline_result_fingerprint(want)
    assert got.annotation.element_classes == want.annotation.element_classes
    assert got.annotation.net_classes == want.annotation.net_classes
    assert np.array_equal(
        got.gcn_annotation.vertex_classes, want.gcn_annotation.vertex_classes
    )
    assert got.hierarchy.render() == want.hierarchy.render()
    assert list(got.constraints) == list(want.constraints)
    assert got.diagnostics == want.diagnostics
    assert (got.degraded, got.degraded_reason) == (
        want.degraded,
        want.degraded_reason,
    )
    assert set(got.timings) == set(want.timings)


#: The committed golden each case above reproduces (``hierarchical`` is
#: ``examples/netlists/inverter_buffer.sp`` with another title line).
GOLDEN_OF = {
    "diff_ota": "example-diff_ota",
    "current_mirror": "example-current_mirror",
    "hierarchical": "example-inverter_buffer",
    "switched_cap_filter": "system-switched_cap_filter",
    "phased_array_2ch": "system-phased_array_2ch",
}


def _assert_matches_golden(result, golden: str, skip: tuple[str, ...] = ()):
    """``result`` equals the golden ``golden``, leaving out the ``skip`` fields."""
    skip = ("task", "mode", *skip)
    want = json.loads(GOLDEN_CASES[golden].path.read_text())
    got = json.loads(json.dumps(golden_payload(result)))
    diff = first_difference(
        {k: v for k, v in got.items() if k not in skip},
        {k: v for k, v in want.items() if k not in skip},
    )
    assert diff is None, (
        f"differs from {golden}.json at {diff}; if the change is intended, "
        f"regenerate the goldens with: {REGENERATE}"
    )
    assert set(result.timings) == set(TIMING_STAGES)


class TestGoldenEquivalence:
    """``run()`` reproduces the committed goldens on the cases above."""

    @pytest.mark.parametrize("case", sorted(OTA_CASES))
    def test_ota_examples(self, ota_pipeline, case):
        netlist, kwargs = OTA_CASES[case]()
        _assert_matches_golden(ota_pipeline.run(netlist, **kwargs), GOLDEN_OF[case])

    @pytest.mark.parametrize("case", sorted(RF_CASES))
    def test_rf_examples(self, rf_pipeline, case):
        netlist, kwargs = RF_CASES[case]()
        _assert_matches_golden(rf_pipeline.run(netlist, **kwargs), GOLDEN_OF[case])

    def test_lenient_mode_equivalent(self, ota_pipeline):
        deck = DIFF_OTA_DECK + "\nq_bogus a b c npn\n.end\n"
        result = ota_pipeline.run(deck, mode="lenient")
        # The bogus card is reported, not fatal; the rest is the clean deck's.
        assert [d.card for d in result.diagnostics] == ["q_bogus"]
        _assert_matches_golden(result, "example-diff_ota", skip=("diagnostics",))

    def test_profile_has_same_stages(self, ota_pipeline):
        result = ota_pipeline.run(DIFF_OTA_DECK)
        assert result.timings["parse"] > 0
        assert result.profile["stages"] == {
            k: round(v, 6) for k, v in result.timings.items()
        }
        assert set(result.timings) == set(TIMING_STAGES)

    def test_final_annotation_identity_preserved(self, ota_pipeline):
        result = ota_pipeline.run(DIFF_OTA_DECK)
        assert result.annotation is result.post2.annotation


class TestStageNames:
    """Satellite: one canonical stage-name enum everywhere."""

    def test_timing_stages_match_result_keys(self, ota_pipeline):
        result = ota_pipeline.run(CURRENT_MIRROR_DECK)
        assert set(result.timings) == set(TIMING_STAGES)

    def test_artifact_stages_follow_stage_order(self, ota_pipeline):
        staged = ota_pipeline.run_staged(DIFF_OTA_DECK)
        assert tuple(staged.artifacts) == STAGE_ORDER
        for name, artifact in staged.artifacts.items():
            assert artifact.stage is name

    def test_coerce_stage(self):
        assert coerce_stage("gcn") is StageName.GCN
        assert coerce_stage(StageName.POST1) is StageName.POST1
        with pytest.raises(ValueError):
            coerce_stage("not-a-stage")

    def test_resilience_stage_accepts_enum(self):
        from repro.runtime.resilience import stage

        with pytest.raises(RuntimeError) as err:
            with stage(StageName.GRAPH):
                raise RuntimeError("boom")
        assert err.value._gana_stage == "graph"


class TestArtifactRoundTrip:
    """Every stage's artifact saves and loads back fingerprint-identical."""

    @pytest.fixture(scope="class")
    def saved_runs(self, ota_pipeline, rf_pipeline, tmp_path_factory):
        runs = []
        for case in sorted(OTA_CASES):
            netlist, kwargs = OTA_CASES[case]()
            out = tmp_path_factory.mktemp(f"artifacts-{case}")
            staged = ota_pipeline.run_staged(
                netlist, name=case, save_artifacts=out, **kwargs
            )
            runs.append((case, staged, out))
        for case in sorted(RF_CASES):
            netlist, kwargs = RF_CASES[case]()
            out = tmp_path_factory.mktemp(f"artifacts-{case}")
            staged = rf_pipeline.run_staged(
                netlist, name=case, save_artifacts=out, **kwargs
            )
            runs.append((case, staged, out))
        return runs

    def test_all_stages_saved(self, saved_runs):
        for _case, staged, _out in saved_runs:
            assert staged.complete
            assert set(staged.saved) == set(STAGE_ORDER)

    def test_round_trip_fingerprint_identical(self, saved_runs):
        for case, staged, _out in saved_runs:
            for name, artifact in staged.artifacts.items():
                loaded = type(artifact).load(staged.saved[name])
                assert type(loaded) is type(artifact), case
                assert loaded.stage is artifact.stage
                assert (
                    loaded.content_fingerprint()
                    == artifact.content_fingerprint()
                ), f"{case}/{name.value} changed across save/load"
                assert loaded.fingerprint == artifact.fingerprint

    def test_load_artifacts_directory(self, saved_runs):
        _case, staged, out = saved_runs[0]
        loaded = load_artifacts(out)
        assert [a.stage for a in loaded] == list(STAGE_ORDER)
        final = loaded[-1]
        assert final.stage is StageName.HIERARCHY
        assert final.hierarchy.render() == staged.final.hierarchy.render()

    def test_load_rejects_wrong_type(self, ota_pipeline, tmp_path):
        """A cache entry holding another stage's artifact is a miss."""
        cache = ArtifactCache(tmp_path / "cache")
        cold = ota_pipeline.run_staged(DIFF_OTA_DECK, artifact_cache=cache)
        cache.store(cold.final.fingerprint, cold.artifacts[StageName.POST2])
        warm = ota_pipeline.run_staged(DIFF_OTA_DECK, artifact_cache=cache)
        assert set(warm.cache_hits) == set(STAGE_ORDER) - {StageName.HIERARCHY}
        assert warm.final.stage is StageName.HIERARCHY
        assert warm.final.hierarchy.render() == cold.final.hierarchy.render()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.artifact.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.raises(ArtifactError):
            Artifact.load(path)

    def test_content_fingerprint_is_stable(self, saved_runs):
        for _case, staged, _out in saved_runs:
            for artifact in staged.artifacts.values():
                assert (
                    artifact.content_fingerprint()
                    == artifact.content_fingerprint()
                )

    def test_content_fingerprint_discriminates(self):
        assert content_fingerprint("a") != content_fingerprint("b")
        assert content_fingerprint(1) != content_fingerprint("1")
        assert content_fingerprint([1, 2]) != content_fingerprint((1, 2))
        assert content_fingerprint({"x": 1, "y": 2}) == content_fingerprint(
            {"y": 2, "x": 1}
        )


class TestIncrementalRecompute:
    """Unchanged fingerprints ⇒ cache hits; changed config ⇒ partial."""

    def test_warm_run_hits_every_stage(self, ota_pipeline, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cold = ota_pipeline.run_staged(DIFF_OTA_DECK, artifact_cache=cache)
        assert cold.cache_hits == ()
        warm = ota_pipeline.run_staged(DIFF_OTA_DECK, artifact_cache=cache)
        assert set(warm.cache_hits) == set(STAGE_ORDER)
        warm_result = ota_pipeline.result_from_staged(warm)
        assert set(warm_result.timings) == set(TIMING_STAGES)
        assert pipeline_result_fingerprint(
            warm_result
        ) == pipeline_result_fingerprint(ota_pipeline.result_from_staged(cold))

    def test_library_change_reuses_upstream_stages(
        self, quick_ota_annotator, tmp_path
    ):
        from repro.primitives.library import default_library, extended_library

        cache = ArtifactCache(tmp_path / "cache")
        base = GanaPipeline(
            annotator=quick_ota_annotator, library=default_library()
        )
        base.run_staged(HIERARCHICAL_DECK, artifact_cache=cache)

        changed = GanaPipeline(
            annotator=quick_ota_annotator, library=extended_library()
        )
        warm = changed.run_staged(HIERARCHICAL_DECK, artifact_cache=cache)
        # parse→gcn are library-independent: all reused.  post1 onwards
        # depends on the library fingerprint: all recomputed.
        assert set(warm.cache_hits) == {
            StageName.PARSE,
            StageName.PREPROCESS,
            StageName.GRAPH,
            StageName.GCN,
        }
        fresh = changed.run(HIERARCHICAL_DECK)
        _assert_results_equivalent(changed.result_from_staged(warm), fresh)

    def test_deck_change_invalidates_everything(self, ota_pipeline, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        ota_pipeline.run_staged(DIFF_OTA_DECK, artifact_cache=cache)
        other = ota_pipeline.run_staged(CURRENT_MIRROR_DECK, artifact_cache=cache)
        assert other.cache_hits == ()

    def test_port_labels_keep_parse_hit(self, ota_pipeline, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        ota_pipeline.run_staged(DIFF_OTA_DECK, artifact_cache=cache)
        relabeled = ota_pipeline.run_staged(
            DIFF_OTA_DECK,
            port_labels={"voutp": "output"},
            artifact_cache=cache,
        )
        # The deck did not change, so parse is reusable; preprocess
        # (whose key includes the labels) and everything after rerun.
        assert set(relabeled.cache_hits) == {StageName.PARSE}


def _perturbed(annotator):
    """A copy of ``annotator`` whose weights differ in one entry: a new
    annotator fingerprint for the same graphs."""
    import copy

    from repro.core.annotator import GcnAnnotator

    model = copy.deepcopy(annotator.model)
    state = model.state_dict()
    key = sorted(state)[-1]
    state[key] = state[key] + 1e-3
    model.load_state_dict(state)
    return GcnAnnotator(model=model, class_names=annotator.class_names)


@pytest.fixture()
def partition_calls(monkeypatch):
    """Records every ``channel_connected_components`` call a run makes
    (the graph stage's and ``postprocess_ccc``'s fallback alike)."""
    import repro.core.pipeline as pipeline_module
    import repro.core.postprocess as postprocess_module

    real = postprocess_module.channel_connected_components
    calls = []

    def counting(graph):
        calls.append(graph)
        return real(graph)

    for module in (pipeline_module, postprocess_module):
        monkeypatch.setattr(module, "channel_connected_components", counting)
    return calls


class TestOneEnvelope:
    """A cache entry is a saved artifact: one format, one version."""

    def test_format_bump_misses_every_entry(
        self, ota_pipeline, tmp_path, monkeypatch
    ):
        import repro.core.stages as stages_module

        cache = ArtifactCache(tmp_path / "cache")
        cold = ota_pipeline.run_staged(DIFF_OTA_DECK, artifact_cache=cache)
        monkeypatch.setattr(
            stages_module,
            "ARTIFACT_FORMAT_VERSION",
            stages_module.ARTIFACT_FORMAT_VERSION + 1,
        )
        rerun = ota_pipeline.run_staged(DIFF_OTA_DECK, artifact_cache=cache)
        assert rerun.cache_hits == ()
        assert pipeline_result_fingerprint(
            ota_pipeline.result_from_staged(rerun)
        ) == pipeline_result_fingerprint(ota_pipeline.result_from_staged(cold))
        # The probe evicted the stale entries; the rerun stored fresh ones.
        warm = ota_pipeline.run_staged(DIFF_OTA_DECK, artifact_cache=cache)
        assert set(warm.cache_hits) == set(STAGE_ORDER)

    def test_payload_entry_is_a_miss(self, ota_pipeline, tmp_path):
        """An entry in the cache's former ``{"format_version", "key",
        "value"}`` payload is not an artifact envelope."""
        import pickle

        from repro.runtime.cache import CACHE_FORMAT_VERSION

        cache = ArtifactCache(tmp_path / "cache")
        cold = ota_pipeline.run_staged(DIFF_OTA_DECK, artifact_cache=cache)
        key = cold.final.fingerprint
        payload = {
            "format_version": CACHE_FORMAT_VERSION,
            "key": key,
            "value": cold.final,
        }
        cache.path_for(key).write_bytes(pickle.dumps(payload))
        warm = ota_pipeline.run_staged(DIFF_OTA_DECK, artifact_cache=cache)
        assert set(warm.cache_hits) == set(STAGE_ORDER) - {StageName.HIERARCHY}
        assert warm.final.hierarchy.render() == cold.final.hierarchy.render()
        assert Artifact.load(cache.path_for(key)).fingerprint == key

    def test_warm_run_saves_every_stage(self, ota_pipeline, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cold = ota_pipeline.run_staged(DIFF_OTA_DECK, artifact_cache=cache)
        out = tmp_path / "saved"
        warm = ota_pipeline.run_staged(
            DIFF_OTA_DECK, artifact_cache=cache, save_artifacts=out
        )
        assert set(warm.cache_hits) == set(STAGE_ORDER)
        assert len(list(out.glob(f"*{ARTIFACT_SUFFIX}"))) == len(STAGE_ORDER)
        for name in STAGE_ORDER:
            loaded = Artifact.load(warm.saved[name])
            want = cold.artifacts[name]
            assert loaded.stage is name
            assert loaded.fingerprint == want.fingerprint
            assert loaded.content_fingerprint() == want.content_fingerprint()

    def test_missing_earlier_entry_is_a_miss(self, ota_pipeline, tmp_path):
        """With a save dir, a hit needs every earlier stage's entry too."""
        cache = ArtifactCache(tmp_path / "cache")
        cold = ota_pipeline.run_staged(DIFF_OTA_DECK, artifact_cache=cache)
        cache.path_for(cold.artifacts[StageName.GRAPH].fingerprint).unlink()
        out = tmp_path / "saved"
        warm = ota_pipeline.run_staged(
            DIFF_OTA_DECK, artifact_cache=cache, save_artifacts=out
        )
        assert warm.cache_hits == ()
        assert set(warm.saved) == set(STAGE_ORDER)
        _assert_results_equivalent(
            ota_pipeline.result_from_staged(warm),
            ota_pipeline.result_from_staged(cold),
        )


class TestPartitionIsAGraphProduct:
    """The CCC partition rides in the record from the graph stage on."""

    def test_reruns_reuse_the_partition(
        self, quick_ota_annotator, tmp_path, partition_calls
    ):
        from repro.primitives.library import default_library, extended_library

        cache = ArtifactCache(tmp_path / "cache")
        base = GanaPipeline(
            annotator=quick_ota_annotator, library=default_library()
        )
        base.run_staged(HIERARCHICAL_DECK, artifact_cache=cache)
        assert len(partition_calls) == 1
        reruns = {
            "library": GanaPipeline(
                annotator=quick_ota_annotator, library=extended_library()
            ),
            "annotator": GanaPipeline(
                annotator=_perturbed(quick_ota_annotator),
                library=default_library(),
            ),
        }
        for change, pipeline in reruns.items():
            partition_calls.clear()
            warm = pipeline.run_staged(HIERARCHICAL_DECK, artifact_cache=cache)
            assert StageName.GRAPH in warm.cache_hits, change
            assert partition_calls == [], change
            fresh = pipeline.run(HIERARCHICAL_DECK)
            _assert_results_equivalent(pipeline.result_from_staged(warm), fresh)


class TestStopAndResume:
    def test_stop_after_graph(self, ota_pipeline, tmp_path):
        staged = ota_pipeline.run_staged(
            DIFF_OTA_DECK, save_artifacts=tmp_path, stop_after="graph"
        )
        assert not staged.complete
        assert set(staged.artifacts) == {
            StageName.PARSE,
            StageName.PREPROCESS,
            StageName.GRAPH,
        }
        assert staged.last_artifact().stage is StageName.GRAPH
        with pytest.raises(ArtifactError):
            staged.final

    @pytest.mark.parametrize(
        "stop", [s.value for s in STAGE_ORDER if s is not StageName.HIERARCHY]
    )
    def test_resume_completes_identically(self, ota_pipeline, tmp_path, stop):
        cold = ota_pipeline.run(DIFF_OTA_DECK, name="resume-case")
        ota_pipeline.run_staged(
            DIFF_OTA_DECK,
            name="resume-case",
            save_artifacts=tmp_path,
            stop_after=stop,
        )
        resumed = ota_pipeline.run_staged(
            name="resume-case", resume_from=tmp_path
        )
        assert resumed.complete
        _assert_results_equivalent(
            ota_pipeline.result_from_staged(resumed), cold
        )

    def test_resume_from_single_artifact_object(self, ota_pipeline):
        partial = ota_pipeline.run_staged(
            DIFF_OTA_DECK, stop_after=StageName.POST1
        )
        resumed = ota_pipeline.run_staged(
            resume_from=partial.last_artifact()
        )
        assert resumed.complete
        cold = ota_pipeline.run(DIFF_OTA_DECK)
        assert (
            resumed.final.hierarchy.render() == cold.hierarchy.render()
        )

    def test_resume_with_nothing_fails(self, ota_pipeline):
        with pytest.raises((ArtifactError, ValueError)):
            ota_pipeline.run_staged(None)


class TestOneRecord:
    """Every artifact is the one run record, extended stage by stage."""

    def test_final_carries_every_earlier_product(self, ota_pipeline):
        deck = (EXAMPLES_DIR / "ota_array.sp").read_text()
        staged = ota_pipeline.run_staged(
            deck, port_labels={"c0": "output"}, hier=True
        )
        final = staged.final
        earlier = staged.artifacts
        assert final.source is earlier[StageName.PARSE].source
        assert final.report is earlier[StageName.PREPROCESS].report
        assert final.port_labels == {"c0": "output"}
        assert final.tree is earlier[StageName.PREPROCESS].tree
        assert final.tree is not None and final.tree.instances
        assert final.graph is earlier[StageName.GRAPH].graph
        assert final.graph is final.gcn_annotation.graph
        assert final.partition is earlier[StageName.GRAPH].partition
        assert final.post1.partition is final.partition
        assert final.post1 is earlier[StageName.POST1].post1
        assert final.hier is earlier[StageName.POST1].hier
        assert final.hier is not None and final.hier.n_instances == 3

    def test_each_stage_adds_only_its_products(self, ota_pipeline):
        staged = ota_pipeline.run_staged(DIFF_OTA_DECK, stop_after="graph")
        graph = staged.artifacts[StageName.GRAPH]
        assert graph.graph is not None and graph.report is not None
        assert graph.partition is not None
        assert staged.artifacts[StageName.PREPROCESS].partition is None
        assert graph.gcn_annotation is None and graph.degraded is None
        assert graph.post1 is None and graph.hierarchy is None
        assert staged.artifacts[StageName.PARSE].graph is None


class TestResultFingerprint:
    """The result fingerprint walks a shared graph once, and digests
    exactly what ``content_fingerprint`` digests."""

    @staticmethod
    def _parts(result) -> tuple:
        return (
            "pipeline-result",
            result.gcn_annotation,
            result.post1,
            result.post2,
            result.hierarchy,
            result.constraints,
            result.preprocess_report,
            tuple(result.diagnostics),
            result.degraded,
            result.degraded_reason,
        )

    def test_equals_content_fingerprint_of_its_parts(self, ota_pipeline):
        result = ota_pipeline.run((EXAMPLES_DIR / "ota_array.sp").read_text())
        assert result.post2.annotation.graph is result.gcn_annotation.graph
        assert pipeline_result_fingerprint(result) == content_fingerprint(
            *self._parts(result)
        )

    def test_unshared_equal_graphs_fingerprint_equal(self, ota_pipeline):
        """A copy of the graph in one annotation (as a cached run may
        hold) changes nothing; a changed graph changes the digest."""
        import copy
        import dataclasses

        result = ota_pipeline.run(DIFF_OTA_DECK)
        want = pipeline_result_fingerprint(result)
        post2 = result.post2
        twin = copy.deepcopy(post2.annotation.graph)
        result.post2 = dataclasses.replace(
            post2,
            annotation=dataclasses.replace(post2.annotation, graph=twin),
        )
        assert result.post2.annotation.graph is not result.gcn_annotation.graph
        assert pipeline_result_fingerprint(result) == want
        twin.nets[0] = twin.nets[0] + "_renamed"
        assert pipeline_result_fingerprint(result) != want
        assert pipeline_result_fingerprint(result) == content_fingerprint(
            *self._parts(result)
        )


class TestRailConventions:
    """Keys that outlive a run include the rail conventions."""

    def test_artifact_cache_misses_after_rail_change(
        self, ota_pipeline, tmp_path, wide_rails
    ):
        deck = (EXAMPLES_DIR / "diff_ota.sp").read_text()
        cache = ArtifactCache(tmp_path / "cache")
        stock = ota_pipeline.run_staged(deck, artifact_cache=cache)
        wide_rails()
        fresh = ota_pipeline.run(deck)
        rerun = ota_pipeline.run_staged(deck, artifact_cache=cache)
        assert rerun.cache_hits == ()
        got = pipeline_result_fingerprint(ota_pipeline.result_from_staged(rerun))
        assert got == pipeline_result_fingerprint(fresh)
        assert got != pipeline_result_fingerprint(
            ota_pipeline.result_from_staged(stock)
        )
