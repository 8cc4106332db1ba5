"""Direct coverage for the run profile every pipeline run carries.

The staged runner builds ``PipelineResult.profile`` from what the run
already records (:func:`repro.core.stages.run_profile`): its stage
seconds, Postprocessing I's per-template :class:`MatchStats`, and on
hier runs its ``HierReport.per_definition``.  These tests pin the
collector's accumulation semantics, the seconds-descending report
ordering and rounding, and the profile of real runs.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core.hier_annotate import HierReport
from repro.core.stages import RunContext, StageName, run_profile
from repro.graph.bipartite import CircuitGraph
from repro.graph.ccc import channel_connected_components
from repro.primitives.library import default_library
from repro.primitives.matcher import MatchStats, TemplateStats, annotate_components
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist
from tests.conftest import DIFF_OTA_DECK

LIBRARY = default_library()


def _graph(deck: str) -> CircuitGraph:
    return CircuitGraph.from_circuit(flatten(parse_netlist(deck)))


def _match_into(stats: MatchStats, deck: str) -> int:
    """Annotate ``deck`` per CCC into ``stats``; its CCC count."""
    graph = _graph(deck)
    partition = channel_connected_components(graph)
    annotate_components(graph, partition, LIBRARY, stats=stats)
    return partition.n_components


class TestTemplateStats:
    def test_launches_accumulate(self):
        once, twice = MatchStats(), MatchStats()
        _match_into(once, DIFF_OTA_DECK)
        _match_into(twice, DIFF_OTA_DECK)
        _match_into(twice, DIFF_OTA_DECK)
        assert set(twice.templates) == set(once.templates)
        assert any(stats.launches for stats in once.templates.values())
        for name, stats in once.templates.items():
            again = twice.templates[name]
            assert again.launches == 2 * stats.launches, name
            assert again.matches == 2 * stats.matches, name
            assert again.skips == 2 * stats.skips, name
            assert (again.seconds > 0) == (stats.launches > 0), name

    def test_skips_do_not_count_as_launches(self):
        # One lone resistor: every template's kind histogram fails, so
        # each is skipped without a VF2 launch.
        stats = MatchStats()
        _match_into(stats, "r1 a b 1k\n.end\n")
        assert set(stats.templates) == set(LIBRARY.names())
        for entry in stats.templates.values():
            assert entry == TemplateStats(launches=0, matches=0, skips=1)

    def test_counters_accumulate(self):
        stats = MatchStats()
        first = _match_into(stats, DIFF_OTA_DECK)
        second = _match_into(stats, "r1 a b 1k\n.end\n")
        # Memo-less calls hit no memo: the counter is absent, not 0.
        assert stats.counters == {"ccc_matched": first + second}


class TestReporting:
    def test_templates_sorted_by_seconds_descending(self):
        stats = MatchStats(
            templates={
                "cheap": TemplateStats(launches=1, seconds=0.01),
                "hot": TemplateStats(launches=1, matches=5, seconds=2.0),
                "mid": TemplateStats(launches=1, seconds=0.123456789),
            }
        )
        per_template = stats.as_dict()["per_template"]
        assert list(per_template) == ["hot", "mid", "cheap"]
        # Seconds are rounded to 1 µs at report time.
        assert per_template["mid"]["seconds"] == 0.123457

    def test_definitions_key_absent_when_flat_run(self, quick_ota_annotator):
        from repro.core.pipeline import GanaPipeline

        pipeline = GanaPipeline(annotator=quick_ota_annotator)
        profile = pipeline.run(DIFF_OTA_DECK).profile
        assert list(profile) == ["stages", "per_template", "counters"]

    def test_definitions_sorted_by_seconds_descending(self):
        report = HierReport(
            per_definition={
                "cold": {"instances": 1, "cccs": 1, "reused": 0, "seconds": 0.1},
                "hot": {"instances": 2, "cccs": 4, "reused": 2, "seconds": 1.5000004},
            }
        )
        ctx = RunContext(stage_seconds={StageName.POST1: 0.25})
        ctx.artifacts[StageName.POST1] = SimpleNamespace(hier=report)
        definitions = run_profile(ctx)["definitions"]
        assert list(definitions) == ["hot", "cold"]
        assert definitions["hot"] == {
            "instances": 2,
            "cccs": 4,
            "reused": 2,
            "seconds": 1.5,
        }


class TestPipelineIntegration:
    def test_profiled_run_exposes_stage_and_template_sections(
        self, quick_ota_annotator
    ):
        from repro.core.pipeline import GanaPipeline

        pipeline = GanaPipeline(annotator=quick_ota_annotator)
        result = pipeline.run(DIFF_OTA_DECK)
        assert set(result.profile["stages"]) == set(result.timings)
        assert result.profile["per_template"]
        assert result.profile["counters"]["ccc_matched"] > 0

    def test_every_template_launched_or_skipped_once_per_ccc(
        self, quick_rf_annotator
    ):
        """Without a match memo, each CCC launches, shares or skips every
        template exactly once: a template rejected because its matches
        could only reuse claimed devices still shows up, as a skip, and
        one answered by an earlier CCC of the same shape, as shared.
        The two channels repeat their CCCs, so some answers are shared,
        and a shared template was launched by its shape's first CCC."""
        from repro.core.pipeline import GanaPipeline
        from repro.datasets.systems import phased_array

        system = phased_array(n_channels=2)
        pipeline = GanaPipeline(annotator=quick_rf_annotator)
        profile = pipeline.run(
            system.circuit, port_labels=system.port_labels
        ).profile
        cccs = profile["counters"]["ccc_matched"]
        assert cccs > 1
        per_template = profile["per_template"]
        assert set(per_template) == set(pipeline.library.names())
        assert any(stats["shared"] for stats in per_template.values())
        for name, stats in per_template.items():
            assert (
                stats["launches"] + stats["shared"] + stats["skips"] == cccs
            ), name
            assert stats["launches"] or not stats["shared"], name

    def test_every_run_profile_stages_are_its_rounded_timings(
        self, quick_ota_annotator
    ):
        from repro.core.pipeline import GanaPipeline

        pipeline = GanaPipeline(annotator=quick_ota_annotator)
        result = pipeline.run(DIFF_OTA_DECK)
        assert result.profile["stages"] == {
            k: round(v, 6) for k, v in result.timings.items()
        }

    def test_hier_run_profile_definitions_are_its_hier_report(
        self, quick_ota_annotator
    ):
        from repro.core.pipeline import GanaPipeline
        from tests.conftest import EXAMPLE_DECK_PATHS

        (deck,) = [p for p in EXAMPLE_DECK_PATHS if p.stem == "ota_array"]
        pipeline = GanaPipeline(annotator=quick_ota_annotator)
        result = pipeline.run(deck.read_text(), hier=True)
        per_definition = result.hier.per_definition
        assert per_definition
        assert result.profile["definitions"] == {
            name: {**stats, "seconds": round(stats["seconds"], 6)}
            for name, stats in per_definition.items()
        }
        # Most expensive definition first.
        seconds = [s["seconds"] for s in result.profile["definitions"].values()]
        assert seconds == sorted(seconds, reverse=True)

