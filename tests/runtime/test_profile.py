"""Direct coverage for the run profile every pipeline run carries.

The staged runner builds ``PipelineResult.profile`` from what the run
already records (:func:`repro.core.stages.run_profile`): its stage
seconds and Postprocessing I's per-template :class:`MatchStats`, flat
or hier.  These tests pin the collector's accumulation semantics, the
seconds-descending report ordering and rounding, and the profile of
real runs.
"""

from __future__ import annotations

from repro.graph.bipartite import CircuitGraph
from repro.graph.ccc import channel_connected_components
from repro.primitives.library import default_library
from repro.primitives.matcher import MatchStats, TemplateStats, annotate_components
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist
from tests.conftest import DIFF_OTA_DECK

def _graph(deck: str) -> CircuitGraph:
    return CircuitGraph.from_circuit(flatten(parse_netlist(deck)))


def _match_into(stats: MatchStats, deck: str) -> int:
    """Annotate ``deck`` per CCC into ``stats`` on a new library, whose
    shape table starts empty, so the counts are the deck's own
    searches; its CCC count."""
    graph = _graph(deck)
    partition = channel_connected_components(graph)
    annotate_components(graph, partition, default_library(), stats=stats)
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
        assert set(stats.templates) == set(default_library().names())
        for entry in stats.templates.values():
            assert entry == TemplateStats(launches=0, matches=0, skips=1)

    def test_counters_accumulate(self):
        stats = MatchStats()
        first = _match_into(stats, DIFF_OTA_DECK)
        second = _match_into(stats, "r1 a b 1k\n.end\n")
        # No two of these CCCs share a shape: ``ccc_shared`` is absent,
        # not 0.
        assert stats.counters == {"ccc_matched": first + second}

    def test_ccc_shared_counts_later_ccc_of_a_searched_shape(self):
        # Two differential pairs on their own tails: two CCCs, one shape.
        stats = MatchStats()
        _match_into(
            stats,
            "m1 o1 i1 t1 gnd! nmos\nm2 o2 i2 t1 gnd! nmos\n"
            "m3 o3 i3 t2 gnd! nmos\nm4 o4 i4 t2 gnd! nmos\n.end\n",
        )
        assert stats.counters == {"ccc_matched": 2, "ccc_shared": 1}
        searched = {
            name: (entry.launches, entry.shared)
            for name, entry in stats.templates.items()
            if entry.launches or entry.shared
        }
        assert searched == {"DP-N": (1, 1)}


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

    def test_profile_sections_are_the_same_in_both_modes(
        self, quick_ota_annotator
    ):
        from repro.core.pipeline import GanaPipeline
        from tests.conftest import EXAMPLE_DECK_PATHS

        (deck,) = [p for p in EXAMPLE_DECK_PATHS if p.stem == "ota_array"]
        pipeline = GanaPipeline(annotator=quick_ota_annotator)
        for hier in (False, True):
            result = pipeline.run(deck.read_text(), hier=hier)
            assert (result.hier is not None) == hier
            assert list(result.profile) == ["stages", "per_template", "counters"]


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
        self, quick_rf_annotator, tmp_path
    ):
        """Each CCC launches, shares or skips every template exactly
        once: a template rejected because its matches could only reuse
        claimed devices still shows up, as a skip, and one answered by
        an earlier CCC of the same shape, as shared.  The two channels
        repeat their CCCs, so some answers are shared, and a shared
        template was launched by its shape's first CCC.  This holds
        with an artifact cache too, cold and on the re-run after a
        library-only change (parse → gcn from the cache).  Each run
        gets a new library, whose shape table starts empty."""
        from repro.core.pipeline import GanaPipeline
        from repro.datasets.systems import phased_array
        from repro.primitives.library import extended_library

        system = phased_array(n_channels=2)
        cache = tmp_path / "cache"
        runs = (
            (extended_library, None, ()),
            (extended_library, cache, ()),
            (default_library, cache, ("parse", "preprocess", "graph", "gcn")),
        )
        for make_library, artifact_cache, reused in runs:
            pipeline = GanaPipeline(
                annotator=quick_rf_annotator, library=make_library()
            )
            staged = pipeline.run_staged(
                system.circuit,
                port_labels=system.port_labels,
                artifact_cache=artifact_cache,
            )
            assert tuple(s.value for s in staged.cache_hits) == reused
            profile = staged.profile
            cccs = profile["counters"]["ccc_matched"]
            assert cccs > 1
            assert "match_cache_hits" not in profile["counters"]
            per_template = profile["per_template"]
            assert set(per_template) == set(pipeline.library.names())
            assert any(stats["shared"] for stats in per_template.values())
            assert 0 < profile["counters"]["ccc_shared"] < cccs
            for name, stats in per_template.items():
                assert (
                    stats["launches"] + stats["shared"] + stats["skips"]
                    == cccs
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
