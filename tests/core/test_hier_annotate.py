"""Hierarchy-scoped annotation.

Golden byte-identity: the ``--hier`` path must produce exactly the
annotation the flat path computes on every example netlist.  Plus: hier
and flat runs do the same matching (same per-template counts), and a
run with an artifact cache, cold or after a library change, does the
matching of a run without one; the hier report, one GCN forward, one
elaboration and one graph build per run, and the instance-table
hierarchy mode.
"""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import GanaPipeline
from repro.core.stages import StageName, pipeline_result_fingerprint
from repro.datasets.systems import phased_array, phased_array_hier
from repro.graph.bipartite import CircuitGraph
from repro.primitives.library import default_library, extended_library
from repro.runtime.cache import ArtifactCache
from repro.spice.parser import parse_netlist
from tests.conftest import HIERARCHICAL_DECK
from tests.core.test_stages import (
    OTA_CASES,
    RF_CASES,
    _assert_results_equivalent,
)

#: Three identical OTA cells plus one glue mirror — small enough for
#: quick tests, repeated enough that the hier path actually reuses.
OTA_ARRAY_DECK = """
* three identical ota cells
.global vdd! gnd!
.subckt otacell vinp vinn voutp voutn
m0 n1 n1 gnd! gnd! nmos w=1u l=100n
m1 id n1 gnd! gnd! nmos w=1u l=100n
m2 voutn vinp id gnd! nmos w=2u l=100n
m3 voutp vinn id gnd! nmos w=2u l=100n
m4 voutn vbp vdd! vdd! pmos w=4u l=100n
m5 voutp vbp vdd! vdd! pmos w=4u l=100n
.ends
x0 a0 b0 c0 d0 otacell
x1 a1 b1 c1 d1 otacell
x2 a2 b2 c2 d2 otacell
mglue ng ng gnd! gnd! nmos w=1u l=100n
.end
"""


@pytest.fixture(scope="module")
def ota_pipeline(quick_ota_annotator):
    return GanaPipeline(annotator=quick_ota_annotator)


@pytest.fixture(scope="module")
def rf_pipeline(quick_rf_annotator):
    return GanaPipeline(annotator=quick_rf_annotator)


class TestGoldenIdentity:
    """``run(hier=True)`` ≡ ``run()`` on every example netlist."""

    @pytest.mark.parametrize("case", sorted(OTA_CASES))
    def test_ota_examples(self, ota_pipeline, case):
        netlist, kwargs = OTA_CASES[case]()
        hier = ota_pipeline.run(netlist, name=case, hier=True, **kwargs)
        flat = ota_pipeline.run(netlist, name=case, **kwargs)
        _assert_results_equivalent(hier, flat)

    @pytest.mark.parametrize("case", sorted(RF_CASES))
    def test_rf_examples(self, rf_pipeline, case):
        netlist, kwargs = RF_CASES[case]()
        hier = rf_pipeline.run(netlist, name=case, hier=True, **kwargs)
        flat = rf_pipeline.run(netlist, name=case, **kwargs)
        _assert_results_equivalent(hier, flat)

    def test_ota_array(self, ota_pipeline):
        hier = ota_pipeline.run(OTA_ARRAY_DECK, hier=True)
        flat = ota_pipeline.run(OTA_ARRAY_DECK)
        _assert_results_equivalent(hier, flat)

    def test_phased_array_hier(self, rf_pipeline):
        netlist, port_labels = phased_array_hier(n_channels=2)
        hier = rf_pipeline.run(
            netlist, port_labels=port_labels, hier=True, name="pa"
        )
        flat = rf_pipeline.run(netlist, port_labels=port_labels, name="pa")
        _assert_results_equivalent(hier, flat)

    def test_lenient_mode_identical(self, ota_pipeline):
        deck = OTA_ARRAY_DECK.replace(
            ".end\n", "xbad z1 z2 nosuchcell\n.end\n"
        )
        hier = ota_pipeline.run(deck, mode="lenient", hier=True)
        flat = ota_pipeline.run(deck, mode="lenient")
        _assert_results_equivalent(hier, flat)
        assert hier.diagnostics


class TestExampleNetlistIdentity:
    """Acceptance: hier ≡ flat on every deck under examples/netlists/."""

    def test_example_deck(self, ota_pipeline, example_deck_path):
        text = example_deck_path.read_text()
        hier = ota_pipeline.run(text, name=example_deck_path.stem, hier=True)
        flat = ota_pipeline.run(text, name=example_deck_path.stem)
        _assert_results_equivalent(hier, flat)


def _match_counts(result) -> dict:
    """Per template: VF2 launches, shared answers and skips."""
    return {
        name: (stats["launches"], stats["shared"], stats["skips"])
        for name, stats in result.profile["per_template"].items()
    }


class TestHierReport:
    def test_flat_run_has_no_report(self, ota_pipeline):
        assert ota_pipeline.run(OTA_ARRAY_DECK).hier is None

    def test_reuse_on_repeated_instances(self, ota_pipeline):
        result = ota_pipeline.run(OTA_ARRAY_DECK, hier=True)
        report = result.hier
        assert report is not None
        assert report.n_definitions == 1
        assert report.n_instances == 3
        assert report.n_unique_groups == 1
        assert report.reused > 0
        assert report.reused == result.profile["counters"]["ccc_shared"]
        # Read-only names kept for older readers of the report.
        assert report.replayed == report.reused
        assert report.guard_failures == 0

    def test_as_dict_round_trips_counts(self, ota_pipeline):
        report = ota_pipeline.run(OTA_ARRAY_DECK, hier=True).hier
        assert report.as_dict() == {
            "n_definitions": 1,
            "n_instances": 3,
            "n_unique_groups": 1,
            "reused": report.reused,
        }

    def test_flat_deck_degrades_gracefully(self, ota_pipeline):
        # No instances → the hier flag is a no-op, not an error.
        from tests.conftest import DIFF_OTA_DECK

        hier = ota_pipeline.run(DIFF_OTA_DECK, hier=True)
        flat = ota_pipeline.run(DIFF_OTA_DECK)
        _assert_results_equivalent(hier, flat)


def _fresh(pipeline: GanaPipeline) -> GanaPipeline:
    """``pipeline``'s annotator on a new library, whose shape table
    starts empty: its run's counts are the deck's own searches."""
    return GanaPipeline(annotator=pipeline.annotator)


class TestSameMatching:
    """A hier run's Postprocessing I is the flat run's, count for count."""

    def test_ota_array(self, ota_pipeline):
        hier = _fresh(ota_pipeline).run(OTA_ARRAY_DECK, hier=True)
        flat = _fresh(ota_pipeline).run(OTA_ARRAY_DECK)
        assert _match_counts(hier) == _match_counts(flat)
        assert hier.profile["counters"] == flat.profile["counters"]

    @pytest.mark.parametrize("n_channels", [2, 16])
    def test_phased_array_hier(self, rf_pipeline, n_channels):
        netlist, port_labels = phased_array_hier(n_channels=n_channels)
        hier = _fresh(rf_pipeline).run(netlist, port_labels=port_labels, hier=True)
        flat = _fresh(rf_pipeline).run(netlist, port_labels=port_labels)
        assert _match_counts(hier) == _match_counts(flat)
        assert hier.profile["counters"] == flat.profile["counters"]
        assert hier.hier.reused == hier.profile["counters"]["ccc_shared"] > 0


#: Stages a library-only change leaves valid in the artifact cache.
LIBRARY_INDEPENDENT = (
    StageName.PARSE,
    StageName.PREPROCESS,
    StageName.GRAPH,
    StageName.GCN,
)


class TestOnePathWithCache:
    """A run with an artifact cache matches exactly like a run without one."""

    @pytest.mark.parametrize("hier", [False, True], ids=["flat", "hier"])
    @pytest.mark.parametrize("n_channels", [2, 16])
    def test_cached_runs_search_like_uncached_runs(
        self, quick_rf_annotator, tmp_path, n_channels, hier
    ):
        """A cold cached run with the extended library, then a warm
        re-run with the default one (parse → gcn from the cache), each
        make the per-template searches, shares and skips of a cache-less
        run with the same library, and give its result and hier report.
        Every run gets a new library, so each one's shape table starts
        empty and its counts are its own searches."""
        netlist, port_labels = phased_array_hier(n_channels=n_channels)
        cache = ArtifactCache(tmp_path / "cache")
        for make_library, reused, searches in (
            (extended_library, (), 64),
            (default_library, LIBRARY_INDEPENDENT, 67),
        ):
            pipeline = GanaPipeline(annotator=quick_rf_annotator, library=make_library())
            staged = pipeline.run_staged(
                netlist, port_labels=port_labels, hier=hier, artifact_cache=cache
            )
            assert staged.cache_hits == reused
            cached = pipeline.result_from_staged(staged)
            fresh = GanaPipeline(annotator=quick_rf_annotator, library=make_library())
            plain = fresh.run(netlist, port_labels=port_labels, hier=hier)
            counts = _match_counts(cached)
            assert counts == _match_counts(plain)
            assert sum(launches for launches, _, _ in counts.values()) == searches
            assert cached.profile["counters"] == plain.profile["counters"]
            assert cached.hier == plain.hier
            assert pipeline_result_fingerprint(cached) == pipeline_result_fingerprint(plain)


def _nested_chain_deck(depth: int) -> str:
    """``depth`` nested subckt levels: each holds three MOSFETs and one
    instance of the level below."""
    lines = ["* nested chain", ".global vdd! gnd!"]
    for level in range(depth):
        lines += [
            f".subckt level{level} a b",
            "m0 n1 n1 gnd! gnd! nmos w=1u l=100n",
            "m1 b n1 gnd! gnd! nmos w=1u l=100n",
            "m2 n1 a vdd! vdd! pmos w=2u l=100n",
        ]
        if level:
            lines.append(f"x0 b c level{level - 1}")
        lines.append(".ends")
    lines += [f"xtop in out level{depth - 1}", ".end"]
    return "\n".join(lines) + "\n"


class TestOnePassPerRun:
    """A hier run does the flat run's GCN and elaboration work, once."""

    def test_one_gcn_forward(self, ota_pipeline, monkeypatch):
        from repro.core.annotator import GcnAnnotator

        # Widths no other test uses: nothing this process has memoized
        # can stand in for a forward.
        deck = OTA_ARRAY_DECK.replace("w=4u", "w=7u")
        calls = []
        original = GcnAnnotator.annotate_batch

        def counting(self, graphs, *args, **kwargs):
            calls.append(len(graphs))
            return original(self, graphs, *args, **kwargs)

        monkeypatch.setattr(GcnAnnotator, "annotate_batch", counting)
        ota_pipeline.run(deck, hier=True)
        hier_calls = len(calls)
        calls.clear()
        ota_pipeline.run(deck)
        assert hier_calls == len(calls) == 1

    def test_deep_chain_elaborated_once(self, ota_pipeline, monkeypatch):
        # ``repro.spice`` re-exports the ``flatten`` function under the
        # submodule's name, so fetch the module itself.
        flatten_module = importlib.import_module("repro.spice.flatten")
        deck = _nested_chain_deck(20)
        hier = ota_pipeline.run(deck, hier=True)
        flat = ota_pipeline.run(deck)
        assert hier.hier.n_instances == 20
        assert pipeline_result_fingerprint(hier) == pipeline_result_fingerprint(flat)

        calls = []
        original = flatten_module._flatten_into

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # The recursion looks the function up on the module, so every
        # level's call is counted.
        monkeypatch.setattr(flatten_module, "_flatten_into", counting)
        netlist = parse_netlist(deck)
        flatten_module.flatten(netlist)
        flat_calls = len(calls)
        calls.clear()
        flatten_module.flatten_hierarchical(netlist)
        assert len(calls) == flat_calls == 1 + 20

    def test_one_graph_build(self, rf_pipeline, monkeypatch):
        """Primitive matching reads each CCC out of the deck's own
        graph: flat or hier, a run builds no per-CCC graph."""
        flat = phased_array(n_channels=2)
        netlist, port_labels = phased_array_hier(n_channels=2)
        calls = []
        original = CircuitGraph.from_circuit.__func__

        def counting(cls, *args, **kwargs):
            calls.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(CircuitGraph, "from_circuit", classmethod(counting))
        result = rf_pipeline.run(flat.circuit, port_labels=flat.port_labels)
        assert result.post1.partition.n_components > 1
        flat_calls = len(calls)
        calls.clear()
        result = rf_pipeline.run(netlist, port_labels=port_labels, hier=True)
        assert result.hier.n_instances == 2
        assert len(calls) == flat_calls == 1


#: Two mirror cells whose source port is bound to ``railx`` and to
#: ``vdd!``.  Only a customized supply regex makes ``railx`` a rail, and
#: only then may the two instances share one match list.
RAIL_DEPENDENT_DECK = """
* mirror cells on a convention-dependent rail
.global vdd! gnd!
.subckt mirror ref out s
m1 ref ref s s nmos w=1u l=100n
m2 out ref s s nmos w=1u l=100n
m3 ref out out s nmos w=1u l=100n
.ends
x1 a1 b1 railx mirror
x2 a2 b2 vdd! mirror
.end
"""


class TestRailConventions:
    def test_stock_run_after_custom_rails_sees_no_stale_profile(
        self, ota_pipeline, monkeypatch
    ):
        import re

        from repro.spice import netlist

        monkeypatch.setattr(
            netlist,
            "SUPPLY_NET_RE",
            re.compile(r"^(vdd[!]?|railx)$", re.IGNORECASE),
        )
        custom = ota_pipeline.run(RAIL_DEPENDENT_DECK, hier=True)
        assert pipeline_result_fingerprint(custom) == pipeline_result_fingerprint(
            ota_pipeline.run(RAIL_DEPENDENT_DECK)
        )

        monkeypatch.undo()
        hier = ota_pipeline.run(RAIL_DEPENDENT_DECK, hier=True)
        flat = ota_pipeline.run(RAIL_DEPENDENT_DECK)
        assert pipeline_result_fingerprint(hier) == pipeline_result_fingerprint(
            flat
        )
        # The rails decide the answer, so a stale one would show.
        assert pipeline_result_fingerprint(hier) != pipeline_result_fingerprint(
            custom
        )


class TestHierTreeMode:
    def test_instance_nesting_in_hierarchy(self, ota_pipeline):
        result = ota_pipeline.run(OTA_ARRAY_DECK, hier_tree=True)
        rendered = result.hierarchy.render()
        for path in ("x0", "x1", "x2"):
            node = result.hierarchy.child(path)
            assert node is not None, f"{path} missing from\n{rendered}"
            assert node.block_class == "otacell"
            assert node.children, "recognized blocks hang under the instance"
        # The glue mirror is not inside any instance: stays at the root.
        assert any(
            "mglue" in n.all_devices() for n in result.hierarchy.children
        )

    def test_hier_tree_implies_hier(self, ota_pipeline):
        result = ota_pipeline.run(OTA_ARRAY_DECK, hier_tree=True)
        assert result.hier is not None

    def test_devices_preserved_under_nesting(self, ota_pipeline):
        flat = ota_pipeline.run(HIERARCHICAL_DECK)
        nested = ota_pipeline.run(HIERARCHICAL_DECK, hier_tree=True)
        assert nested.hierarchy.all_devices() == flat.hierarchy.all_devices()
        assert (
            nested.annotation.element_classes == flat.annotation.element_classes
        )


def _mirror_cell_deck(n_instances: int, widths: tuple[int, ...], shared: bool):
    lines = [
        "* generated hierarchical deck",
        ".global vdd! gnd!",
        ".subckt cell a b",
    ]
    for i, w in enumerate(widths):
        ref = "a" if i == 0 else "nbias"
        lines.append(f"md{i} {'nbias' if i == 0 else 'b'} {ref} gnd! gnd! nmos w={w}u l=100n")
    lines.append("rload b vdd! 10k")
    lines.append(".ends")
    for i in range(n_instances):
        inp = "shared_in" if shared else f"in{i}"
        lines.append(f"x{i} {inp} out{i} cell")
    lines.append("mtop t1 t1 gnd! gnd! nmos w=1u l=100n")
    lines.append(".end")
    return "\n".join(lines) + "\n"


@pytest.mark.property
class TestPropertyIdentity:
    """Property: hier ≡ flat on random small hierarchical decks."""

    @settings(max_examples=10, deadline=None)
    @given(
        n_instances=st.integers(min_value=1, max_value=4),
        widths=st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
        ),
        shared=st.booleans(),
    )
    def test_random_decks(
        self, ota_pipeline_ref, n_instances, widths, shared
    ):
        deck = _mirror_cell_deck(n_instances, widths, shared)
        hier = ota_pipeline_ref.run(deck, hier=True)
        flat = ota_pipeline_ref.run(deck)
        _assert_results_equivalent(hier, flat)


@pytest.fixture(scope="module")
def ota_pipeline_ref(quick_ota_annotator):
    # hypothesis forbids function-scoped fixtures; module scope is fine
    # (the pipeline is stateless across runs).
    return GanaPipeline(annotator=quick_ota_annotator)
