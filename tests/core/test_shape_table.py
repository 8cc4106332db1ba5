"""The library's shape table: Postprocessing I searches a CCC shape once
per library and process, and what the table holds never changes a
result.

A warm pipeline (or pool worker) names a CCC whose shape an earlier
deck searched from the table's canonical images, checking port
predicates on its own nets and claiming its own matches.  These tests
hold a warm library to a fresh one: on the goldens, under changed
rails, after a search cut short by a budget, in the pool, and against
the table's bound.
"""

from __future__ import annotations

import gc
import json
import pickle
import weakref

import pytest

from repro.core.pipeline import GanaPipeline
from repro.core.stages import pipeline_result_fingerprint
from repro.exceptions import BudgetExceeded
from repro.graph.bipartite import CircuitGraph
from repro.graph.ccc import channel_connected_components
from repro.primitives import matcher
from repro.primitives.library import default_library
from repro.primitives.matcher import MatchStats, annotate_components, shape_table
from repro.runtime.parallel import shutdown_pools
from repro.runtime.resilience import Budget
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist
from tests.conftest import EXAMPLES_DIR
from tests.core.test_golden import CASES, build_pipeline, first_difference, golden_payload
from tests.runtime.test_run_many import _assert_same_results


def _launches(result) -> int:
    """VF2 searches of one run's Postprocessing I."""
    return sum(entry["launches"] for entry in result.profile["per_template"].values())


def _graph(deck: str) -> CircuitGraph:
    return CircuitGraph.from_circuit(flatten(parse_netlist(deck)))


def _bank(pairs: int, tail: str = "tail") -> list[str]:
    """``2 * pairs`` NMOS on one tail net plus its current source: one
    CCC whose DP-N search finds every pair of the bank."""
    cards = [f"m{tail}{i} d{tail}{i} g{tail}{i} {tail} gnd! nmos" for i in range(2 * pairs)]
    return cards + [f"m{tail}src {tail} vb gnd! gnd! nmos"]


def _table_searches(library) -> dict[tuple, list]:
    """Every search ``library``'s table holds: (shape, template) → images."""
    return {
        (key, profile.name): images
        for key, (context, _) in shape_table(library).entries.items()
        for profile, images in context.searches.items()
    }


def test_goldens_twice_through_one_pipeline():
    """Every golden case, flat and hier, interleaved through one
    pipeline per task, twice: each result equals its golden, and the
    second pass names every CCC from the table."""
    pipelines = {task: build_pipeline(task) for task in ("ota", "rf")}
    for second_pass in (False, True):
        for name in sorted(CASES):
            case = CASES[name]
            want = json.loads(case.path.read_text())
            for hier in (False, True):
                netlist, kwargs = case.load()
                result = pipelines[case.task].run(netlist, mode=case.mode, hier=hier, **kwargs)
                payload = {"task": case.task, "mode": case.mode, **golden_payload(result)}
                diff = first_difference(json.loads(json.dumps(payload)), want)
                assert diff is None, (name, hier, second_pass, diff)
                if second_pass:
                    assert _launches(result) == 0, (name, hier)


def test_budget_cut_search_leaves_no_entry():
    """A call cut short by its budget keeps only completed searches;
    the next call without a budget matches like a fresh library."""
    graph = _graph("\n".join(_bank(4) + ["m1 o1 i1 gnd! gnd! nmos", ".end"]) + "\n")
    partition = channel_connected_components(graph)
    library = default_library()
    with pytest.raises(BudgetExceeded):
        annotate_components(graph, partition, library, budget=Budget(max_steps=20))
    cut = _table_searches(library)

    fresh = default_library()
    want = annotate_components(graph, partition, fresh)
    complete = _table_searches(fresh)
    # Only completed searches were kept, and the interrupted one is not.
    assert cut.items() < complete.items()

    stats = MatchStats()
    got = annotate_components(graph, partition, library, stats=stats)
    assert {cid: (r.matches, r.unclaimed) for cid, r in got.items()} == {
        cid: (r.matches, r.unclaimed) for cid, r in want.items()
    }
    assert sum(entry.launches for entry in stats.templates.values()) == len(complete) - len(cut)
    assert _table_searches(library) == complete


def test_changed_rails_on_a_warm_table(quick_ota_annotator, wide_rails):
    """Port predicates read the rails on every CCC, so a table warmed
    under the stock rails answers like a fresh library under new ones."""
    deck = (EXAMPLES_DIR / "diff_ota.sp").read_text()
    pipeline = GanaPipeline(annotator=quick_ota_annotator)
    stock = pipeline.run(deck)
    wide_rails()
    warm = pipeline.run(deck)
    fresh = GanaPipeline(annotator=quick_ota_annotator).run(deck)
    # New claims need searches the stock run skipped; the rest come
    # from the table.
    assert _launches(warm) < _launches(fresh)
    assert pipeline_result_fingerprint(warm) == pipeline_result_fingerprint(fresh)
    assert pipeline_result_fingerprint(fresh) != pipeline_result_fingerprint(stock)


class TestBound:
    def test_table_stays_within_its_bound(self, monkeypatch):
        """Least recently used shapes give way, and each kept shape
        weighs what its context holds."""
        monkeypatch.setattr(matcher, "SHAPE_TABLE_BOUND", 120)
        library = default_library()
        table = shape_table(library)
        seen: set[tuple] = set()
        for path in sorted(EXAMPLES_DIR.glob("*.sp")):
            graph = CircuitGraph.from_circuit(flatten(parse_netlist(path.read_text())))
            annotate_components(graph, channel_connected_components(graph), library)
            assert table.weight == sum(weight for _, weight in table.entries.values())
            assert table.weight <= 120
            for context, weight in table.entries.values():
                assert weight == context.weight
            seen.update(table.entries)
        assert len(seen) > len(table)  # something was evicted

    def test_heavier_entry_serves_its_own_call_only(self):
        """Two 40-pair shared-tail banks: the second bank's DP-N answer
        comes from the first bank's search, but the shape outweighs
        the bound, so the next call searches it again."""
        deck = "\n".join(_bank(40, "ta") + _bank(40, "tb") + [".end"]) + "\n"
        graph = _graph(deck)
        partition = channel_connected_components(graph)
        library = default_library()
        stats = MatchStats()
        annotate_components(graph, partition, library, stats=stats)
        assert stats.counters == {"ccc_matched": 2, "ccc_shared": 1}
        dp = stats.templates["DP-N"]
        assert (dp.launches, dp.shared) == (1, 1)
        assert len(shape_table(library)) == 0
        again = MatchStats()
        annotate_components(graph, partition, library, stats=again)
        assert again.templates["DP-N"].launches == 1


def test_kept_shapes_hold_nothing_of_their_deck(quick_ota_annotator):
    """Once a run's result is dropped, none of its devices stays alive
    through the shapes the table kept from it."""
    circuit = flatten(parse_netlist((EXAMPLES_DIR / "ota_array.sp").read_text()))
    devices = [weakref.ref(device) for device in circuit.devices]
    pipeline = GanaPipeline(annotator=quick_ota_annotator)
    result = pipeline.run(circuit)
    del result, circuit
    gc.collect()
    assert len(shape_table(pipeline.library)) > 0
    assert [ref for ref in devices if ref() is not None] == []


def test_pickled_pipeline_carries_no_table(quick_ota_annotator):
    """The pool initializer's pickle of a pipeline does not grow with
    its table, nor with its runs: an inference forward leaves no
    activations on the GCN layers."""
    decks = [path.read_text() for path in sorted(EXAMPLES_DIR.glob("*.sp"))]
    pipeline = GanaPipeline(annotator=quick_ota_annotator)
    before = len(pickle.dumps(pipeline))
    for deck in decks:
        pipeline.run(deck)
    assert shape_table(pipeline.library).weight > 0
    assert len(pickle.dumps(pipeline)) == before


def test_second_pooled_batch_searches_nothing(quick_ota_annotator):
    """The pool's workers fork from the caller, whose library the
    serial reference runs warmed, and each keeps its copy of the table
    for the pool's lifetime: no batch searches, and both equal serial
    ``run()``."""
    decks = [path.read_text() for path in sorted(EXAMPLES_DIR.glob("*.sp"))]
    pipeline = GanaPipeline(annotator=quick_ota_annotator)
    serial = [pipeline.run(deck) for deck in decks]
    shutdown_pools()
    first = pipeline.run_many(decks, workers=2)
    second = pipeline.run_many(decks, workers=2)
    _assert_same_results(first, serial)
    _assert_same_results(second, serial)
    # Packed GCN probabilities differ from a pack of one in the last
    # bits, so the batches are held to each other byte for byte.
    assert [pipeline_result_fingerprint(r) for r in second] == [
        pipeline_result_fingerprint(r) for r in first
    ]
    assert sum(_launches(result) for result in first + second) == 0
