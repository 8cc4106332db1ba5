"""GraphSample construction, masking, the disjoint-union sample, and
the inputs a sample computes once: pooling tables and the first-layer
basis."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.exceptions import ModelConfigError
from repro.gcn.batch import pack_samples
from repro.gcn.chebyshev import chebyshev_slabs
from repro.gcn.coarsening import cluster_members
from repro.gcn.samples import GraphSample
from repro.graph.bipartite import CircuitGraph
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist
from tests.conftest import DIFF_OTA_DECK, EXAMPLES_DIR


@pytest.fixture()
def graph():
    return CircuitGraph.from_circuit(flatten(parse_netlist(DIFF_OTA_DECK)))


class TestFromGraph:
    def test_labels_and_mask(self, graph):
        sample = GraphSample.from_graph(graph, {"m0": 1, "voutp": 0}, levels=2)
        m0 = graph.element_vertex("m0")
        voutp = graph.net_vertex("voutp")
        assert sample.labels[m0] == 1
        assert sample.labels[voutp] == 0
        assert sample.mask[m0] and sample.mask[voutp]

    def test_unlabeled_masked_out(self, graph):
        sample = GraphSample.from_graph(graph, {"m0": 1}, levels=2)
        assert int(sample.mask.sum()) == 1
        assert (sample.labels[~sample.mask] == -1).all()

    def test_feature_shape(self, graph):
        sample = GraphSample.from_graph(graph, {}, levels=2)
        assert sample.features.shape == (graph.n_vertices, 18)
        assert sample.n_vertices == graph.n_vertices

    def test_pyramid_levels(self, graph):
        sample = GraphSample.from_graph(graph, {}, levels=3)
        assert len(sample.pyramid.assignments) == 3

    def test_context_resets_level(self, graph):
        batch = pack_samples([GraphSample.from_graph(graph, {}, levels=2)])
        ctx = batch.context()
        assert ctx.level == 0
        ctx.level = 2
        assert batch.context().level == 0

    def test_deterministic_coarsening_per_seed(self, graph):
        a = GraphSample.from_graph(graph, {}, levels=2, seed=1)
        b = GraphSample.from_graph(graph, {}, levels=2, seed=1)
        for x, y in zip(a.pyramid.assignments, b.pyramid.assignments):
            np.testing.assert_array_equal(x, y)

    def test_keep_graph_flag(self, graph):
        sample = GraphSample.from_graph(graph, {}, levels=1, keep_graph=False)
        assert sample.graph is None


class TestFixedInputs:
    """A sample's pooling tables come with its pyramid; its first-layer
    basis is memoized per filter order, never pickled, and never
    carried into a changed copy."""

    def test_pyramid_carries_its_pooling_tables(self, graph):
        for sample in (
            GraphSample.from_graph(graph, {}, levels=3),
            GraphSample.from_graphs(_fleet_graphs(3), levels=2),
        ):
            pyramid = sample.pyramid
            assert len(pyramid.members) == len(pyramid.assignments) > 0
            for members, assign in zip(pyramid.members, pyramid.assignments):
                _assert_same_array(members, cluster_members(assign))

    def test_basis_is_memoized_per_order(self, graph):
        sample = GraphSample.from_graph(graph, {}, levels=2)
        assert sample.runtime_cache == {}
        basis = sample.input_basis(4)
        _assert_same_array(
            basis,
            chebyshev_slabs(sample.pyramid.laplacians[0], sample.features, 4),
        )
        assert sample.input_basis(4) is basis
        assert sample.input_basis(3).shape == (sample.n_vertices, 3 * 18)
        assert sorted(sample.runtime_cache) == [3, 4]

    def test_pickle_drops_the_memo_and_rebuilds_the_same_bits(self, graph):
        sample = GraphSample.from_graph(graph, {}, levels=2)
        basis = sample.input_basis(4)
        restored = pickle.loads(pickle.dumps(sample))
        assert sample.runtime_cache and restored.runtime_cache == {}
        _assert_same_array(restored.input_basis(4), basis)

    def test_replace_starts_with_an_empty_memo(self, graph):
        sample = GraphSample.from_graph(graph, {}, levels=2)
        sample.input_basis(4)
        changed = dataclasses.replace(sample, features=sample.features * 2)
        assert changed.runtime_cache == {}
        _assert_same_array(
            changed.input_basis(4),
            chebyshev_slabs(changed.pyramid.laplacians[0], changed.features, 4),
        )


def _assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_union_equals_packing(graphs, labels=None, levels=2):
    """``from_graphs`` against ``pack_samples`` of the graphs' own
    samples: features, labels, mask, offsets, and every level's
    assignment and Laplacian, bit for bit.  Returns both packs."""
    labels = labels or [{} for _ in graphs]
    union = pack_samples(
        [GraphSample.from_graphs(graphs, labels=labels, levels=levels)]
    )
    packed = pack_samples(
        [
            GraphSample.from_graph(graph, graph_labels, levels=levels)
            for graph, graph_labels in zip(graphs, labels)
        ]
    )
    for name in ("features", "labels", "mask"):
        _assert_same_array(getattr(union, name), getattr(packed, name))
    assert union.n_graphs == packed.n_graphs == len(graphs)
    assert len(union.offsets) == len(packed.offsets)
    for got, want in zip(union.offsets, packed.offsets):
        _assert_same_array(got, want)
    assert len(union.pyramid.assignments) == len(packed.pyramid.assignments)
    assignments = zip(union.pyramid.assignments, packed.pyramid.assignments)
    for got, want in assignments:
        _assert_same_array(got, want)
    for got, want in zip(union.pyramid.laplacians, packed.pyramid.laplacians):
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            _assert_same_array(getattr(got, name), getattr(want, name))
    return union, packed


def _fleet_graphs(n: int) -> list[CircuitGraph]:
    from repro.datasets.synth import generate_ota_bias_dataset

    dataset = generate_ota_bias_dataset(n, seed="union-fleet", workers=1)
    return [CircuitGraph.from_circuit(item.circuit) for item in dataset]


def _deck_graph(text: str) -> CircuitGraph:
    return CircuitGraph.from_circuit(flatten(parse_netlist(text)))


class TestUnion:
    """One sample for the disjoint union of several graphs equals the
    graphs' own samples packed together."""

    def test_fleet_size_graphs(self):
        graphs = _fleet_graphs(8)
        assert len({g.n_vertices for g in graphs}) > 1
        _assert_union_equals_packing(graphs)

    def test_flat_size_graphs(self, graph):
        from repro.datasets.systems import phased_array, switched_cap_filter

        graphs = [
            CircuitGraph.from_circuit(phased_array(n_channels=10).circuit),
            graph,
            CircuitGraph.from_circuit(switched_cap_filter().circuit),
        ]
        assert graphs[0].n_vertices > 500
        _assert_union_equals_packing(graphs, levels=3)

    def test_union_of_one(self, graph):
        one = GraphSample.from_graphs([graph], labels=[{"m0": 1}])
        alone = GraphSample.from_graph(graph, {"m0": 1})
        _assert_union_equals_packing([graph], labels=[{"m0": 1}])
        assert one.name == alone.name == graph.circuit.name
        assert one.graph is None and alone.graph is graph
        assert [o.tolist() for o in one.pyramid.offsets] == [
            [0, size] for size in alone.pyramid.sizes()
        ]

    def test_same_circuit_name_keeps_own_stream(self, graph):
        """Two graphs with one circuit name each coarsen with the
        stream they would use alone."""
        other = _deck_graph(
            (EXAMPLES_DIR / "ota_array.sp").read_text()
        )
        assert other.circuit.name == graph.circuit.name
        _assert_union_equals_packing([graph, other, graph])

    def test_labels_per_graph(self):
        graphs = _fleet_graphs(3)
        first, last = graphs[0], graphs[2]
        labels = [
            {first.vertex_name(0): 1, first.nets[0]: 0},
            {},
            {last.vertex_name(1): 1},
        ]
        union, _ = _assert_union_equals_packing(graphs, labels=labels)
        assert int(union.mask.sum()) == 3

    def test_stops_where_its_shortest_graph_stops(self, graph):
        """A graph that coarsens to one vertex stops the whole union,
        as it stops ``pack_samples`` of its own sample."""
        short = _deck_graph("c1 a a 1p\n.end\n")
        union, _ = _assert_union_equals_packing([graph, short, graph])
        assert len(union.pyramid.assignments) == 1
        empty = _deck_graph(".end\n")
        assert empty.n_vertices == 0
        union, _ = _assert_union_equals_packing([graph, empty])
        assert union.pyramid.assignments == []

    def test_no_graphs_rejected(self):
        with pytest.raises(ModelConfigError, match="no graphs"):
            GraphSample.from_graphs([])

    def test_probabilities_equal_packing(self, quick_ota_annotator, graph):
        graphs = _fleet_graphs(5) + [graph]
        model = quick_ota_annotator.model
        levels = model.config.levels_needed
        packed = model.predict_proba_batch(
            [GraphSample.from_graph(g, {}, levels=levels) for g in graphs]
        )
        union = model.predict_proba_batch(
            [GraphSample.from_graphs(graphs, levels=levels)]
        )
        annotated = quick_ota_annotator.annotate_batch(graphs)
        assert len(union) == len(annotated) == len(graphs)
        for want, got, annotation in zip(packed, union, annotated):
            _assert_same_array(got, want)
            _assert_same_array(annotation.probabilities, want)
