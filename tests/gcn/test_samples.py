"""GraphSample construction and masking."""

import numpy as np
import pytest

from repro.gcn.batch import pack_samples
from repro.gcn.samples import GraphSample
from repro.graph.bipartite import CircuitGraph
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist
from tests.conftest import DIFF_OTA_DECK


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
