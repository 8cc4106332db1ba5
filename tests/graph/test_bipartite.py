"""Bipartite graph construction and the 3-bit edge labels (Sec. II-C)."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphConstructionError
from repro.graph.bipartite import (
    DRAIN_BIT,
    GATE_BIT,
    SOURCE_BIT,
    CircuitGraph,
    Edge,
)
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist
from tests.conftest import CURRENT_MIRROR_DECK, HIERARCHICAL_DECK


class TestConstruction:
    def test_element_and_net_counts(self, current_mirror_graph):
        # Two transistors; nets d1, d2, s (bodies excluded).
        assert current_mirror_graph.n_elements == 2
        assert current_mirror_graph.n_nets == 3
        assert current_mirror_graph.n_vertices == 5

    def test_rejects_unflattened_circuit(self):
        netlist = parse_netlist(HIERARCHICAL_DECK)
        with pytest.raises(GraphConstructionError):
            CircuitGraph.from_circuit(netlist.top)

    def test_sources_excluded_by_default(self):
        deck = "vdd vdd! 0 dc 1.8\nr1 a vdd! 1k\n.end\n"
        graph = CircuitGraph.from_circuit(flatten(parse_netlist(deck)))
        assert graph.n_elements == 1

    def test_sources_included_on_request(self):
        deck = "vdd vdd! 0 dc 1.8\nr1 a vdd! 1k\n.end\n"
        flat = flatten(parse_netlist(deck))
        graph = CircuitGraph.from_circuit(flat, include_sources=True)
        assert graph.n_elements == 2

    def test_unconnected_port_gets_net_vertex(self):
        deck = "r1 a b 1k\n.end\n"
        flat = flatten(parse_netlist(deck))
        flat.ports = ("a", "b", "floating")
        graph = CircuitGraph.from_circuit(flat)
        assert "floating" in graph.net_index

    def test_duplicate_device_names_rejected(self, current_mirror_graph):
        circuit = current_mirror_graph.circuit
        circuit.devices.append(circuit.devices[0])
        with pytest.raises(GraphConstructionError):
            CircuitGraph.from_circuit(circuit)
        circuit.devices.pop()


class TestEdgeLabels:
    def test_fig2_current_mirror_labels(self, current_mirror_graph):
        """Reproduce the exact labels of Fig. 2(b)."""
        g = current_mirror_graph
        m0, m1 = g.element_index["m0"], g.element_index["m1"]
        d1, d2, s = (g.net_index[n] for n in ("d1", "d2", "s"))
        # M0 is diode-connected at d1: gate+drain on one edge = 101.
        assert g.edge_label(m0, d1) == GATE_BIT | DRAIN_BIT
        assert g.edge_label(m0, s) == SOURCE_BIT
        # M1: gate at d1 (100), drain at d2 (001), source at s (010).
        assert g.edge_label(m1, d1) == GATE_BIT
        assert g.edge_label(m1, d2) == DRAIN_BIT
        assert g.edge_label(m1, s) == SOURCE_BIT

    def test_passive_edges_unlabeled(self):
        deck = "r1 a b 1k\n.end\n"
        graph = CircuitGraph.from_circuit(flatten(parse_netlist(deck)))
        assert all(e.label == 0 for e in graph.edges)

    def test_body_terminal_excluded(self, current_mirror_graph):
        assert "gnd!" not in current_mirror_graph.net_index

    def test_label_range_validated(self):
        with pytest.raises(GraphConstructionError):
            Edge(element=0, net=0, label=9)

    def test_cross_coupled_labels(self):
        deck = """
m1 d1 d2 s gnd! nmos
m2 d2 d1 s gnd! nmos
.end
"""
        g = CircuitGraph.from_circuit(flatten(parse_netlist(deck)))
        m1 = g.element_index["m1"]
        d2 = g.net_index["d2"]
        assert g.edge_label(m1, d2) == GATE_BIT  # gate-only, not diode


class TestMatrices:
    def test_adjacency_symmetric(self, diff_ota_graph):
        adj = diff_ota_graph.adjacency()
        assert (adj != adj.T).nnz == 0

    def test_adjacency_bipartite(self, diff_ota_graph):
        """No element–element or net–net edges."""
        adj = diff_ota_graph.adjacency().toarray()
        ne = diff_ota_graph.n_elements
        assert not adj[:ne, :ne].any()
        assert not adj[ne:, ne:].any()

    def test_adjacency_is_the_canonical_csr_of_the_edge_list(self, diff_ota_graph):
        # A declared port no device touches is a trailing isolated vertex.
        circuit = dataclasses.replace(
            diff_ota_graph.circuit,
            ports=(*diff_ota_graph.circuit.ports, "unused_port"),
        )
        graph = CircuitGraph.from_circuit(circuit)
        rows = [e.element for e in graph.edges]
        cols = [graph.n_elements + e.net for e in graph.edges]
        n = graph.n_vertices
        want = sp.csr_matrix(
            (np.ones(2 * len(rows)), (rows + cols, cols + rows)), shape=(n, n)
        )
        got = graph.adjacency()
        assert got.indptr[-1] == got.indptr[-2]  # the isolated port
        for name in ("indptr", "indices", "data"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype, name
            np.testing.assert_array_equal(g, w)

    def test_degrees_match_adjacency(self, diff_ota_graph):
        adj = diff_ota_graph.adjacency()
        np.testing.assert_array_equal(
            diff_ota_graph.degrees(), np.asarray(adj.sum(axis=1)).ravel()
        )

    def test_neighbors_consistent_with_edges(self, diff_ota_graph):
        adj_list = diff_ota_graph.neighbors()
        n_half_edges = sum(len(nbrs) for nbrs in adj_list)
        assert n_half_edges == 2 * len(diff_ota_graph.edges)


class TestVertexBookkeeping:
    def test_vertex_name_roundtrip(self, diff_ota_graph):
        g = diff_ota_graph
        for v in range(g.n_vertices):
            name = g.vertex_name(v)
            if g.is_element_vertex(v):
                assert g.element_vertex(name) == v
            else:
                assert g.net_vertex(name) == v

    def test_element_of_rejects_net_vertex(self, diff_ota_graph):
        with pytest.raises(IndexError):
            diff_ota_graph.element_of(diff_ota_graph.n_vertices - 1)

    def test_power_net_vertices(self, diff_ota_graph):
        power = diff_ota_graph.power_net_vertices()
        names = {diff_ota_graph.vertex_name(v) for v in power}
        assert names == {"vdd!", "gnd!"}

    def test_transistor_vertices(self, diff_ota_graph):
        assert len(diff_ota_graph.transistor_vertices()) == 6

    def test_subgraph_of_elements(self, diff_ota_graph):
        g = diff_ota_graph
        sub = g.subgraph_of_elements({g.element_index["m2"], g.element_index["m3"]})
        assert sub.n_elements == 2
        assert "id" in sub.net_index

    def test_summary_mentions_counts(self, diff_ota_graph):
        text = diff_ota_graph.summary()
        assert str(diff_ota_graph.n_elements) in text
