"""Bipartite circuit-graph representation (Sec. II-C).

A flat circuit becomes an undirected bipartite graph ``G(V, E)`` with
``V = Ve ∪ Vn``: element vertices (transistors and passives) and net
vertices.  Each transistor edge carries the paper's 3-bit label
``lg ls ld`` — bit set when the transistor touches that net through its
gate / source / drain.  A transistor that touches one net through two
terminals gets the OR of the bits on a single edge (e.g. a
diode-connected device has a ``101`` edge).  Passive edges are
unlabeled (label 0).

Body terminals are excluded from the edge set, matching the paper's
figures ("body connections are not shown"); bulk nets are almost always
power rails and would only blur the spectral filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphConstructionError
from repro.spice.netlist import Circuit, Device, is_power_net
from repro.utils.sparse import csr_from_coo

#: Bit positions of the 3-bit edge label ``lg ls ld`` (gate is the MSB).
GATE_BIT = 0b100
SOURCE_BIT = 0b010
DRAIN_BIT = 0b001

_TERMINAL_BITS = {"g": GATE_BIT, "s": SOURCE_BIT, "d": DRAIN_BIT}


class _EdgeFields(NamedTuple):
    element: int  # element vertex index (0-based within elements)
    net: int  # net vertex index (0-based within nets)
    label: int  # 0..7; 0 for passives


class Edge(_EdgeFields):
    """An undirected element–net edge with its 3-bit label.

    A named tuple: a flat deck has thousands of edges, and graph
    construction makes them with ``tuple.__new__``, whose labels are
    ORs of ``_TERMINAL_BITS`` and so in range.  An edge built by
    calling ``Edge`` (or unpickled) has its label checked.
    """

    __slots__ = ()

    def __new__(cls, element: int, net: int, label: int) -> "Edge":
        if not 0 <= label <= 7:
            raise GraphConstructionError(f"edge label out of range: {label}")
        return super().__new__(cls, element, net, label)


@dataclass
class CircuitGraph:
    """The bipartite element/net graph of a flat circuit.

    Vertex numbering: elements occupy indices ``0 .. n_elements-1`` and
    nets occupy ``n_elements .. n_vertices-1``.  This global numbering
    is what the Laplacian, features, and GCN all use.
    """

    circuit: Circuit
    elements: list[Device]
    nets: list[str]
    edges: list[Edge]
    net_index: dict[str, int] = field(default_factory=dict)
    element_index: dict[str, int] = field(default_factory=dict)

    # -- construction -------------------------------------------------

    @classmethod
    def from_circuit(
        cls, circuit: Circuit, include_sources: bool = False
    ) -> "CircuitGraph":
        """Build the bipartite graph of a flat circuit.

        ``include_sources`` controls whether V/I source cards become
        element vertices; by default they are treated as testbench and
        skipped (their nets still appear if other devices touch them).
        """
        if not circuit.is_flat():
            raise GraphConstructionError(
                f"circuit {circuit.name!r} still has subcircuit instances; "
                "flatten() it first"
            )
        elements = [
            d
            for d in circuit.devices
            if include_sources or not d.kind.is_source
        ]
        # One pass: nets are numbered in order of first appearance over
        # the elements' pins, and each element's edges follow its pins.
        nets: list[str] = []
        net_index: dict[str, int] = {}
        edges: list[Edge] = []
        new_edge = tuple.__new__
        for idx, dev in enumerate(elements):
            # A transistor's pins are (d, g, s, b) and its body is not an
            # edge; other elements' terminals (p, n) carry no label bit.
            pins = dev.pins[:3] if dev.kind.is_transistor else dev.pins
            labels: dict[int, int] = {}
            for term, net in pins:
                nid = net_index.get(net)
                if nid is None:
                    nid = net_index[net] = len(nets)
                    nets.append(net)
                labels[nid] = labels.get(nid, 0) | _TERMINAL_BITS.get(term, 0)
            for nid, label in labels.items():
                edges.append(new_edge(Edge, (idx, nid, label)))
        # Ports with no device connection still deserve vertices so that
        # annotation covers every declared net.
        for port in circuit.ports:
            if port not in net_index:
                net_index[port] = len(nets)
                nets.append(port)

        element_index = {d.name: i for i, d in enumerate(elements)}
        if len(element_index) != len(elements):
            raise GraphConstructionError("duplicate device names in circuit")
        return cls(
            circuit=circuit,
            elements=elements,
            nets=nets,
            edges=edges,
            net_index=net_index,
            element_index=element_index,
        )

    def __getstate__(self) -> dict:
        """Pickle without the derived edge caches (:meth:`edge_arrays`,
        :meth:`element_edge_lists`), which rebuild on first use, so a
        graph pickles the same whatever it has been used for."""
        state = self.__dict__.copy()
        state.pop("_edge_arrays", None)
        state.pop("_element_edges", None)
        return state

    # -- sizes and vertex bookkeeping ---------------------------------

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_nets(self) -> int:
        return len(self.nets)

    @property
    def n_vertices(self) -> int:
        return self.n_elements + self.n_nets

    def net_vertex(self, net: str) -> int:
        """Global vertex index of a net name."""
        return self.n_elements + self.net_index[net]

    def element_vertex(self, name: str) -> int:
        """Global vertex index of a device name."""
        return self.element_index[name]

    def vertex_name(self, vertex: int) -> str:
        """Device or net name of a global vertex index."""
        if vertex < self.n_elements:
            return self.elements[vertex].name
        return self.nets[vertex - self.n_elements]

    def is_element_vertex(self, vertex: int) -> bool:
        return vertex < self.n_elements

    def element_of(self, vertex: int) -> Device:
        """The device behind an element vertex."""
        if not self.is_element_vertex(vertex):
            raise IndexError(f"vertex {vertex} is a net vertex")
        return self.elements[vertex]

    # -- matrices ------------------------------------------------------

    def adjacency(self) -> sp.csr_matrix:
        """Unweighted symmetric adjacency over all vertices (canonical CSR)."""
        element, net, _label = self.edge_arrays()
        net = net + self.n_elements
        return csr_from_coo(
            np.concatenate([element, net]),
            np.concatenate([net, element]),
            np.ones(2 * len(element)),
            self.n_vertices,
        )

    def edge_label(self, element: int, net: int) -> int | None:
        """3-bit label between an element vertex and a net (local index).

        Returns None when there is no such edge.  O(E) lookup is fine at
        the scales this package works at; hot paths use adjacency lists.
        """
        for edge in self.edges:
            if edge.element == element and edge.net == net:
                return edge.label
        return None

    def neighbors(self) -> list[list[tuple[int, int]]]:
        """Adjacency list over global indices: vertex -> [(other, label)]."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        for edge in self.edges:
            u = edge.element
            v = self.n_elements + edge.net
            adj[u].append((v, edge.label))
            adj[v].append((u, edge.label))
        return adj

    def degrees(self) -> np.ndarray:
        """Vertex degrees (global numbering)."""
        deg = np.zeros(self.n_vertices, dtype=np.int64)
        for edge in self.edges:
            deg[edge.element] += 1
            deg[self.n_elements + edge.net] += 1
        return deg

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(element, net, label)`` int64 arrays over all edges.

        Cached on first use (the edge list never changes after
        construction); these feed the vectorized postprocessing scans,
        which turn per-edge Python predicates into numpy masks.
        """
        cached = getattr(self, "_edge_arrays", None)
        if cached is not None and len(cached[0]) == len(self.edges):
            return cached
        n = len(self.edges)
        element = np.fromiter(
            (e.element for e in self.edges), dtype=np.int64, count=n
        )
        net = np.fromiter((e.net for e in self.edges), dtype=np.int64, count=n)
        label = np.fromiter(
            (e.label for e in self.edges), dtype=np.int64, count=n
        )
        self._edge_arrays = (element, net, label)
        return self._edge_arrays

    def element_edge_lists(self) -> list[list[Edge]]:
        """Per-element incident edge lists, cached on first use."""
        cached = getattr(self, "_element_edges", None)
        if cached is not None and len(cached) == self.n_elements:
            return cached
        lists: list[list[Edge]] = [[] for _ in range(self.n_elements)]
        for edge in self.edges:
            lists[edge.element].append(edge)
        self._element_edges = lists
        return lists

    # -- derived views -------------------------------------------------

    def power_net_vertices(self) -> set[int]:
        """Global vertex indices of supply/ground nets."""
        return {
            self.n_elements + i
            for i, net in enumerate(self.nets)
            if is_power_net(net)
        }

    def transistor_vertices(self) -> list[int]:
        """Global indices of NMOS/PMOS element vertices."""
        return [
            i for i, dev in enumerate(self.elements) if dev.kind.is_transistor
        ]

    def subgraph_of_elements(self, element_indices: set[int]) -> "CircuitGraph":
        """Graph induced by a subset of elements (nets pruned to touched)."""
        devices = [self.elements[i] for i in sorted(element_indices)]
        sub = Circuit(name=f"{self.circuit.name}_sub", devices=devices)
        return CircuitGraph.from_circuit(sub)

    def summary(self) -> str:
        """One-line description, e.g. for logging."""
        return (
            f"CircuitGraph({self.circuit.name}: {self.n_elements} elements, "
            f"{self.n_nets} nets, {len(self.edges)} edges)"
        )
