"""The loop versions of the graph layer's passes, kept as references.

``feature_matrix`` fills its slots with array assignments and
``channel_connected_components`` walks the edges once; the functions
below are the per-device / per-edge loops they replaced, kept here
only to hold the new passes to them bit for bit: the same feature
bytes, and a partition that pickles to the same bytes (set and dict
insertion orders included), on generated decks, the example decks,
hand-built corner cases and empty graphs.  The hypothesis versions
are marked ``property``.
"""

from __future__ import annotations

import pickle
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.bipartite import DRAIN_BIT, SOURCE_BIT, CircuitGraph
from repro.graph.ccc import CCCPartition, _UnionFind, channel_connected_components
from repro.graph.features import (
    _EDGE_SLOT,
    _HIER_SLOT,
    _KIND_SLOT,
    _LEVEL_SLOT,
    _VALUE_SLOTS,
    N_FEATURES,
    NetRole,
    ValueBuckets,
    feature_matrix,
    infer_net_role,
)
from repro.spice.flatten import flatten, instance_path
from repro.spice.netlist import Circuit, is_power_net
from repro.spice.parser import parse_netlist
from repro.testing.generator import GenConfig, generate_deck
from tests.conftest import EXAMPLE_DECK_PATHS

# ---------------------------------------------------------------------------
# References: the loop versions
# ---------------------------------------------------------------------------


def reference_feature_matrix(
    graph: CircuitGraph,
    net_roles: dict[str, NetRole] | None = None,
    buckets: ValueBuckets | None = None,
) -> np.ndarray:
    """``feature_matrix`` as one numpy scalar store per slot."""
    buckets = buckets or ValueBuckets()
    n = graph.n_vertices
    features = np.zeros((n, N_FEATURES), dtype=np.float64)

    max_depth = 1
    for dev in graph.elements:
        max_depth = max(max_depth, len(instance_path(dev.name)))

    incident: list[list[int]] = [[] for _ in range(graph.n_elements)]
    for edge in graph.edges:
        incident[edge.element].append(edge.label)

    for i, dev in enumerate(graph.elements):
        slot = _KIND_SLOT.get(dev.kind)
        if slot is not None:
            features[i, slot] = 1.0
        depth = len(instance_path(dev.name))
        if depth > 1:
            features[i, _HIER_SLOT] = 1.0
        features[i, _LEVEL_SLOT] = depth / max_depth
        features[i, _VALUE_SLOTS[buckets.bucket(dev)]] = 1.0
        if dev.kind.is_transistor and incident[i]:
            features[i, _EDGE_SLOT] = max(incident[i]) / 7.0

    ports = graph.circuit.ports
    for j, net in enumerate(graph.nets):
        vertex = graph.n_elements + j
        role = infer_net_role(net, ports, net_roles)
        if role.slot is not None:
            features[vertex, role.slot] = 1.0
    return features


def reference_ccc(graph: CircuitGraph) -> CCCPartition:
    """``channel_connected_components`` as four walks over the edges."""
    uf = _UnionFind(graph.n_elements)
    power = {
        net_local
        for net_local, net in enumerate(graph.nets)
        if is_power_net(net)
    }
    ds_on_net: dict[int, list[int]] = defaultdict(list)
    for edge in graph.edges:
        dev = graph.elements[edge.element]
        if not dev.kind.is_transistor or edge.net in power:
            continue
        if edge.label & (SOURCE_BIT | DRAIN_BIT):
            ds_on_net[edge.net].append(edge.element)
    for members in ds_on_net.values():
        first = members[0]
        for other in members[1:]:
            uf.union(first, other)

    root_to_id: dict[int, int] = {}
    components: list[set[int]] = []
    of_element: dict[int, int] = {}
    for idx, dev in enumerate(graph.elements):
        if not dev.kind.is_transistor:
            continue
        root = uf.find(idx)
        if root not in root_to_id:
            root_to_id[root] = len(components)
            components.append(set())
        cid = root_to_id[root]
        components[cid].add(idx)
        of_element[idx] = cid

    of_net: dict[int, set[int]] = defaultdict(set)
    for edge in graph.edges:
        cid = of_element.get(edge.element)
        if cid is not None:
            of_net[edge.net].add(cid)

    edges_of: dict[int, list] = defaultdict(list)
    for edge in graph.edges:
        edges_of[edge.element].append(edge)
    for idx, dev in enumerate(graph.elements):
        if dev.kind.is_transistor:
            continue
        touching: set[int] = set()
        for edge in edges_of.get(idx, ()):
            if edge.net not in power:
                touching |= of_net.get(edge.net, set())
        if touching:
            cid = min(touching)
        else:
            cid = len(components)
            components.append(set())
        components[cid].add(idx)
        of_element[idx] = cid

    of_net = defaultdict(set)
    for edge in graph.edges:
        cid = of_element.get(edge.element)
        if cid is not None:
            of_net[edge.net].add(cid)
    return CCCPartition(
        components=components, of_element=of_element, of_net=dict(of_net)
    )


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def assert_graph_passes_match(graph: CircuitGraph, net_roles=None) -> None:
    got = feature_matrix(graph, net_roles=net_roles)
    want = reference_feature_matrix(graph, net_roles=net_roles)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    new, old = channel_connected_components(graph), reference_ccc(graph)
    assert pickle.dumps((new.components, new.of_element, new.of_net)) == (
        pickle.dumps((old.components, old.of_element, old.of_net))
    )


def generated_graph(seed: int) -> CircuitGraph | None:
    """The graph of generated deck ``seed`` (hierarchical decks
    flattened), or None for a deck its own parse mode rejects."""
    deck = generate_deck(seed, GenConfig())
    try:
        circuit = flatten(parse_netlist(deck.text, mode=deck.mode))
        return CircuitGraph.from_circuit(circuit)
    except Exception:  # noqa: BLE001 - dirt the lenient parse keeps
        return None


def _graph(deck: str) -> CircuitGraph:
    return CircuitGraph.from_circuit(flatten(parse_netlist(deck)))


@pytest.mark.parametrize("seed", range(0, 200, 8))
def test_generated_decks_match_the_loops(seed):
    graph = generated_graph(seed)
    if graph is None:
        pytest.skip("deck fails in its own parse mode")
    assert_graph_passes_match(graph)


@pytest.mark.parametrize("path", EXAMPLE_DECK_PATHS, ids=lambda p: p.stem)
def test_example_decks_match_the_loops(path):
    graph = _graph(path.read_text())
    assert_graph_passes_match(graph)
    # A net role override moves only its own slot.
    net = graph.nets[0]
    assert_graph_passes_match(graph, net_roles={net: NetRole.BIAS})


def test_empty_graphs_match_the_loops():
    empty = CircuitGraph.from_circuit(Circuit(name="empty"))
    assert feature_matrix(empty).shape == (0, N_FEATURES)
    assert_graph_passes_match(empty)
    ports_only = CircuitGraph.from_circuit(Circuit(name="p", ports=("vin", "vdd!")))
    assert ports_only.n_elements == 0 and ports_only.n_nets == 2
    assert_graph_passes_match(ports_only)


def test_corner_cases_match_the_loops():
    deck = """
* a transistor with no edge but its body, a diode, passives on rails
* only, a passive touching two CCCs, a floating passive pair, and a
* hierarchy-deep device name
m1 vdd! vdd! vdd! gnd! pmos
m2 a a gnd! gnd! nmos
m3 b a gnd! gnd! nmos
m4 c b gnd! gnd! nmos
r1 vdd! gnd! 1k
r2 a c 10k
c1 x y 1p
c2 y z 10p
l1 z gnd! 1n
.end
"""
    graph = _graph(deck)
    assert_graph_passes_match(graph)
    # The passive bridging two CCCs joins the lower id, as in the loop.
    partition = channel_connected_components(graph)
    r2 = graph.element_index["r2"]
    assert partition.of_element[r2] == min(
        partition.of_element[graph.element_index[m]] for m in ("m2", "m4")
    )


@pytest.mark.property
@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60, deadline=None)
def test_generated_decks_match_the_loops_property(seed):
    graph = generated_graph(seed)
    if graph is not None:
        assert_graph_passes_match(graph)
