"""The loop versions of Postprocessing's array passes, kept as references.

Post-I votes every CCC with one argmax over its tally matrix, both
relabels count (net, class) edge pairs with ``np.bincount``, and the
port rules read each net's CCCs from the graph's cached edge arrays.
The functions below are the per-CCC, per-edge and per-dict loops those
passes replaced, kept here only to hold them to the loops bit for bit:
on generated decks, on hand-built ties (equal edge counts on a net, so
the class seen first in edge order must win), on elements of class −1
and nets touched only by unclassified elements, on extra classes
(``bpf``, ``inv``) and on empty graphs.  The hypothesis versions are
marked ``property``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annotator import Annotation
from repro.core.postprocess import (
    RF_CLASSES,
    PostprocessResult,
    _ccc_tallies,
    _ccc_vote,
    _net_runs,
    _relabel,
    apply_port_rules,
)
from repro.graph.bipartite import DRAIN_BIT, GATE_BIT, SOURCE_BIT, CircuitGraph
from repro.graph.ccc import CCCPartition, channel_connected_components
from repro.spice.flatten import flatten
from repro.spice.netlist import Circuit
from repro.spice.parser import parse_netlist
from tests.graph.test_reference_passes import generated_graph

# ---------------------------------------------------------------------------
# References: the loop versions
# ---------------------------------------------------------------------------


def reference_ccc_vote(
    annotation: Annotation, partition: CCCPartition
) -> dict[int, int]:
    """Majority class per CCC, one tally row and one argmax at a time."""
    tallies = _ccc_tallies(annotation, partition)
    return {
        cid: int(t.argmax()) if t.sum() > 0 else -1
        for cid, t in enumerate(tallies)
    }


def reference_relabel(
    annotation: Annotation,
    partition: CCCPartition,
    ccc_classes: dict[int, int],
) -> None:
    """``_relabel`` as a per-member store and a dict of per-net dicts."""
    graph = annotation.graph
    for cid, members in enumerate(partition.components):
        cls = ccc_classes.get(cid, -1)
        if cls < 0:
            continue
        for element in members:
            annotation.vertex_classes[element] = cls

    net_tally: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for edge in graph.edges:
        cls = int(annotation.vertex_classes[edge.element])
        if cls >= 0:
            net_tally[edge.net][cls] += 1
    offset = graph.n_elements
    for net_local, tally in net_tally.items():
        best = max(tally.items(), key=lambda kv: kv[1])[0]
        annotation.vertex_classes[offset + net_local] = best


def reference_touching(
    graph: CircuitGraph, partition: CCCPartition, net_local: int, bits: int
) -> set[int]:
    """The port rules' ``touching``: the CCCs on a net, through edges
    carrying ``bits`` (any edge for 0), from a net → edge-list dict."""
    edges_by_net: dict[int, list] = defaultdict(list)
    for edge in graph.edges:
        edges_by_net[edge.net].append(edge)
    out: set[int] = set()
    for edge in edges_by_net.get(net_local, ()):
        if bits and not (edge.label & bits):
            continue
        owner = partition.of_element.get(edge.element)
        if owner is not None:
            out.add(owner)
    return out


def reference_port_rules(
    result: PostprocessResult, port_labels: dict[str, str]
) -> PostprocessResult:
    """``apply_port_rules`` with the dict-based ``touching`` and an
    unconditional relabel."""
    annotation = result.annotation.copy()
    partition = result.partition
    graph = annotation.graph
    ccc_classes = dict(result.ccc_classes)
    rf_ids = {
        name: annotation.class_names.index(name)
        for name in RF_CLASSES
        if name in annotation.class_names
    }
    mutable = set(rf_ids.values())

    def touching(net_local: int, bits: int) -> set[int]:
        return reference_touching(graph, partition, net_local, bits)

    for net, label in port_labels.items():
        if net not in graph.net_index:
            continue
        net_local = graph.net_index[net]
        if label == "antenna":
            for cid in touching(net_local, bits=0):
                if ccc_classes.get(cid) in mutable:
                    ccc_classes[cid] = rf_ids.get("lna", ccc_classes[cid])
        elif label == "oscillating":
            drive = touching(net_local, bits=DRAIN_BIT | SOURCE_BIT)
            receive = touching(net_local, bits=GATE_BIT) - drive
            for cid in drive:
                if ccc_classes.get(cid) in mutable:
                    ccc_classes[cid] = rf_ids.get("osc", ccc_classes[cid])
            for cid in receive:
                if ccc_classes.get(cid) in mutable:
                    ccc_classes[cid] = rf_ids.get("mixer", ccc_classes[cid])
    reference_relabel(annotation, partition, ccc_classes)
    return PostprocessResult(
        annotation=annotation, partition=partition, ccc_classes=ccc_classes
    )


# ---------------------------------------------------------------------------
# Cases and checks
# ---------------------------------------------------------------------------

#: Extra classes Post-I invents beyond the GCN vocabulary.
EXTRA = ["bpf", "inv"]


def random_case(graph: CircuitGraph, seed: int, with_probabilities: bool = True):
    """A random RF-vocabulary annotation of ``graph`` (class −1 on some
    vertices), its partition, and random CCC classes: −1, GCN ids and
    the extra classes' ids, some CCCs left out."""
    rng = np.random.default_rng(seed)
    n_classes = len(RF_CLASSES)
    partition = channel_connected_components(graph)
    probabilities = None
    if with_probabilities:
        probabilities = rng.dirichlet(np.ones(n_classes), size=graph.n_vertices)
        # Some rows all zero: their CCCs may tally nothing.
        probabilities[rng.random(graph.n_vertices) < 0.2] = 0.0
    annotation = Annotation(
        graph=graph,
        class_names=RF_CLASSES,
        vertex_classes=rng.integers(-1, n_classes, size=graph.n_vertices),
        probabilities=probabilities,
        extra_classes=list(EXTRA),
    )
    ccc_classes = {
        cid: int(rng.integers(-1, n_classes + len(EXTRA)))
        for cid in range(partition.n_components)
        if rng.random() < 0.9
    }
    return annotation, partition, ccc_classes


def assert_relabel_matches(annotation, partition, ccc_classes) -> np.ndarray:
    got, want = annotation.copy(), annotation.copy()
    _relabel(got, partition, ccc_classes)
    reference_relabel(want, partition, ccc_classes)
    assert got.vertex_classes.dtype == want.vertex_classes.dtype
    assert got.vertex_classes.tobytes() == want.vertex_classes.tobytes()
    return got.vertex_classes


def assert_vote_matches(annotation, partition) -> None:
    got = _ccc_vote(_ccc_tallies(annotation, partition))
    assert list(got.items()) == list(reference_ccc_vote(annotation, partition).items())
    assert all(type(cls) is int for cls in got.values())


def assert_port_rules_match(annotation, partition, ccc_classes, seed) -> None:
    graph = annotation.graph
    # A Post-I state: the annotation relabeled with its CCC classes.
    relabeled = annotation.copy()
    reference_relabel(relabeled, partition, ccc_classes)
    post1 = PostprocessResult(
        annotation=relabeled, partition=partition, ccc_classes=ccc_classes
    )
    rng = np.random.default_rng(seed)
    labels = ["antenna", "oscillating", "bias"]
    port_labels = {
        net: labels[int(rng.integers(len(labels)))]
        for net in graph.nets
        if rng.random() < 0.3
    }
    port_labels["no_such_net"] = "antenna"
    got = apply_port_rules(post1, port_labels)
    want = reference_port_rules(post1, port_labels)
    assert got.ccc_classes == want.ccc_classes
    assert (
        got.annotation.vertex_classes.tobytes()
        == want.annotation.vertex_classes.tobytes()
    )
    # The per-net runs hold exactly the loop's CCCs for every rule.
    bounds, owners, edge_labels = _net_runs(graph, partition)
    for net_local in range(graph.n_nets):
        lo, hi = bounds[net_local], bounds[net_local + 1]
        for bits in (0, DRAIN_BIT | SOURCE_BIT, GATE_BIT):
            runs = {
                owner
                for owner, label in zip(owners[lo:hi], edge_labels[lo:hi])
                if owner >= 0 and (not bits or label & bits)
            }
            assert runs == reference_touching(graph, partition, net_local, bits)


def assert_passes_match(graph: CircuitGraph, seed: int) -> None:
    for with_probabilities in (True, False):
        annotation, partition, ccc_classes = random_case(
            graph, seed, with_probabilities
        )
        assert_vote_matches(annotation, partition)
        assert_relabel_matches(annotation, partition, ccc_classes)
    assert_port_rules_match(annotation, partition, ccc_classes, seed)


def _graph(deck: str) -> CircuitGraph:
    return CircuitGraph.from_circuit(flatten(parse_netlist(deck)))


@pytest.mark.parametrize("seed", range(0, 200, 8))
def test_generated_decks_match_the_loops(seed):
    graph = generated_graph(seed)
    if graph is None:
        pytest.skip("deck fails in its own parse mode")
    assert_passes_match(graph, seed)


#: Net ``a`` touches m1, then r1, then m2 (edge order is element
#: order); CCC 0 is {m1, r1} and CCC 1 is {m2}.
TIE_DECK = """
m1 a g1 gnd! gnd! nmos
r1 a b 1k
m2 c a gnd! gnd! nmos
.end
"""


class TestPlantedTies:
    def _annotation(self, graph):
        return Annotation(
            graph=graph,
            class_names=RF_CLASSES,
            vertex_classes=np.full(graph.n_vertices, -1, dtype=np.int64),
        )

    def test_first_seen_class_wins_a_tie(self):
        graph = _graph(TIE_DECK)
        partition = channel_connected_components(graph)
        names = [sorted(graph.elements[i].name for i in c) for c in partition.components]
        assert names == [["m1", "r1"], ["m2"]]
        a = graph.n_elements + graph.net_index["a"]
        # Net a: two edges of class 2 (m1, r1) beat one of class 1 (m2).
        classes = assert_relabel_matches(self._annotation(graph), partition, {0: 2, 1: 1})
        assert classes[a] == 2
        # One CCC per device, so each device's class can be planted.
        singletons = CCCPartition(
            components=[{0}, {1}, {2}],
            of_element={0: 0, 1: 1, 2: 2},
            of_net=partition.of_net,
        )
        annotation = self._annotation(graph)
        # m1: 2, r1: 0, m2: 0 -> class 0 has two edges on net a.
        classes = assert_relabel_matches(annotation, singletons, {0: 2, 1: 0, 2: 0})
        assert classes[a] == 0
        # m1: 2, r1: 0, m2: -1 -> one edge each; m1's class is seen first.
        classes = assert_relabel_matches(annotation, singletons, {0: 2, 1: 0})
        assert classes[a] == 2
        # m1: -1, r1: 0, m2: 2 -> one edge each; r1's class is seen first.
        classes = assert_relabel_matches(annotation, singletons, {1: 0, 2: 2})
        assert classes[a] == 0
        # Net g1 touches only m1, now unclassified: it keeps its class.
        assert classes[graph.n_elements + graph.net_index["g1"]] == -1

    def test_unclassified_elements_leave_their_nets_alone(self):
        graph = _graph(TIE_DECK)
        partition = channel_connected_components(graph)
        annotation = self._annotation(graph)
        annotation.vertex_classes[graph.n_elements:] = 1
        annotation.vertex_classes[graph.element_index["m1"]] = 0
        # CCC 0 stays unvoted: m1 keeps class 0 and r1 stays −1, so net
        # b (r1 only) keeps its class 1 and net g1 (m1 only) takes 0.
        classes = assert_relabel_matches(annotation, partition, {0: -1})
        assert classes[graph.n_elements + graph.net_index["b"]] == 1
        assert classes[graph.n_elements + graph.net_index["g1"]] == 0
        assert classes[graph.element_index["r1"]] == -1

    def test_extra_classes_reach_the_nets(self):
        graph = _graph(TIE_DECK)
        partition = channel_connected_components(graph)
        annotation = self._annotation(graph)
        annotation.extra_classes = list(EXTRA)
        bpf, inv = len(RF_CLASSES), len(RF_CLASSES) + 1
        classes = assert_relabel_matches(annotation, partition, {0: bpf, 1: inv})
        assert classes[graph.n_elements + graph.net_index["a"]] == bpf
        assert classes[graph.n_elements + graph.net_index["c"]] == inv

    def test_vote_ties_and_empty_rows(self):
        graph = _graph(TIE_DECK)
        partition = channel_connected_components(graph)
        probabilities = np.zeros((graph.n_vertices, len(RF_CLASSES)))
        probabilities[graph.element_index["m1"]] = [0.5, 0.5, 0.0]
        probabilities[graph.element_index["r1"]] = [0.25, 0.25, 0.5]
        annotation = self._annotation(graph)
        annotation.probabilities = probabilities
        assert_vote_matches(annotation, partition)
        # CCC 0 ties 0.75/0.75/0.5 -> the lowest class; CCC 1 tallies 0.
        assert _ccc_vote(_ccc_tallies(annotation, partition)) == {0: 0, 1: -1}
        annotation.probabilities = None
        assert_vote_matches(annotation, partition)


def test_empty_graphs_match_the_loops():
    for circuit in (Circuit(name="empty"), Circuit(name="p", ports=("rfin", "lo"))):
        graph = CircuitGraph.from_circuit(circuit)
        annotation, partition, ccc_classes = random_case(graph, seed=0)
        assert partition.n_components == 0
        assert _ccc_tallies(annotation, partition).shape == (0, len(RF_CLASSES))
        assert _ccc_vote(_ccc_tallies(annotation, partition)) == {}
        assert_passes_match(graph, seed=0)


@pytest.mark.property
@given(
    deck_seed=st.integers(min_value=0, max_value=100_000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_generated_decks_match_the_loops_property(deck_seed, seed):
    graph = generated_graph(deck_seed)
    if graph is not None:
        assert_passes_match(graph, seed)
