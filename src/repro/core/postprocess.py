"""Postprocessing I and II (Sec. V-A).

The GCN is deliberately not asked to be perfect; two classes of cheap
heuristics lift its output to 100 % on all test sets:

**Postprocessing I** (design-independent, graph-based)

* vote: every element of a channel-connected component (CCC) takes the
  component's probability-weighted majority class;
* primitive annotation inside each CCC (Sec. IV);
* stand-alone separation: a CCC fully covered by auxiliary primitives
  (inverters, buffers, switches, references) is pulled out of the
  sub-block and re-labeled with the primitive's own class — the paper's
  "input buffer for an oscillator" case;
* BPF detection: a CCC that looks like an oscillator (cross-coupled
  pair) but has input transistors driven from another block is a
  band-pass filter, "a combination of an oscillator with two input
  transistors".

**Postprocessing II** (class-specific port rules)

* the CCC touching an ``antenna``-labeled net is an LNA;
* the CCC *driving* an ``oscillating``-labeled net (drain/source
  contact) is an oscillator; CCCs *receiving* it (gate contact) are
  mixers.

Port labels "can be provided by the designer as a separate label on the
port, or can be inferred from the test bench in the input SPICE
netlist" — here they arrive as an explicit ``{net: label}`` mapping.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.annotator import Annotation
from repro.graph.bipartite import DRAIN_BIT, GATE_BIT, SOURCE_BIT, CircuitGraph
from repro.graph.ccc import CCCPartition, channel_connected_components
from repro.primitives.library import PrimitiveLibrary
from repro.primitives.matcher import (
    MatchStats,
    PrimitiveMatch,
    annotate_components,
)
from repro.spice.netlist import is_power_net

#: Primitives that may stand alone outside any sub-block (Post-I).
#: Deliberately small: auxiliary digital-ish cells only.  Structures
#: like current references are *integral* to a bias network in the
#: OTA task and must not be separated; callers with other vocabularies
#: can pass their own set to :func:`postprocess_ccc`.
STANDALONE_PRIMITIVES = frozenset({"INV", "BUF"})

#: The RF vocabulary Postprocessing II's port rules apply to.
RF_CLASSES = ("lna", "mixer", "osc")


@dataclass
class PostprocessResult:
    """Annotation after a postprocessing stage, plus what it found."""

    annotation: Annotation
    partition: CCCPartition
    ccc_classes: dict[int, int] = field(default_factory=dict)
    standalone: list[tuple[int, PrimitiveMatch]] = field(default_factory=list)
    ccc_matches: dict[int, list[PrimitiveMatch]] = field(default_factory=dict)


def _ccc_tallies(
    annotation: Annotation, partition: CCCPartition
) -> np.ndarray:
    """Per-CCC probability tallies over the GCN classes: row ``cid`` of
    an ``(n_components, n_gcn_classes)`` matrix.

    One vectorized scatter-add over all elements (``np.add.at``), not a
    Python loop per component member.
    """
    n_gcn_classes = len(annotation.class_names)
    n_components = partition.n_components
    tallies = np.zeros((n_components, n_gcn_classes))
    if partition.of_element:
        n = len(partition.of_element)
        elements = np.fromiter(
            partition.of_element.keys(), dtype=np.int64, count=n
        )
        cids = np.fromiter(
            partition.of_element.values(), dtype=np.int64, count=n
        )
        if annotation.probabilities is not None:
            np.add.at(tallies, cids, annotation.probabilities[elements])
        else:
            classes = annotation.vertex_classes[elements].astype(np.int64)
            valid = (classes >= 0) & (classes < n_gcn_classes)
            np.add.at(tallies, (cids[valid], classes[valid]), 1.0)
    return tallies


def _ccc_vote(tallies: np.ndarray) -> dict[int, int]:
    """Probability-weighted majority class per CCC (GCN classes only):
    one argmax over the tally matrix, −1 for a CCC with no tally.

    The tallies are non-negative, so whether a row sums above zero
    does not depend on the order it is summed in.
    """
    if not tallies.shape[1]:
        return {cid: -1 for cid in range(len(tallies))}
    voted = np.where(tallies.sum(axis=1) > 0, tallies.argmax(axis=1), -1)
    return dict(enumerate(voted.tolist()))


def _relabel(
    annotation: Annotation,
    partition: CCCPartition,
    ccc_classes: dict[int, int],
) -> None:
    """Write CCC classes back onto element and net vertices.

    Each element takes its CCC's class.  A net takes the class of its
    adjacent CCCs when they agree; when they disagree the net is on a
    block boundary and keeps the class of the CCC it touches most
    (the paper lets such vertices belong to multiple blocks); between
    classes with equally many edges on the net, the class whose first
    edge comes first in edge order wins.  A net touched only by
    unclassified elements keeps its class.

    Two array passes over the graph's cached edge arrays: the elements
    take their CCCs' classes in one gather, and the nets' (net, class)
    edge counts come from one ``np.bincount``, first-seen edge
    positions from one ``np.minimum.at``.
    """
    graph = annotation.graph
    classes = annotation.vertex_classes
    n_elements = graph.n_elements
    # Class per CCC; an element in no CCC (owner −1) reads the trailing −1.
    ccc_class = np.array(
        [ccc_classes.get(cid, -1) for cid in range(partition.n_components)]
        + [-1],
        dtype=np.int64,
    )
    element_class = ccc_class[_element_owners(graph, partition)]
    assigned = element_class >= 0
    classes[:n_elements][assigned] = element_class[assigned]

    # Net vertices: tally adjacent element classes, weighted by edges.
    element, net, _label = graph.edge_arrays()
    edge_class = classes[element].astype(np.int64)
    valid = edge_class >= 0
    if not valid.any():
        return
    net, edge_class = net[valid], edge_class[valid]
    n_edges = len(net)
    n_classes = int(edge_class.max()) + 1
    pair = net * n_classes + edge_class
    size = graph.n_nets * n_classes
    counts = np.bincount(pair, minlength=size)
    first = np.full(size, n_edges, dtype=np.int64)
    np.minimum.at(first, pair, np.arange(n_edges))
    # Most edges first, then the earliest first edge; an absent pair
    # scores 0, below every present one.
    score = (counts * (n_edges + 1) + (n_edges - first)).reshape(-1, n_classes)
    touched = np.flatnonzero(counts.reshape(-1, n_classes).any(axis=1))
    classes[n_elements + touched] = score[touched].argmax(axis=1)


def _element_owners(
    graph: CircuitGraph, partition: CCCPartition
) -> np.ndarray:
    """Element index → component id array (−1 when unassigned)."""
    owners = np.full(graph.n_elements, -1, dtype=np.int64)
    of_element = partition.of_element
    if of_element:
        n = len(of_element)
        owners[np.fromiter(of_element.keys(), dtype=np.int64, count=n)] = (
            np.fromiter(of_element.values(), dtype=np.int64, count=n)
        )
    return owners


def _power_net_mask(graph: CircuitGraph) -> np.ndarray:
    """Boolean mask over local net indices: is this a power net?"""
    return np.fromiter(
        (is_power_net(net) for net in graph.nets),
        dtype=bool,
        count=graph.n_nets,
    )


def _ds_drivers(
    graph: CircuitGraph, partition: CCCPartition
) -> dict[int, set[int]]:
    """Net (local index) → CCCs touching it via a drain/source edge.

    Computed at most once per circuit, at the first CCC holding a
    cross-coupled pair, and shared by every later
    :func:`_ccc_boundary_inputs` call.
    """
    element, net, label = graph.edge_arrays()
    owners = _element_owners(graph, partition)
    drivers: dict[int, set[int]] = defaultdict(set)
    mask = (label & (DRAIN_BIT | SOURCE_BIT)).astype(bool) & (
        owners[element] >= 0
    )
    for n, owner in zip(net[mask], owners[element[mask]]):
        drivers[int(n)].add(int(owner))
    return dict(drivers)


def _ccc_boundary_inputs(
    graph: CircuitGraph,
    partition: CCCPartition,
    cid: int,
    drivers: dict[int, set[int]] | None = None,
) -> list[int]:
    """Transistors of CCC ``cid`` whose gate net is driven from outside.

    "Driven from outside" = the gate net touches another CCC through a
    drain/source edge and is not a power net.  These are the "input
    transistors" of the BPF rule.  Pass a precomputed ``drivers`` map
    (:func:`_ds_drivers`) when calling for more than one component.
    """
    inputs: list[int] = []
    members = partition.components[cid]
    if drivers is None:
        drivers = _ds_drivers(graph, partition)
    by_element = graph.element_edge_lists()
    member_edges = (edge for m in members for edge in by_element[m])
    for edge in member_edges:
        if not (edge.label & GATE_BIT):
            continue
        net_name = graph.nets[edge.net]
        if is_power_net(net_name):
            continue
        outside = drivers.get(edge.net, set()) - {cid}
        if not outside:
            continue
        # A true *input* transistor injects from a rail into the tank
        # (common-source).  A device whose drain AND source both sit on
        # internal circuit nets is an injection/coupling device of an
        # injection-locked oscillator, not a filter input.
        dev = graph.elements[edge.element]
        pins = dev.pin_map
        if is_power_net(pins["s"]) or is_power_net(pins["d"]):
            inputs.append(edge.element)
    return sorted(set(inputs))


def _mirror_clusters(
    graph: CircuitGraph, partition: CCCPartition
) -> list[set[int]]:
    """Group CCCs that form one current-mirror tree.

    The paper motivates flattening with exactly this structure: bias
    mirrors "split current mirror functionality across blocks".  A
    component whose *every* externally-driven transistor gate is tied
    to the gate/drain net of a diode-connected transistor of a single
    other component is a mirror branch of that component; branch and
    owner belong to one functional unit and should be voted jointly.
    """
    # Edge predicates as numpy masks over the cached edge arrays; only
    # matching edges fall back to Python (dict/set insertion).
    element, net, label = graph.edge_arrays()
    owners = _element_owners(graph, partition)
    edge_owner = owners[element]
    is_gate = (label & GATE_BIT).astype(bool)
    is_drain = (label & DRAIN_BIT).astype(bool)

    # Diode-connected transistors: a single edge carrying both the gate
    # and drain bits.  Map their net to the owning CCC (edge order, so
    # the last diode edge on a net wins — same as the scalar loop).
    diode_net_owner: dict[int, int] = {}
    diode_mask = is_gate & is_drain & (edge_owner >= 0)
    for n, owner in zip(net[diode_mask], edge_owner[diode_mask]):
        diode_net_owner[int(n)] = int(owner)

    # Per-CCC: gate nets of transistors that are not self-diode.
    external_gates: dict[int, set[int]] = defaultdict(set)
    gate_mask = (
        is_gate
        & ~is_drain
        & (edge_owner >= 0)
        & ~_power_net_mask(graph)[net]
    )
    for n, owner in zip(net[gate_mask], edge_owner[gate_mask]):
        external_gates[int(owner)].add(int(n))

    parent = list(range(partition.n_components))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cid in range(partition.n_components):
        gates = external_gates.get(cid, set())
        if not gates:
            continue
        owners = {diode_net_owner.get(net) for net in gates}
        if None in owners:
            continue  # some gate is not mirror-driven
        owners.discard(cid)
        if len(owners) != 1:
            continue
        (owner,) = owners
        parent[find(cid)] = find(owner)

    clusters: dict[int, set[int]] = defaultdict(set)
    for cid in range(partition.n_components):
        clusters[find(cid)].add(cid)
    return [members for members in clusters.values() if len(members) > 1]


def _joint_mirror_vote(
    graph: CircuitGraph,
    partition: CCCPartition,
    ccc_classes: dict[int, int],
    tallies: dict[int, np.ndarray],
    protected: set[int],
) -> None:
    """Re-vote mirror-linked CCC clusters jointly.

    Summing the member tallies makes the vote robust both ways: a
    misclassified two-device reference is outvoted by its correctly
    classified branches, and a misclassified branch is outvoted by the
    rest of its tree.  ``protected`` CCCs (stand-alone primitives,
    detected BPFs) keep their classes.
    """
    for cluster in _mirror_clusters(graph, partition):
        votable = [cid for cid in cluster if cid not in protected]
        if len(votable) < 2:
            continue
        total = sum(tallies[cid] for cid in votable)
        if total.sum() <= 0:
            continue
        winner = int(total.argmax())
        for cid in votable:
            ccc_classes[cid] = winner


def _absorb_orphans(
    graph: CircuitGraph,
    partition: CCCPartition,
    ccc_classes: dict[int, int],
    protected: set[int],
    max_size: int = 2,
) -> None:
    """Fold tiny single-neighbor CCCs into their host sub-block.

    An input buffer (a lone source follower between a primary input and
    a differential pair) is channel-connected to nothing, so it forms
    its own one-device component; the paper's Post-I treats such
    auxiliary primitives as part of the unit they serve.  A component
    of ≤ ``max_size`` elements whose non-power nets reach exactly one
    other component inherits that component's class.

    Components containing a diode-connected transistor are exempt: they
    are mirror roots (e.g. a bias current reference whose only fanout
    is the tail gate of one OTA) and stay their own functional unit.
    """
    element, _net, label = graph.edge_arrays()
    owners = _element_owners(graph, partition)
    diode_mask = (
        (label & GATE_BIT).astype(bool)
        & (label & DRAIN_BIT).astype(bool)
        & (owners[element] >= 0)
    )
    diode_owners = {int(o) for o in owners[element[diode_mask]]}

    by_element = graph.element_edge_lists()
    for cid, members in enumerate(partition.components):
        if cid in protected or len(members) > max_size or cid in diode_owners:
            continue
        neighbors: set[int] = set()
        for edge in (e for m in members for e in by_element[m]):
            if is_power_net(graph.nets[edge.net]):
                continue
            neighbors |= partition.of_net.get(edge.net, set())
        neighbors.discard(cid)
        neighbors -= protected
        if len(neighbors) != 1:
            continue
        (host,) = neighbors
        if len(partition.components[host]) <= len(members):
            continue  # only absorb into a larger host
        target = ccc_classes.get(host, -1)
        if target >= 0:
            ccc_classes[cid] = target


def postprocess_ccc(
    annotation: Annotation,
    library: PrimitiveLibrary,
    partition: CCCPartition | None = None,
    detect_bpf: bool = True,
    mirror_vote: bool = True,
    absorb_orphans: bool = True,
    stats: MatchStats | None = None,
    indexed: bool = True,
) -> PostprocessResult:
    """Postprocessing I: CCC vote, primitive annotation, stand-alone
    separation, BPF detection.  Returns a new annotation.

    The auxiliary INV/BUF cells (:data:`STANDALONE_PRIMITIVES`) are
    separated as stand-alone units only when the annotation uses the RF
    vocabulary.
    ``mirror_vote`` and ``absorb_orphans`` toggle the two vote-repair
    heuristics (exposed for the ablation benchmark).  ``stats``
    receives the per-template matching statistics; ``indexed=False``
    selects the naive reference matcher (see
    :mod:`repro.primitives.matcher`) — the annotation is identical
    either way.  A CCC whose shape ``library`` has searched before, in
    this deck or an earlier one, is answered from the library's shape
    table; each CCC still checks port predicates on its own nets and
    claims its own matches, so the annotation does not depend on what
    the table holds, and a run with an artifact cache matches like a
    run without one.

    Every CCC is voted by one argmax over the tally matrix (the mirror
    vote reuses the same tallies), and each rule scan runs only where
    its rule can fire: a CCC's device-name set is built only when the
    CCC holds a stand-alone primitive, and the BPF rule's drain/source
    drivers and boundary inputs are computed only for a CCC holding a
    CC-N/CC-P match.
    """
    annotation = annotation.copy()
    graph = annotation.graph
    partition = partition or channel_connected_components(graph)
    tallies = _ccc_tallies(annotation, partition)
    ccc_classes = _ccc_vote(tallies)
    rf_vocab = all(c in annotation.class_names for c in RF_CLASSES)
    standalone_primitives = STANDALONE_PRIMITIVES if rf_vocab else frozenset()

    result = PostprocessResult(
        annotation=annotation, partition=partition, ccc_classes=ccc_classes
    )

    component_matches = annotate_components(
        graph,
        partition,
        library,
        stats=stats,
        indexed=indexed,
    )
    detect_bpf = detect_bpf and rf_vocab
    ds_drivers = None  # built at the first CCC holding a cross-coupled pair

    for cid, members in enumerate(partition.components):
        matches = component_matches[cid].matches
        result.ccc_matches[cid] = matches

        standalone_here = [
            m for m in matches if m.primitive in standalone_primitives
        ]
        if standalone_here and {
            n for m in standalone_here for n in m.elements
        } == {graph.elements[i].name for i in members}:
            # The whole CCC is auxiliary circuitry: re-label it by its
            # dominant primitive and list it separately in the tree.
            dominant = max(standalone_here, key=lambda m: len(m.elements))
            cls_id = annotation.class_id(dominant.primitive.lower(), create=True)
            ccc_classes[cid] = cls_id
            for match in standalone_here:
                result.standalone.append((cid, match))
            continue

        if detect_bpf and any(m.primitive in ("CC-N", "CC-P") for m in matches):
            # Purely structural, independent of the GCN vote: "the BPF
            # is identified as a combination of an oscillator with two
            # input transistors".  A cross-coupled pair plus input
            # transistors injecting from a rail is a Q-enhanced filter;
            # injection-locked oscillators (whose injection device sits
            # *across* the tank) are excluded by the rail condition.
            if ds_drivers is None:
                ds_drivers = _ds_drivers(graph, partition)
            if _ccc_boundary_inputs(graph, partition, cid, drivers=ds_drivers):
                ccc_classes[cid] = annotation.class_id("bpf", create=True)

    protected = {cid for cid, _match in result.standalone}
    protected |= {
        cid
        for cid, cls in ccc_classes.items()
        if cls >= len(annotation.class_names)  # extra classes (bpf, …)
    }
    if mirror_vote:
        _joint_mirror_vote(graph, partition, ccc_classes, tallies, protected)
    if absorb_orphans:
        _absorb_orphans(graph, partition, ccc_classes, protected)
    result.ccc_classes = ccc_classes
    _relabel(annotation, partition, ccc_classes)
    return result


def _net_runs(
    graph: CircuitGraph, partition: CCCPartition
) -> tuple[list[int], list[int], list[int]]:
    """The graph's edges sorted by net, in edge order within each net,
    read from the cached edge arrays: ``bounds`` (net ``j``'s edges are
    positions ``bounds[j]:bounds[j + 1]``), and each edge's owning CCC
    (−1 for none) and label."""
    element, net, label = graph.edge_arrays()
    by_net = np.argsort(net, kind="stable")
    bounds = np.zeros(graph.n_nets + 1, dtype=np.int64)
    np.cumsum(np.bincount(net, minlength=graph.n_nets), out=bounds[1:])
    owners = _element_owners(graph, partition)[element[by_net]]
    return bounds.tolist(), owners.tolist(), label[by_net].tolist()


def apply_port_rules(
    result: PostprocessResult,
    port_labels: dict[str, str],
) -> PostprocessResult:
    """Postprocessing II: antenna/oscillating port rules.

    Only CCCs currently holding a GCN-vocabulary RF class are
    re-labeled; stand-alone primitives and BPFs found in Post-I keep
    their classes.  A rule reads the CCCs on its net from the graph's
    cached edge arrays, sorted by net once per call, and only when some
    port label names a net of the graph.  When no rule changes a CCC's
    class the relabel is skipped: Post-I's annotation already carries
    these classes, and relabeling with them changes nothing.
    """
    annotation = result.annotation.copy()
    partition = result.partition
    graph = annotation.graph
    ccc_classes = dict(result.ccc_classes)

    rf_ids = {
        name: annotation.class_names.index(name)
        for name in RF_CLASSES
        if name in annotation.class_names
    }
    if not rf_ids:
        return PostprocessResult(
            annotation=annotation,
            partition=partition,
            ccc_classes=ccc_classes,
            standalone=list(result.standalone),
            ccc_matches=dict(result.ccc_matches),
        )
    mutable = set(rf_ids.values())
    rules = [
        (graph.net_index[net], label)
        for net, label in port_labels.items()
        if net in graph.net_index and label in ("antenna", "oscillating")
    ]
    if rules:
        bounds, owners, labels = _net_runs(graph, partition)

    def touching(net_local: int, bits: int) -> set[int]:
        lo, hi = bounds[net_local], bounds[net_local + 1]
        return {
            owner
            for owner, label in zip(owners[lo:hi], labels[lo:hi])
            if owner >= 0 and (not bits or label & bits)
        }

    for net_local, rule in rules:
        if rule == "antenna":
            for cid in touching(net_local, bits=0):
                if ccc_classes.get(cid) in mutable:
                    ccc_classes[cid] = rf_ids.get("lna", ccc_classes[cid])
        else:
            drive = touching(net_local, bits=DRAIN_BIT | SOURCE_BIT)
            receive = touching(net_local, bits=GATE_BIT) - drive
            for cid in drive:
                if ccc_classes.get(cid) in mutable:
                    ccc_classes[cid] = rf_ids.get("osc", ccc_classes[cid])
            for cid in receive:
                if ccc_classes.get(cid) in mutable:
                    ccc_classes[cid] = rf_ids.get("mixer", ccc_classes[cid])

    if ccc_classes != result.ccc_classes:
        # Post-I's relabel of unchanged classes would change nothing.
        _relabel(annotation, partition, ccc_classes)
    return PostprocessResult(
        annotation=annotation,
        partition=partition,
        ccc_classes=ccc_classes,
        standalone=list(result.standalone),
        ccc_matches=dict(result.ccc_matches),
    )
