"""Channel-connected components (Postprocessing I, Sec. V-A).

The paper (footnote 1): *"A channel-connected component is a cluster of
transistors connected at the sources and drains (not counting
connections to supply and ground nodes). It can be identified using
simple linear-time graph traversal schemes."*

:func:`channel_connected_components` implements exactly that with a
union–find over transistor elements; passives and nets are then
assigned to the CCC they touch, which is what the postprocessing vote
operates on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.bipartite import DRAIN_BIT, SOURCE_BIT, CircuitGraph
from repro.spice.netlist import is_power_net


class _UnionFind:
    """Array-based union–find with path halving; effectively linear."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


@dataclass
class CCCPartition:
    """The channel-connected decomposition of a circuit graph.

    ``components`` lists element-index sets (transistors plus absorbed
    passives); ``of_element`` maps element index → component id;
    ``of_net`` maps local net index → set of component ids touching it
    (a net can border several CCCs).
    """

    components: list[set[int]]
    of_element: dict[int, int]
    of_net: dict[int, set[int]]

    @property
    def n_components(self) -> int:
        return len(self.components)

    def component_of(self, element: int) -> int | None:
        return self.of_element.get(element)


def channel_connected_components(graph: CircuitGraph) -> CCCPartition:
    """Partition elements into channel-connected components.

    Two transistors are channel-connected when a source or drain of one
    shares a non-power net with a source or drain of the other.
    Passives join the component their nets touch (ties broken toward
    the lowest component id); a passive touching no transistor CCC
    becomes its own singleton component — that is how stand-alone
    passive structures (e.g. input-buffer RC) separate out.

    One walk over the edges, in plain Python, unites channel-connected
    transistors and lists each net's elements and each passive's
    non-power nets in edge order; components, passive placement and
    the net → component map are then read off those lists.
    """
    elements = graph.elements
    power = [is_power_net(net) for net in graph.nets]
    transistor = [dev.kind.is_transistor for dev in elements]
    uf = _UnionFind(len(elements))

    # net (local index) -> elements touching it, in edge order; nets in
    # order of their first edge.
    on_net: dict[int, list[int]] = {}
    # non-power net -> first transistor whose source/drain touches it
    ds_first: dict[int, int] = {}
    # passive -> its non-power nets
    passive_nets: dict[int, list[int]] = {}
    for element, net, label in graph.edges:
        touching = on_net.get(net)
        if touching is None:
            on_net[net] = [element]
        else:
            touching.append(element)
        if power[net]:
            continue
        if not transistor[element]:
            passive_nets.setdefault(element, []).append(net)
        elif label & (SOURCE_BIT | DRAIN_BIT):
            first = ds_first.setdefault(net, element)
            if first != element:
                uf.union(first, element)

    # Transistor components, numbered in element order.
    root_to_id: dict[int, int] = {}
    components: list[set[int]] = []
    of_element: dict[int, int] = {}
    for idx, is_transistor in enumerate(transistor):
        if not is_transistor:
            continue
        root = uf.find(idx)
        if root not in root_to_id:
            root_to_id[root] = len(components)
            components.append(set())
        cid = root_to_id[root]
        components[cid].add(idx)
        of_element[idx] = cid

    # Passives: join the lowest transistor component on one of their
    # nets (all transistor terminals count here, gates included: a gate
    # net inside one CCC driven by another is exactly the boundary case
    # the paper allows to belong to multiple sub-blocks), else become
    # singletons.  Power nets never bind a passive to a component — a
    # load cap to ground must not join whichever component also touches
    # ground.
    for idx, is_transistor in enumerate(transistor):
        if is_transistor:
            continue
        cids = [
            of_element[other]
            for net in passive_nets.get(idx, ())
            for other in on_net[net]
            if transistor[other]
        ]
        if cids:
            cid = min(cids)
        else:
            cid = len(components)
            components.append(set())
        components[cid].add(idx)
        of_element[idx] = cid

    of_net = {
        net: {of_element[element] for element in touching}
        for net, touching in on_net.items()
    }
    return CCCPartition(
        components=components, of_element=of_element, of_net=of_net
    )
