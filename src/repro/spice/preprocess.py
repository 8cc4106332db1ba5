"""Recognition-oriented netlist preprocessing (Sec. II-B).

The paper's preprocessing "identifies netlist features that help
performance but do not affect functionality (and can be disregarded
during recognition), e.g., parallel transistors for sizing, series
transistors for large transistor lengths, dummies, decaps."

This module implements exactly those four reductions, *for recognition
purposes only*: the output is a new flat circuit plus a
:class:`PreprocessReport` that maps every surviving device back to the
original devices it absorbed, so annotations can be projected back onto
the unreduced netlist.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

from repro.spice.netlist import (
    Circuit,
    Device,
    DeviceKind,
    is_ground_net,
    is_power_net,
    is_supply_net,
)


@dataclass
class PreprocessReport:
    """Record of what preprocessing changed.

    ``absorbed`` maps a surviving device name to the names of all
    original devices it represents (itself included).  ``removed`` lists
    devices dropped outright (dummies, decaps) with the reason.
    """

    absorbed: dict[str, list[str]] = field(default_factory=dict)
    removed: list[tuple[str, str]] = field(default_factory=list)

    def originals_of(self, name: str) -> list[str]:
        """All original device names represented by surviving ``name``."""
        return self.absorbed.get(name, [name])

    @property
    def removed_names(self) -> set[str]:
        return {name for name, _reason in self.removed}


def _is_dummy_transistor(dev: Device) -> bool:
    """Dummy devices added for layout matching, never conducting.

    Heuristics (standard practice): drain and source on the same net, or
    the gate hard-tied to the rail that keeps the channel off (NMOS gate
    at ground, PMOS gate at supply) with drain or source also on a rail.
    """
    (_, drain), (_, gate), (_, source), _body = dev.pins
    if drain == source:
        return True
    off_rail = is_ground_net(gate) if dev.kind is DeviceKind.NMOS else is_supply_net(gate)
    if off_rail and (is_power_net(drain) or is_power_net(source)):
        return True
    return False


def _is_decap(dev: Device) -> bool:
    """A capacitor strapped directly between power rails."""
    if dev.kind is not DeviceKind.CAPACITOR:
        return False
    (_, pos), (_, neg) = dev.pins
    return is_power_net(pos) and is_power_net(neg) and pos != neg


def _merge_parallel_mos(devices: list[Device], report: PreprocessReport) -> list[Device]:
    """Collapse transistors with identical (kind, model, d, g, s, b).

    The survivor keeps the first device's name and geometry with the
    multiplier ``m`` summed, mirroring how designers express sizing.
    """
    # Keys hold the kind's value, not the kind: hashing a str is C,
    # hashing an enum member runs Enum.__hash__.  A transistor's pins
    # are always (d, g, s, b), so equal pins mean equal connections.
    groups: dict[tuple, list[Device]] = defaultdict(list)
    for dev in devices:
        if dev.kind.is_transistor:
            key = (dev.kind.value, dev.model, dev.pins)
        else:
            key = ("__unique__", dev.name)
        groups[key].append(dev)

    merged: list[Device] = []
    for members in groups.values():  # in order of first appearance
        if len(members) == 1:
            merged.append(members[0])
            continue
        # Survivor: the shortest (base) name, so derived names from
        # sizing splits never outlive their original.
        first = min(members, key=lambda d: (len(d.name), d.name))
        total_m = sum(d.param("m", 1.0) or 1.0 for d in members)
        params = tuple(
            (k, total_m if k == "m" else v) for k, v in first.params
        )
        if "m" not in {k for k, _ in params}:
            params = params + (("m", total_m),)
        merged.append(replace(first, params=params))
        # Compose absorption through earlier merge passes.
        names: list[str] = []
        for d in members:
            names.extend(report.absorbed.pop(d.name, [d.name]))
        report.absorbed[first.name] = names
    return merged


def _merge_parallel_passives(
    devices: list[Device], report: PreprocessReport
) -> list[Device]:
    """Collapse same-kind passives across the same net pair.

    Capacitors sum; resistors and inductors combine as parallel values.
    """
    groups: dict[tuple, list[Device]] = defaultdict(list)
    for dev in devices:
        if dev.kind.is_passive:
            (_, pos), (_, neg) = dev.pins
            key = (dev.kind.value, frozenset((pos, neg)))
        else:
            key = ("__unique__", dev.name)
        groups[key].append(dev)

    merged: list[Device] = []
    for members in groups.values():  # in order of first appearance
        if len(members) == 1:
            merged.append(members[0])
            continue
        first = min(members, key=lambda d: (len(d.name), d.name))
        values = [d.value for d in members if d.value]
        if first.kind is DeviceKind.CAPACITOR:
            value = sum(values) if values else first.value
        else:
            value = 1.0 / sum(1.0 / v for v in values) if values else first.value
        merged.append(replace(first, value=value))
        names = []
        for d in members:
            names.extend(report.absorbed.pop(d.name, [d.name]))
        report.absorbed[first.name] = names
    return merged


def _drain_source(dev: Device) -> tuple[str, str]:
    """A transistor's drain and source nets (its pins are d, g, s, b)."""
    (_, drain), _gate, (_, source), _body = dev.pins
    return drain, source


def _merge_series_mos(
    devices: list[Device], ports: tuple[str, ...], report: PreprocessReport
) -> list[Device]:
    """Collapse stacked transistors used to realize long channels.

    A stack is a chain of same-kind, same-gate, same-body transistors
    joined drain-to-source through internal nets touched by nothing
    else.  The survivor's ``l`` is the sum of the members' lengths.
    """
    # Per net, in one pass: how many devices touch it, and which ones
    # (by name, through ANY terminal or device kind) — a stack-internal
    # node must belong to the stack alone (a resistor hanging off the
    # junction makes it a real circuit node).
    degrees: dict[str, int] = defaultdict(int)
    touchers: dict[str, set[str]] = defaultdict(set)
    for dev in devices:
        for net in {net for _, net in dev.pins}:
            degrees[net] += 1
            touchers[net].add(dev.name)
    port_set = set(ports)

    def is_internal(net: str) -> bool:
        return (
            degrees[net] == 2 and net not in port_set and not is_power_net(net)
        )

    by_name = {d.name: d for d in devices if d.kind.is_transistor}
    # adjacency: internal net -> the two transistors whose d/s touch it
    net_to_ds: dict[str, list[str]] = defaultdict(list)
    for dev in by_name.values():
        for net in _drain_source(dev):
            if is_internal(net):
                net_to_ds[net].append(dev.name)

    # Union chains of transistors that share an internal d/s net, same
    # gate net, same kind, same body.
    parent: dict[str, str] = {name: name for name in by_name}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        parent[find(a)] = find(b)

    for net, names in net_to_ds.items():
        if len(names) != 2:
            continue
        a, b = by_name[names[0]], by_name[names[1]]
        a_drain, a_gate, a_source, a_body = a.nets
        b_drain, b_gate, b_source, b_body = b.nets
        # A stack joins the *drain* of one device to the *source* of the
        # other; two devices sharing only their sources (a differential
        # pair) or only their drains are not in series.
        series = (a_drain == net and b_source == net) or (
            a_source == net and b_drain == net
        )
        if (
            series
            and a.kind is b.kind
            and a.model == b.model
            and a_gate == b_gate
            and a_body == b_body
        ):
            union(a.name, b.name)

    clusters: dict[str, list[Device]] = defaultdict(list)
    for name, dev in by_name.items():
        clusters[find(name)].append(dev)

    merged: list[Device] = []
    consumed: set[str] = set()
    for members in clusters.values():
        if len(members) < 2:
            continue
        member_names = {d.name for d in members}
        internal = {
            net
            for d in members
            for net in _drain_source(d)
            if is_internal(net) and touchers[net] <= member_names
        }
        # Chain endpoints: the d/s nets not internal to the cluster.
        endpoints = [
            net for d in members for net in _drain_source(d) if net not in internal
        ]
        if len(endpoints) != 2:
            continue  # not a simple chain; leave untouched
        first = min(members, key=lambda d: (len(d.name), d.name))
        total_l = sum(d.param("l", 0.0) or 0.0 for d in members)
        params = tuple((k, total_l if k == "l" else v) for k, v in first.params)
        _drain, gate, _source, body = first.nets
        pins = (("d", endpoints[0]), ("g", gate), ("s", endpoints[1]), ("b", body))
        merged.append(replace(first, pins=pins, params=params))
        prior = report.absorbed.pop(first.name, [first.name])
        names: list[str] = []
        for d in sorted(member_names):
            names.extend(report.absorbed.pop(d, [d]) if d != first.name else prior)
        report.absorbed[first.name] = names
        consumed |= member_names

    out = [d for d in devices if d.name not in consumed]
    return out + merged


def preprocess(circuit: Circuit) -> tuple[Circuit, PreprocessReport]:
    """Apply all four recognition reductions to a flat circuit.

    Returns the reduced circuit and a report for projecting annotations
    back.  The input circuit is not modified.
    """
    report = PreprocessReport()
    devices = list(circuit.devices)

    kept: list[Device] = []
    for dev in devices:
        if dev.kind.is_transistor and _is_dummy_transistor(dev):
            report.removed.append((dev.name, "dummy transistor"))
        elif _is_decap(dev):
            report.removed.append((dev.name, "decoupling capacitor"))
        else:
            kept.append(dev)

    # Parallel splits and series stacks compose (a sizing-split device
    # may itself be a stack of shorter devices), so iterate the merges
    # to a fixpoint — each pass can expose new merge opportunities.
    for _round in range(8):
        before = len(kept)
        kept = _merge_parallel_mos(kept, report)
        kept = _merge_series_mos(kept, circuit.ports, report)
        kept = _merge_parallel_passives(kept, report)
        if len(kept) == before:
            break

    for dev in kept:
        report.absorbed.setdefault(dev.name, [dev.name])

    # Order stability: survivors keep the position of their earliest
    # original device, so downstream vertex numbering (and with it the
    # Graclus coarsening and GCN output) is invariant to how many merge
    # rounds ran.
    position = {dev.name: i for i, dev in enumerate(circuit.devices)}
    unknown = len(position)
    kept.sort(
        key=lambda d: min(
            [position.get(orig, unknown) for orig in report.absorbed[d.name]]
        )
    )

    reduced = Circuit(name=circuit.name, ports=circuit.ports, devices=kept)
    return reduced, report
