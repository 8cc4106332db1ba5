"""Netlist hierarchy flattening (Sec. II-B, "Netlist flattening").

GANA bypasses designer-specified hierarchies: different design houses
split, say, bias networks and signal paths into different subcircuits,
which would break current-mirror recognition across the boundary.
:func:`flatten` expands every ``X`` instance recursively into the top
level, producing one flat :class:`~repro.spice.netlist.Circuit`.

Naming: a device ``m1`` inside instance ``xota`` becomes ``xota/m1``;
an internal net ``n1`` becomes ``xota/n1``.  Ports are connected to the
caller's nets; global nets (``.global`` plus supply/ground by
convention) keep their names at every depth.

Hierarchy-preserving mode: :func:`flatten_hierarchical` produces the
same flat circuit *plus* a :class:`DesignTree` — one
:class:`SubcktDef` per subcircuit definition (with a canonical,
parameter-resolved, port-ordered content fingerprint, hashed once per
definition via :func:`definition_fingerprints`) and one
:class:`InstanceRecord` per elaborated instance (path → definition,
accumulated multiplier, resolved port bindings), recorded in the same
single elaboration pass.  ``run(hier=True)`` reports on the tree, and
``hier_tree`` nests recognized blocks under the instances it lists.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.exceptions import ElaborationError
from repro.spice.netlist import Circuit, Device, DeviceKind, Netlist, is_power_net

#: Separator between instance path components in flattened names.
SEP = "/"

#: Safety bound on hierarchy depth; analog decks are shallow, so hitting
#: this means recursive instantiation.
MAX_DEPTH = 64


@dataclass(frozen=True)
class SubcktDef:
    """One subcircuit definition plus its canonical content fingerprint.

    The fingerprint is Merkle-style: it covers the definition's port
    list (in order), every device card (kind, pins, value, model,
    resolved parameters), and every child instance as ``(name,
    child-fingerprint, nets, params)`` — so it changes iff the
    definition's elaborated content can change, and editing one subckt
    invalidates exactly the definitions that (transitively) contain it.
    """

    name: str
    fingerprint: str
    ports: tuple[str, ...]
    n_devices: int
    n_subinstances: int


@dataclass(frozen=True)
class InstanceRecord:
    """One elaborated subcircuit instance in the flat namespace.

    ``path`` is the flattened instance prefix without the trailing
    separator (``"xrx0/xlna"``); ``parent`` is the enclosing instance
    path (``""`` for top-level instances).  ``multiplier`` is the
    *accumulated* multiplier from the top (every enclosing ``m=``
    folded in), and ``bindings`` maps each definition port to the net
    it resolves to in the flat namespace.
    """

    path: str
    parent: str
    definition: str
    fingerprint: str
    multiplier: float
    bindings: tuple[tuple[str, str], ...]


@dataclass
class DesignTree:
    """Hierarchy sidecar emitted by :func:`flatten_hierarchical`.

    ``definitions`` is keyed by lower-cased subckt name; ``instances``
    lists every elaborated instance in elaboration order.
    """

    top: str
    globals_: tuple[str, ...] = ()
    definitions: dict[str, SubcktDef] = field(default_factory=dict)
    instances: tuple[InstanceRecord, ...] = ()

    def n_unique(self) -> int:
        """Number of unique (definition, multiplier) equivalence groups."""
        return len({(r.fingerprint, r.multiplier) for r in self.instances})


def definition_fingerprints(netlist: Netlist) -> dict[str, str]:
    """Canonical content fingerprint per subckt definition.

    Each ``.subckt`` body is hashed exactly once per call — the
    name-keyed memo inside covers repeated instantiation.  Keys are
    lower-cased definition names.
    """
    memo: dict[str, str] = {}

    def fp_of(name: str, stack: tuple[str, ...]) -> str:
        key = name.lower()
        done = memo.get(key)
        if done is not None:
            return done
        if key in stack:
            # Recursive instantiation: flatten() rejects it anyway, so
            # any stable marker is fine; do not memoize the marker.
            return hashlib.sha256(f"recursive:{key}".encode()).hexdigest()
        circuit = netlist.subckts.get(key)
        if circuit is None:
            digest = hashlib.sha256(f"undefined:{key}".encode()).hexdigest()
            memo[key] = digest
            return digest
        parts = ["ports:" + ",".join(circuit.ports)]
        for dev in circuit.devices:
            parts.append(
                repr((dev.name, dev.kind.value, dev.pins, dev.value, dev.model, dev.params))
            )
        for inst in circuit.instances:
            child_fp = fp_of(inst.subckt, stack + (key,))
            parts.append(repr(("x", inst.name, child_fp, inst.nets, inst.params)))
        digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
        memo[key] = digest
        return digest

    for name in netlist.subckts:
        fp_of(name, ())
    return memo


def _flatten_into(
    netlist: Netlist,
    circuit: Circuit,
    prefix: str,
    net_map: dict[str, str],
    out: Circuit,
    depth: int,
    stack: tuple[str, ...],
    multiplier: float = 1.0,
    diagnostics: list | None = None,
    records: list[InstanceRecord] | None = None,
    def_fps: dict[str, str] | None = None,
) -> None:
    if depth > MAX_DEPTH:
        raise ElaborationError(
            f"hierarchy deeper than {MAX_DEPTH}; instantiation cycle via {stack}"
        )

    def resolve(net: str) -> str:
        if net in net_map:
            return net_map[net]
        if net in netlist.globals_ or is_power_net(net):
            return net
        return f"{prefix}{net}" if prefix else net

    if prefix:
        # Resolve each net of the body once for this instance.
        body_nets = {net for dev in circuit.devices for _, net in dev.pins}
        resolved = {net: resolve(net) for net in body_nets}
        out.devices.extend(
            _elaborated(dev, prefix, resolved, multiplier) for dev in circuit.devices
        )
    else:
        # The top level: every net resolves to itself and no name
        # changes, so the parsed (frozen) devices go in as they are.
        out.devices.extend(circuit.devices)

    for inst in circuit.instances:
        try:
            if inst.subckt in stack:
                raise ElaborationError(
                    f"recursive instantiation of {inst.subckt!r} via {stack}"
                )
            child = netlist.subckt(inst.subckt)
            if len(child.ports) != len(inst.nets):
                raise ElaborationError(
                    f"instance {prefix}{inst.name}: {inst.subckt!r} has "
                    f"{len(child.ports)} ports but {len(inst.nets)} nets given"
                )
        except ElaborationError as exc:
            if diagnostics is None:
                raise
            from repro.runtime.resilience import ERROR, Diagnostic

            diagnostics.append(
                Diagnostic(
                    severity=ERROR,
                    message=str(exc),
                    card=f"{prefix}{inst.name}",
                    hint="instance skipped during lenient elaboration",
                )
            )
            continue
        child_map = {
            port: resolve(net) for port, net in zip(child.ports, inst.nets)
        }
        inst_mult = dict(inst.params).get("m", 1.0)
        if records is not None:
            records.append(
                InstanceRecord(
                    path=f"{prefix}{inst.name}",
                    parent=prefix[: -len(SEP)] if prefix else "",
                    definition=inst.subckt.lower(),
                    fingerprint=(def_fps or {}).get(inst.subckt.lower(), ""),
                    multiplier=multiplier * inst_mult,
                    bindings=tuple(
                        (port, child_map[port]) for port in child.ports
                    ),
                )
            )
        _flatten_into(
            netlist,
            child,
            prefix=f"{prefix}{inst.name}{SEP}",
            net_map=child_map,
            out=out,
            depth=depth + 1,
            stack=stack + (inst.subckt,),
            multiplier=multiplier * inst_mult,
            diagnostics=diagnostics,
            records=records,
            def_fps=def_fps,
        )


def _elaborated(
    dev: Device, prefix: str, nets: dict[str, str], multiplier: float
) -> Device:
    """``dev`` inside an instance: prefixed name, nets mapped through
    ``nets``, scaled by the instance multiplier (``x1 ... cell m=2``).

    MOS devices multiply their ``m`` parameter; capacitors and sources
    scale their value up; resistors and inductors scale down (parallel
    combination) — the standard SPICE semantics of subcircuit
    multipliers.
    """
    value, params = dev.value, dev.params
    if multiplier != 1.0 and dev.kind.is_transistor:
        base = dev.param("m", 1.0) or 1.0
        params = tuple(
            (k, base * multiplier if k == "m" else v) for k, v in params
        )
        if "m" not in {k for k, _ in params}:
            params = params + (("m", base * multiplier),)
    elif multiplier != 1.0 and value is not None:
        if dev.kind is DeviceKind.CAPACITOR or dev.kind.is_source:
            value *= multiplier
        elif dev.kind.is_passive:  # resistor or inductor
            value /= multiplier
    return Device(
        name=f"{prefix}{dev.name}",
        kind=dev.kind,
        pins=tuple([(terminal, nets[net]) for terminal, net in dev.pins]),
        value=value,
        model=dev.model,
        params=params,
    )


def flatten(netlist: Netlist, diagnostics: list | None = None) -> Circuit:
    """Expand all subcircuit instances into one flat circuit.

    The result has the same ports as the input top level and contains
    only leaf :class:`~repro.spice.netlist.Device` cards.  Top-level
    devices are the netlist's own (frozen) objects; only devices inside
    instances are built anew.

    With ``diagnostics`` given (a list of
    :class:`~repro.runtime.resilience.Diagnostic` records), elaboration
    errors on an instance — undefined subcircuit, port-arity mismatch,
    recursive instantiation — are recorded there and the instance is
    *skipped* instead of aborting the whole deck (lenient mode).  A
    hierarchy deeper than :data:`MAX_DEPTH` still raises in both modes:
    it means runaway recursion, and there is no partial answer worth
    keeping.
    """
    out = Circuit(name=netlist.top.name, ports=netlist.top.ports)
    _flatten_into(
        netlist,
        netlist.top,
        prefix="",
        net_map={p: p for p in netlist.top.ports},
        out=out,
        depth=0,
        stack=(),
        diagnostics=diagnostics,
    )
    return out


def flatten_hierarchical(
    netlist: Netlist, diagnostics: list | None = None
) -> tuple[Circuit, DesignTree]:
    """Flatten while preserving the design hierarchy as a sidecar.

    Returns the *same* flat :class:`Circuit` that :func:`flatten` would
    produce (device-for-device, name-for-name) plus a
    :class:`DesignTree`: fingerprinted subckt definitions and the full
    instance table, recorded during the one elaboration pass.
    Lenient-mode skipped instances are absent from the instance table,
    matching their absence from the flat circuit.
    """
    def_fps = definition_fingerprints(netlist)
    out = Circuit(name=netlist.top.name, ports=netlist.top.ports)
    records: list[InstanceRecord] = []
    _flatten_into(
        netlist,
        netlist.top,
        prefix="",
        net_map={p: p for p in netlist.top.ports},
        out=out,
        depth=0,
        stack=(),
        diagnostics=diagnostics,
        records=records,
        def_fps=def_fps,
    )
    definitions = {
        key: SubcktDef(
            name=circuit.name,
            fingerprint=def_fps.get(key, ""),
            ports=circuit.ports,
            n_devices=len(circuit.devices),
            n_subinstances=len(circuit.instances),
        )
        for key, circuit in netlist.subckts.items()
    }
    return out, DesignTree(
        top=netlist.top.name,
        globals_=netlist.globals_,
        definitions=definitions,
        instances=tuple(records),
    )


def instance_path(flat_name: str) -> tuple[str, ...]:
    """Split a flattened device/net name back into its hierarchy path.

    >>> instance_path("xfilter/xota/m1")
    ('xfilter', 'xota', 'm1')
    """
    return tuple(flat_name.split(SEP))
