"""In-memory netlist data model.

A parsed SPICE deck becomes a :class:`Netlist`: a dictionary of
:class:`Subckt` definitions plus a distinguished top-level circuit.
Circuits contain :class:`Device` cards (transistors, passives, sources)
and :class:`Instance` cards (``X`` subcircuit calls).  Everything is a
plain, hashable-friendly dataclass so netlists can be compared, copied
and round-tripped through the writer.

Net-name conventions used throughout the package:

* supply nets match :data:`SUPPLY_NET_RE` (``vdd``, ``vdd!``, ``vcc`` …)
* ground nets match :data:`GROUND_NET_RE` (``gnd``, ``gnd!``, ``vss``, ``0``)
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.exceptions import ElaborationError

SUPPLY_NET_RE = re.compile(r"^(vdd|vcc|avdd|dvdd|vddd|vdda)[!]?\d*$", re.IGNORECASE)
GROUND_NET_RE = re.compile(r"^(0|gnd|vss|agnd|dgnd|avss|gnd!|vss!|agnd!)[!]?\d*$", re.IGNORECASE)


def rail_conventions() -> tuple:
    """The rail regexes' patterns and flags, as plain data.

    Which nets count as supply or ground changes flattening,
    preprocessing, features and port predicates, and callers may
    replace :data:`SUPPLY_NET_RE` / :data:`GROUND_NET_RE` between runs.
    Every key that outlives a run (the artifact-cache key root and the
    warm-pool key) includes this value.
    """
    return (
        (SUPPLY_NET_RE.pattern, SUPPLY_NET_RE.flags),
        (GROUND_NET_RE.pattern, GROUND_NET_RE.flags),
    )


def is_supply_net(net: str) -> bool:
    """True for power-supply nets (``vdd`` and friends)."""
    return bool(SUPPLY_NET_RE.match(net))


def is_ground_net(net: str) -> bool:
    """True for ground nets (``gnd``, ``vss``, node ``0`` …)."""
    return bool(GROUND_NET_RE.match(net))


_POWER_NET_MEMO: dict[str, bool] = {}
_POWER_NET_MEMO_MAX = 4096


def is_power_net(net: str) -> bool:
    """True for either supply or ground nets.

    Pure function of the name *under fixed rail conventions*; memoized
    because the graph and postprocessing layers ask about the same
    handful of rail names thousands of times per circuit.  The memo is
    an explicit module dict rather than ``lru_cache`` so each pipeline
    run can clear it (:func:`reset_power_net_memo`): two decks
    annotated back to back under different conventions (customized
    ``SUPPLY_NET_RE`` / ``GROUND_NET_RE``) must not poison each other
    through a process-wide cache.
    """
    cached = _POWER_NET_MEMO.get(net)
    if cached is None:
        if len(_POWER_NET_MEMO) >= _POWER_NET_MEMO_MAX:
            _POWER_NET_MEMO.clear()
        cached = _POWER_NET_MEMO[net] = is_supply_net(net) or is_ground_net(net)
    return cached


def reset_power_net_memo() -> None:
    """Drop every memoized :func:`is_power_net` answer.

    Called at the start of each pipeline run so rail-role answers never
    leak across decks that use the same net name differently.
    """
    _POWER_NET_MEMO.clear()


class DeviceKind(enum.Enum):
    """Element categories at the lowest hierarchy level (Sec. II-A).

    Each member carries ``is_transistor``, ``is_passive``,
    ``is_source`` and ``terminals`` (its row of :data:`TERMINALS`) as
    plain attributes, set once below: every layer asks them per device,
    and a property testing tuple membership paid for ``Enum.__eq__`` on
    each call, as a dict lookup pays for ``Enum.__hash__``.
    """

    NMOS = "nmos"
    PMOS = "pmos"
    RESISTOR = "resistor"
    CAPACITOR = "capacitor"
    INDUCTOR = "inductor"
    VSOURCE = "vsource"
    ISOURCE = "isource"
    DIODE = "diode"


for _kind in DeviceKind:
    _kind.is_transistor = _kind in (DeviceKind.NMOS, DeviceKind.PMOS)
    _kind.is_passive = _kind in (
        DeviceKind.RESISTOR, DeviceKind.CAPACITOR, DeviceKind.INDUCTOR
    )
    _kind.is_source = _kind in (DeviceKind.VSOURCE, DeviceKind.ISOURCE)
del _kind


#: Terminal names per device kind, in pin order.
TERMINALS: dict[DeviceKind, tuple[str, ...]] = {
    DeviceKind.NMOS: ("d", "g", "s", "b"),
    DeviceKind.PMOS: ("d", "g", "s", "b"),
    DeviceKind.RESISTOR: ("p", "n"),
    DeviceKind.CAPACITOR: ("p", "n"),
    DeviceKind.INDUCTOR: ("p", "n"),
    DeviceKind.VSOURCE: ("p", "n"),
    DeviceKind.ISOURCE: ("p", "n"),
    DeviceKind.DIODE: ("p", "n"),
}
for _kind, _terminals in TERMINALS.items():
    _kind.terminals = _terminals
del _kind, _terminals


@dataclass(frozen=True)
class Device:
    """A leaf element card.

    ``pins`` maps terminal name (``d``/``g``/``s``/``b`` for MOS,
    ``p``/``n`` for two-terminal elements) to net name.  ``value`` is the
    primary value (ohms, farads, henries, volts/amps) when present;
    MOS geometry lives in ``params`` (``w``, ``l``, ``m`` …).
    """

    name: str
    kind: DeviceKind
    pins: tuple[tuple[str, str], ...]
    value: float | None = None
    model: str | None = None
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        expected = self.kind.terminals
        got = tuple([t for t, _ in self.pins])
        if got != expected:
            raise ValueError(
                f"device {self.name}: expected terminals {expected}, got {got}"
            )

    @property
    def pin_map(self) -> dict[str, str]:
        """Terminal-name → net-name mapping."""
        return dict(self.pins)

    @property
    def nets(self) -> tuple[str, ...]:
        """Connected nets in terminal order (may contain duplicates)."""
        return tuple([n for _, n in self.pins])

    def param(self, key: str, default: float | None = None) -> float | None:
        """Look up a device parameter by (case-insensitive) name."""
        key = key.lower()
        for k, v in self.params:
            if k == key:
                return v
        return default

    def renamed(self, name: str, net_map: dict[str, str]) -> "Device":
        """Copy with a new name and nets remapped through ``net_map``."""
        new_pins = tuple((t, net_map.get(n, n)) for t, n in self.pins)
        return replace(self, name=name, pins=new_pins)


@dataclass(frozen=True)
class Instance:
    """An ``X`` card: a call to a subcircuit definition."""

    name: str
    subckt: str
    nets: tuple[str, ...]
    params: tuple[tuple[str, float], ...] = ()

    def renamed(self, name: str, net_map: dict[str, str]) -> "Instance":
        return replace(
            self, name=name, nets=tuple(net_map.get(n, n) for n in self.nets)
        )


@dataclass
class Circuit:
    """A flat list of devices and subcircuit instances plus port list.

    Used both for subcircuit bodies and the top-level circuit.
    """

    name: str
    ports: tuple[str, ...] = ()
    devices: list[Device] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)

    def add(self, card: Device | Instance) -> None:
        """Append a device or instance card."""
        if isinstance(card, Device):
            self.devices.append(card)
        else:
            self.instances.append(card)

    @property
    def nets(self) -> tuple[str, ...]:
        """All net names referenced in this circuit, in first-seen order."""
        seen: dict[str, None] = {}
        for port in self.ports:
            seen.setdefault(port, None)
        for dev in self.devices:
            for net in dev.nets:
                seen.setdefault(net, None)
        for inst in self.instances:
            for net in inst.nets:
                seen.setdefault(net, None)
        return tuple(seen)

    def device(self, name: str) -> Device:
        """Look up a device by name; raises KeyError if absent."""
        for dev in self.devices:
            if dev.name == name:
                return dev
        raise KeyError(name)

    def count(self, kind: DeviceKind) -> int:
        """Number of devices of the given kind."""
        return sum(1 for d in self.devices if d.kind is kind)

    def transistors(self) -> Iterator[Device]:
        """Iterate over NMOS/PMOS devices."""
        return (d for d in self.devices if d.kind.is_transistor)

    def is_flat(self) -> bool:
        """True when the circuit contains no subcircuit instances."""
        return not self.instances


@dataclass
class Netlist:
    """A full SPICE deck: title, subckt library, and top-level circuit."""

    title: str = ""
    top: Circuit = field(default_factory=lambda: Circuit(name="top"))
    subckts: dict[str, Circuit] = field(default_factory=dict)
    models: dict[str, DeviceKind] = field(default_factory=dict)
    globals_: tuple[str, ...] = ()
    #: Lenient-mode parse problems (``repro.runtime.resilience.Diagnostic``
    #: records); always empty after a successful strict parse.
    diagnostics: list = field(default_factory=list)

    def subckt(self, name: str) -> Circuit:
        """Case-insensitive subcircuit lookup."""
        key = name.lower()
        if key not in self.subckts:
            raise ElaborationError(f"undefined subcircuit: {name}")
        return self.subckts[key]

    def define(self, circuit: Circuit) -> None:
        """Register a subcircuit definition (case-insensitive name)."""
        self.subckts[circuit.name.lower()] = circuit


def make_mos(
    name: str,
    kind: DeviceKind,
    drain: str,
    gate: str,
    source: str,
    body: str | None = None,
    model: str | None = None,
    w: float = 1e-6,
    l: float = 100e-9,
    m: float = 1.0,
) -> Device:
    """Convenience constructor for a MOSFET device card.

    ``body`` defaults to ``gnd!`` for NMOS and ``vdd!`` for PMOS, the
    usual bulk ties in the circuits this package generates.
    """
    if not kind.is_transistor:
        raise ValueError(f"make_mos called with non-transistor kind {kind}")
    if body is None:
        body = "gnd!" if kind is DeviceKind.NMOS else "vdd!"
    if model is None:
        model = "nmos" if kind is DeviceKind.NMOS else "pmos"
    return Device(
        name=name,
        kind=kind,
        pins=(("d", drain), ("g", gate), ("s", source), ("b", body)),
        model=model,
        params=(("w", w), ("l", l), ("m", m)),
    )


def make_passive(
    name: str, kind: DeviceKind, pos: str, neg: str, value: float
) -> Device:
    """Convenience constructor for R/C/L device cards."""
    if not kind.is_passive:
        raise ValueError(f"make_passive called with non-passive kind {kind}")
    return Device(name=name, kind=kind, pins=(("p", pos), ("n", neg)), value=value)
