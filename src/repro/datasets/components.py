"""Circuit-construction toolkit shared by the dataset generators.

:class:`CircuitBuilder` assembles flat circuits device-by-device while
recording the ground-truth class of every device — the labels the GCN
trains against and Table II scores against.  The idiom::

    b = CircuitBuilder("ota_a")
    b.nmos("m1", d="n1", g="vinp", s="tail", label="ota")
    ...
    labeled = b.finish(class_names=("ota", "bias"))

Net labels are derived afterwards: a net takes the class of its
adjacent labeled devices when they all agree; nets touching devices of
different classes sit on block boundaries and are excluded from the
truth (the paper explicitly allows such vertices to belong to multiple
sub-blocks).  Power nets are always excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import DatasetError
from repro.graph.bipartite import CircuitGraph
from repro.spice.netlist import (
    Circuit,
    Device,
    DeviceKind,
    make_mos,
    make_passive,
)
from repro.spice.netlist import is_power_net

VDD = "vdd!"
GND = "gnd!"


@dataclass
class LabeledCircuit:
    """A generated circuit with ground truth and testbench hints."""

    name: str
    circuit: Circuit
    device_labels: dict[str, str]
    class_names: tuple[str, ...]
    port_labels: dict[str, str] = field(default_factory=dict)

    def truth(self, graph: CircuitGraph | None = None) -> dict[str, str]:
        """Device *and* net ground truth over the circuit's graph."""
        graph = graph or CircuitGraph.from_circuit(self.circuit)
        labels = dict(self.device_labels)
        labels.update(derive_net_labels(graph, self.device_labels))
        return labels

    @property
    def n_devices(self) -> int:
        return len(self.circuit.devices)


def derive_net_labels(
    graph: CircuitGraph, device_labels: dict[str, str]
) -> dict[str, str]:
    """Net → class where all adjacent labeled devices agree.

    Power nets and boundary nets (mixed adjacent classes) are omitted.
    """
    adjacent: dict[int, set[str]] = {}
    for edge in graph.edges:
        dev = graph.elements[edge.element]
        label = device_labels.get(dev.name)
        if label is None:
            continue
        adjacent.setdefault(edge.net, set()).add(label)
    out: dict[str, str] = {}
    for net_local, classes in adjacent.items():
        net = graph.nets[net_local]
        if is_power_net(net):
            continue
        if len(classes) == 1:
            out[net] = next(iter(classes))
    return out


class CircuitBuilder:
    """Incremental flat-circuit construction with label bookkeeping."""

    def __init__(self, name: str, ports: tuple[str, ...] = ()):
        self.circuit = Circuit(name=name, ports=ports)
        self.device_labels: dict[str, str] = {}
        self.port_labels: dict[str, str] = {}
        self._counter = 0

    # -- naming ------------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        """A fresh unique name with the given prefix.

        Skips names already present, so circuits assembled from
        re-hosted sub-circuits (see the system generators) stay
        collision-free.
        """
        existing = {d.name for d in self.circuit.devices}
        while True:
            self._counter += 1
            name = f"{prefix}{self._counter}"
            if name not in existing:
                return name

    def _register(self, device: Device, label: str | None) -> str:
        if any(d.name == device.name for d in self.circuit.devices):
            raise DatasetError(f"duplicate device name {device.name!r}")
        self.circuit.add(device)
        if label is not None:
            self.device_labels[device.name] = label
        return device.name

    # -- devices -------------------------------------------------------------

    def nmos(
        self,
        name: str | None = None,
        *,
        d: str,
        g: str,
        s: str,
        w: float = 2e-6,
        l: float = 100e-9,
        label: str | None = None,
    ) -> str:
        name = name or self.fresh("mn")
        return self._register(
            make_mos(name, DeviceKind.NMOS, d, g, s, w=w, l=l), label
        )

    def pmos(
        self,
        name: str | None = None,
        *,
        d: str,
        g: str,
        s: str,
        w: float = 4e-6,
        l: float = 100e-9,
        label: str | None = None,
    ) -> str:
        name = name or self.fresh("mp")
        return self._register(
            make_mos(name, DeviceKind.PMOS, d, g, s, w=w, l=l), label
        )

    def resistor(
        self,
        name: str | None = None,
        *,
        p: str,
        n: str,
        value: float = 10e3,
        label: str | None = None,
    ) -> str:
        name = name or self.fresh("r")
        return self._register(
            make_passive(name, DeviceKind.RESISTOR, p, n, value), label
        )

    def capacitor(
        self,
        name: str | None = None,
        *,
        p: str,
        n: str,
        value: float = 1e-12,
        label: str | None = None,
    ) -> str:
        name = name or self.fresh("c")
        return self._register(
            make_passive(name, DeviceKind.CAPACITOR, p, n, value), label
        )

    def inductor(
        self,
        name: str | None = None,
        *,
        p: str,
        n: str,
        value: float = 2e-9,
        label: str | None = None,
    ) -> str:
        name = name or self.fresh("l")
        return self._register(
            make_passive(name, DeviceKind.INDUCTOR, p, n, value), label
        )

    # -- common analog structures ------------------------------------------

    def diff_pair(
        self,
        *,
        inp: str,
        inn: str,
        out1: str,
        out2: str,
        tail: str,
        polarity: str = "n",
        w: float = 2e-6,
        label: str | None = None,
    ) -> tuple[str, str]:
        """Differential pair; returns the two device names."""
        add = self.nmos if polarity == "n" else self.pmos
        a = add(self.fresh("mdp"), d=out1, g=inp, s=tail, w=w, label=label)
        b = add(self.fresh("mdp"), d=out2, g=inn, s=tail, w=w, label=label)
        return a, b

    def current_mirror(
        self,
        *,
        ref: str,
        outs: tuple[str, ...],
        rail: str,
        polarity: str = "n",
        w: float = 2e-6,
        label: str | None = None,
    ) -> list[str]:
        """Diode device at ``ref`` plus one output device per net."""
        add = self.nmos if polarity == "n" else self.pmos
        names = [add(self.fresh("mcm"), d=ref, g=ref, s=rail, w=w, label=label)]
        for out in outs:
            names.append(
                add(self.fresh("mcm"), d=out, g=ref, s=rail, w=w, label=label)
            )
        return names

    def cascode_mirror(
        self,
        *,
        ref: str,
        out: str,
        rail: str,
        polarity: str = "n",
        label: str | None = None,
    ) -> list[str]:
        """Four-transistor cascode current mirror (matches CM-N(casc))."""
        add = self.nmos if polarity == "n" else self.pmos
        nc = self.fresh("nc_")
        no = self.fresh("no_")
        return [
            add(self.fresh("mcc"), d=ref, g=ref, s=nc, label=label),
            add(self.fresh("mcc"), d=nc, g=nc, s=rail, label=label),
            add(self.fresh("mcc"), d=out, g=ref, s=no, label=label),
            add(self.fresh("mcc"), d=no, g=nc, s=rail, label=label),
        ]

    def cross_coupled_pair(
        self,
        *,
        d1: str,
        d2: str,
        s: str,
        polarity: str = "n",
        label: str | None = None,
    ) -> tuple[str, str]:
        add = self.nmos if polarity == "n" else self.pmos
        a = add(self.fresh("mcc"), d=d1, g=d2, s=s, label=label)
        b = add(self.fresh("mcc"), d=d2, g=d1, s=s, label=label)
        return a, b

    def inverter(
        self,
        *,
        inp: str,
        out: str,
        label: str | None = None,
    ) -> tuple[str, str]:
        """CMOS inverter between the rails."""
        a = self.nmos(self.fresh("minv"), d=out, g=inp, s=GND, label=label)
        b = self.pmos(self.fresh("minv"), d=out, g=inp, s=VDD, label=label)
        return a, b

    def buffer(self, *, inp: str, out: str, label: str | None = None) -> str:
        """Two cascaded inverters (matches the BUF primitive)."""
        mid = self.fresh("bufmid")
        self.inverter(inp=inp, out=mid, label=label)
        self.inverter(inp=mid, out=out, label=label)
        return mid

    def lc_tank(
        self, *, a: str, b: str, c_value: float = 1e-12, label: str | None = None
    ) -> tuple[str, str]:
        il = self.inductor(p=a, n=b, label=label)
        ic = self.capacitor(p=a, n=b, value=c_value, label=label)
        return il, ic

    def rc_compensation(
        self, *, a: str, b: str, label: str | None = None
    ) -> tuple[str, str]:
        """Series R–C (matches CC-RC); midpoint is internal."""
        mid = self.fresh("zc_")
        ir = self.resistor(p=a, n=mid, label=label)
        ic = self.capacitor(p=mid, n=b, label=label)
        return ir, ic

    def current_reference(
        self, *, ref: str, polarity: str = "n", label: str | None = None
    ) -> tuple[str, str]:
        """Resistor-programmed diode device (matches CR-N for NMOS)."""
        if polarity == "n":
            ir = self.resistor(p=VDD, n=ref, label=label)
            im = self.nmos(self.fresh("mcr"), d=ref, g=ref, s=GND, label=label)
        else:
            ir = self.resistor(p=ref, n=GND, label=label)
            im = self.pmos(self.fresh("mcr"), d=ref, g=ref, s=VDD, label=label)
        return ir, im

    # -- completion ----------------------------------------------------------

    def mark_port(self, net: str, label: str) -> None:
        """Attach a testbench label ("antenna", "oscillating") to a net."""
        self.port_labels[net] = label

    @property
    def n_devices(self) -> int:
        return len(self.circuit.devices)

    def finish(self, class_names: tuple[str, ...]) -> LabeledCircuit:
        """Freeze into a :class:`LabeledCircuit`, validating labels."""
        for name, label in self.device_labels.items():
            if label not in class_names:
                raise DatasetError(
                    f"{self.circuit.name}: device {name} labeled {label!r} "
                    f"outside class set {class_names}"
                )
        return LabeledCircuit(
            name=self.circuit.name,
            circuit=self.circuit,
            device_labels=dict(self.device_labels),
            class_names=class_names,
            port_labels=dict(self.port_labels),
        )
