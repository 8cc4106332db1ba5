"""Seeded inputs for the benchmark's workloads.

The circuits come from the program's own dataset generators
(``repro.datasets``), which label every device with its ground-truth
sub-block class.  This module renames, merges and serializes them with
its own SPICE emitter, so the program under test only ever receives
SPICE text, and the same seed always yields byte-identical decks.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from repro.datasets.components import GND, VDD, CircuitBuilder
from repro.datasets.ota import generate_ota, ota_variants
from repro.datasets.rf import (
    RF_EXTENDED_CLASSES,
    add_bpf,
    add_inv_amp,
    add_lna,
    add_mixer,
    add_oscillator,
    add_vco_buffer,
    generate_receiver,
    receiver_variants,
)
from repro.datasets.synth import generate_ota_bias_dataset
from repro.spice.netlist import Circuit, Device, Instance, is_power_net
from repro.utils.rng import seeded_rng

GLOBALS = (VDD, GND)

_CARD_LETTER = {
    "nmos": "m",
    "pmos": "m",
    "resistor": "r",
    "capacitor": "c",
    "inductor": "l",
    "vsource": "v",
    "isource": "i",
    "diode": "d",
}

#: Flat decks merge receivers (about 20-30 devices each) until they
#: reach a target spread evenly over this device range.
FLAT_DEVICES = (400, 700)
#: Hier decks instantiate library cells until they hold this many
#: devices, within the instance-count limits below.
HIER_TARGET_DEVICES = 450
HIER_INSTANCES = (8, 24)
#: Distinct hier decks per run; ops cycle over them.
HIER_DECKS = 12
#: Fleet decks: OTAs of this many devices, this many per batch.
FLEET_DEVICES = (15, 30)
FLEET_BATCH = 16
#: Training set size; a fifth is held out for validation.
TRAIN_GRAPHS = 72


@dataclass
class Deck:
    """One SPICE deck plus the ground truth the generator planted."""

    name: str
    text: str
    #: Device name (as the program names it after flattening) -> class.
    labels: dict[str, str]
    #: Testbench port labels keyed by flattened net name.
    ports: dict[str, str] = field(default_factory=dict)
    #: Subcircuit definition -> instance count (hier decks only).
    cells: dict[str, int] = field(default_factory=dict)

    @property
    def n_devices(self) -> int:
        return len(self.labels)

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# SPICE emission
# ---------------------------------------------------------------------------


def body(text: str) -> str:
    """A deck's cards without the title line: what makes two decks the
    same circuit."""
    return text.split("\n", 1)[1]


def _number(value: float) -> str:
    return repr(float(value))


def _device_card(device: Device) -> str:
    if not device.name.startswith(_CARD_LETTER[device.kind.value]):
        raise ValueError(f"device name {device.name!r} lacks its card letter")
    tokens = [device.name, *device.nets]
    if device.kind.is_transistor:
        tokens.append(device.model or device.kind.value)
    elif device.value is not None:
        tokens.append(_number(device.value))
    elif device.model:
        tokens.append(device.model)
    tokens.extend(f"{key}={_number(value)}" for key, value in device.params)
    return " ".join(tokens)


def _instance_card(instance: Instance) -> str:
    return " ".join([instance.name, *instance.nets, instance.subckt])


def spice_text(title: str, top: Circuit, subckts: tuple[Circuit, ...] = ()) -> str:
    """Serialize a deck: title, globals, subckt bodies, top level."""
    lines = [f"* {title}", ".global " + " ".join(GLOBALS)]
    for cell in subckts:
        lines.append(f".subckt {cell.name} " + " ".join(cell.ports))
        lines.extend(_device_card(d) for d in cell.devices)
        lines.append(".ends")
    lines.extend(_device_card(d) for d in top.devices)
    lines.extend(_instance_card(i) for i in top.instances)
    lines.append(".end")
    return "\n".join(lines) + "\n"


def _cardified(devices, labels: dict[str, str]):
    """Rename devices whose name lacks its SPICE card letter (e.g. a
    prefixed ``ref_mosc7``) the way a SPICE writer would, carrying
    their labels along."""
    out, out_labels = [], {}
    for device in devices:
        letter = _CARD_LETTER[device.kind.value]
        name = device.name if device.name.startswith(letter) else letter + device.name
        out.append(device.renamed(name, {}))
        if device.name in labels:
            out_labels[name] = labels[device.name]
    return out, out_labels


# ---------------------------------------------------------------------------
# flat: merged receivers
# ---------------------------------------------------------------------------


def _spread(index: int) -> float:
    """Evenly spread fractions in [0, 1): the golden-ratio sequence."""
    return (index * 0.6180339887498949) % 1.0


def flat_deck(seed: int, index: int) -> Deck:
    """A flat RF system: seeded receivers merged under name suffixes,
    sharing only the supply rails.

    The device target depends on ``index`` alone, so every seed yields
    the same spread of deck sizes and only the circuits change.
    """
    lo, hi = FLAT_DEVICES
    target = lo + _spread(index) * (hi - lo)
    name = f"flat{seed}_{index}"
    top = Circuit(name=name, ports=GLOBALS)
    labels: dict[str, str] = {}
    ports: dict[str, str] = {}
    specs = receiver_variants(64, seed=("perfbench-flat", seed, index))
    for k, spec in enumerate(specs):
        if len(top.devices) >= target:
            break
        item = generate_receiver(spec)
        nets = {
            net: net if is_power_net(net) else f"{net}_{k}"
            for device in item.circuit.devices
            for net in device.nets
        }
        for device in item.circuit.devices:
            renamed = device.renamed(f"{device.name}_{k}", nets)
            top.add(renamed)
            labels[renamed.name] = item.device_labels[device.name]
        for net, label in item.port_labels.items():
            ports[nets.get(net, f"{net}_{k}")] = label
    return Deck(name=name, text=spice_text(name, top), labels=labels, ports=ports)


# ---------------------------------------------------------------------------
# hier: repeated cells from a small seeded library
# ---------------------------------------------------------------------------


@dataclass
class Cell:
    circuit: Circuit
    labels: dict[str, str]
    #: Port name -> label for nets driven from outside the cell.
    port_labels: dict[str, str]
    #: Internal nets carrying a testbench label.
    internal_labels: dict[str, str]


def _receiver_cell(name: str, spec) -> Cell:
    item = generate_receiver(spec, name=name)
    devices, labels = _cardified(item.circuit.devices, item.device_labels)
    circuit = Circuit(name=name, ports=("rfin", "ifout"), devices=devices)
    internal = {n: lab for n, lab in item.port_labels.items() if n not in circuit.ports}
    return Cell(circuit, labels, {"rfin": "antenna"}, internal)


def _channel_cell(name: str, seed: tuple) -> Cell:
    """A ~70-device phased-array channel (LNA, BPF, injection-locked
    oscillator, VCO buffers, I/Q mixers with a combiner, inverter IF
    chain), built the way ``phased_array_hier`` builds its channel but
    keeping the device labels."""
    rng = seeded_rng(("perfbench-channel", seed))
    ch = CircuitBuilder(name, ports=("ant", "ifout", "ref"))
    add_lna(ch, rf_in="ant", rf_out="lna_out", topology="inductive_degeneration",
            stages=int(rng.integers(2, 4)), rng=rng)
    add_bpf(ch, inp="lna_out", inn=None, outp="bpf_p", outn="bpf_n")
    add_oscillator(ch, outp="lo_p", outn="lo_n", topology="lc_cmos", rng=rng)
    ch.nmos(ch.fresh("minj"), d="lo_p", g="ref", s="lo_n", label="osc")
    add_vco_buffer(ch, inp="lo_p", out="lob_p", prefix="a")
    add_vco_buffer(ch, inp="lo_n", out="lob_n", prefix="b")
    add_vco_buffer(ch, inp="lo_p", out="lobq_p", prefix="c")
    add_vco_buffer(ch, inp="lo_n", out="lobq_n", prefix="d")
    add_mixer(ch, rf_in="bpf_p", lo="lob_p", lo_bar="lob_n", if_out="if0",
              topology="double_balanced", prefix="i", rng=rng)
    add_mixer(ch, rf_in="bpf_n", lo="lobq_p", lo_bar="lobq_n", if_out="q0",
              topology="double_balanced", prefix="q", rng=rng)
    ch.nmos(ch.fresh("mcmb"), d="ifsum", g="cascb", s="if0", label="mixer")
    ch.nmos(ch.fresh("mcmb"), d="ifsum", g="cascb", s="q0", label="mixer")
    ch.resistor(ch.fresh("rcmb"), p="ifsum", n=VDD, value=4e3, label="mixer")
    add_inv_amp(ch, inp="ifsum", out="if1", prefix="a")
    add_inv_amp(ch, inp="if1", out="if2", prefix="b")
    add_inv_amp(ch, inp="if2", out="ifout", prefix="c")
    item = ch.finish(class_names=RF_EXTENDED_CLASSES)
    devices, labels = _cardified(item.circuit.devices, item.device_labels)
    circuit = Circuit(name=name, ports=item.circuit.ports, devices=devices)
    internal = {net: "oscillating" for net in ("lo_p", "lo_n", "lob_p", "lob_n")}
    return Cell(circuit, labels, {"ant": "antenna"}, internal)


def hier_library(seed: int) -> list[Cell]:
    """Six single receivers of 20-30 devices plus two channels.  With
    at most 24 instances of cells this size, every deck can reach the
    device target."""
    cells = []
    for spec in receiver_variants(128, seed=("perfbench-hier", seed)):
        cell = _receiver_cell(f"rx{len(cells)}", spec)
        if 20 <= len(cell.circuit.devices) <= 30:
            cells.append(cell)
        if len(cells) == 6:
            break
    cells.extend(_channel_cell(f"chan{k}", (seed, k)) for k in range(2))
    return cells


def hier_deck(seed: int, index: int, library: list[Cell]) -> Deck:
    """A top level instantiating 8-24 copies of 2-4 library cells,
    grown to about ``HIER_TARGET_DEVICES`` devices.  A reference
    oscillator at the top drives every channel's injection port.

    Which library slots a deck uses, and in what order, depends on
    ``index`` alone; the seed changes the cells themselves.
    """
    rng = random.Random(f"perfbench-hier/{index}")
    chosen = rng.sample(library, rng.randint(2, min(4, len(library))))
    name = f"hier{seed}_{index}"
    top = CircuitBuilder(name, ports=GLOBALS)
    ports: dict[str, str] = {}
    if any(cell.circuit.name.startswith("chan") for cell in chosen):
        add_oscillator(top, outp="ref_p", outn="ref_n", topology="lc_cmos",
                       prefix="ref_", rng=seeded_rng(("perfbench-ref", seed, index)))
        ports.update({"ref_p": "oscillating", "ref_n": "oscillating"})
    devices, labels = _cardified(top.circuit.devices, top.device_labels)
    top_circuit = Circuit(name=name, ports=GLOBALS, devices=devices)
    cells: dict[str, int] = {}
    n_devices = len(devices)
    lo, hi = HIER_INSTANCES
    i = 0
    while i < hi and (i < lo or n_devices < HIER_TARGET_DEVICES):
        # Every chosen cell first, then random picks among them; the
        # last pick lands as close to the device target as it can.
        if i < len(chosen):
            cell = chosen[i]
        else:
            cell = rng.choice(chosen)
            if n_devices + len(cell.circuit.devices) >= HIER_TARGET_DEVICES:
                cell = min(chosen, key=lambda c: abs(
                    n_devices + len(c.circuit.devices) - HIER_TARGET_DEVICES))
        inst = f"x{i}"
        nets = []
        for port in cell.circuit.ports:
            net = "ref_p" if port == "ref" else f"{port}{i}"
            nets.append(net)
            if port in cell.port_labels:
                ports[net] = cell.port_labels[port]
        top_circuit.add(Instance(name=inst, subckt=cell.circuit.name, nets=tuple(nets)))
        for net, label in cell.internal_labels.items():
            ports[f"{inst}/{net}"] = label
        for device, label in cell.labels.items():
            labels[f"{inst}/{device}"] = label
        cells[cell.circuit.name] = cells.get(cell.circuit.name, 0) + 1
        n_devices += len(cell.circuit.devices)
        i += 1
    used = tuple(c.circuit for c in library if c.circuit.name in cells)
    return Deck(name=name, text=spice_text(name, top_circuit, used),
                labels=labels, ports=ports, cells=cells)


# ---------------------------------------------------------------------------
# fleet: small OTA decks
# ---------------------------------------------------------------------------


def _ota_deck(item) -> Deck:
    devices, labels = _cardified(item.circuit.devices, item.device_labels)
    top = Circuit(name=item.name, ports=GLOBALS, devices=devices)
    return Deck(name=item.name, text=spice_text(item.name, top), labels=labels,
                ports=dict(item.port_labels))


def fleet_decks(seed: int, count: int) -> list[Deck]:
    """``count`` distinct OTA decks of 15-30 devices."""
    lo, hi = FLEET_DEVICES
    decks: list[Deck] = []
    bodies: set[str] = set()
    round_ = 0
    while len(decks) < count:
        for i, spec in enumerate(ota_variants(4 * count, seed=("perfbench-fleet", seed, round_))):
            item = generate_ota(spec, name=f"ota{seed}_{round_}_{i}")
            if lo <= item.n_devices <= hi:
                deck = _ota_deck(item)
                if body(deck.text) not in bodies:
                    bodies.add(body(deck.text))
                    decks.append(deck)
            if len(decks) == count:
                break
        round_ += 1
    return decks


# ---------------------------------------------------------------------------
# train: a fixed OTA sample set
# ---------------------------------------------------------------------------


def train_decks() -> list[Deck]:
    """The training circuits as SPICE text plus device labels.

    The set is fixed: every seed trains on the same graphs, so the
    train workload's accuracy and amount of work never depend on the
    seed, and only the host moves its timings.
    """
    items = generate_ota_bias_dataset(TRAIN_GRAPHS, seed="perfbench-train", workers=1)
    return [_ota_deck(item) for item in items]
