"""Seeded random SPICE deck generation.

The generator composes *valid* decks from grammar-level building
blocks, so a fuzz iteration exercises the same structures real analog
netlists have — primitive topologies the library knows, passive and
active glue between them, nested ``.subckt`` hierarchies with
m-factors, ``.include`` chains — plus, in lenient mode, deliberate
dirt (malformed cards, undefined subckt instances) that the resilient
parse path must absorb.

Every deck comes back as a :class:`GeneratedDeck`: the self-contained
deck ``text``, the optional ``files`` split (a main deck plus include
files whose expansion equals ``text``), the parse ``mode`` the deck
requires (``"lenient"`` iff dirt was injected), and the ``recipe`` —
a JSON-serializable dict from which :func:`regenerate` reproduces the
deck byte-for-byte.  Determinism is the contract: one seed, one deck.

Building blocks come from the real primitive library
(:func:`repro.primitives.library.extended_library`): each snippet is a
template's ``.subckt`` body with fresh device/net names and its port
nets drawn according to the template's declared port roles (power
ports land on rails, bias ports on ``vb*`` nets, signal ports on the
deck's signal-net pool), so generated decks actually contain matchable
primitives instead of random soup.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from repro.primitives.library import PrimitiveLibrary, extended_library
from repro.spice.netlist import DeviceKind, is_power_net
from repro.spice.writer import _device_line

#: Recipe schema version; bump on any change that would alter the deck
#: produced from an existing recipe.
RECIPE_VERSION = 1

#: Glue-value pools (SPICE suffix notation, parsed by repro.spice.units).
_R_VALUES = ("1k", "10k", "50k", "100")
_C_VALUES = ("1p", "100f", "10p")
_L_VALUES = ("1n", "10n")

#: Lenient-mode dirt lines.  Every entry must be *strict-fatal*
#: somewhere in parse→flatten (that asymmetry is what the parse-modes
#: oracle checks) while being skippable in lenient mode.
_DIRT_LINES = (
    "qbogus a b c npn",  # unsupported card type
    "mshort n900 n901",  # MOS with too few pins
    "xundef n902 n903 nosuchcell",  # instance of an undefined subckt
    "rnoval n904 n905",  # resistor without a value
)


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one generated deck.  All sizes are inclusive bounds."""

    #: Top-level primitive snippets (drawn from the template library).
    min_blocks: int = 1
    max_blocks: int = 4
    #: Random passive/active glue devices at the top level.
    max_glue: int = 3
    #: Subcircuit definitions (0 disables hierarchy for this deck).
    max_subckts: int = 2
    #: Instances per definition.
    max_instances: int = 3
    #: Probability a definition nests an instance of an earlier one.
    p_nested: float = 0.3
    #: Probability an instance card carries an integer m-factor.
    p_mfactor: float = 0.25
    #: Number of dirt lines to inject (> 0 forces mode="lenient").
    n_dirt: int = 0
    #: Emit the deck as main + .include files as well as joined text.
    include_split: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class GeneratedDeck:
    """One generated deck plus everything needed to reproduce it."""

    text: str
    recipe: dict
    #: ``"strict"`` for clean decks, ``"lenient"`` when dirt is present.
    mode: str = "strict"
    #: Optional ``.include`` split: file name → content.  Parsing
    #: ``files["main.sp"]`` with ``include_dir`` pointing at these
    #: files must equal parsing the self-contained ``text``.
    files: dict[str, str] = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.recipe["seed"]

    @property
    def n_lines(self) -> int:
        return len(self.text.splitlines())


class _Namer:
    """Unique device/net name supply for one deck."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def fresh(self, prefix: str) -> str:
        n = self.counters.get(prefix, 0)
        self.counters[prefix] = n + 1
        return f"{prefix}{n}"


_CARD_LETTER: dict[DeviceKind, str] = {
    DeviceKind.NMOS: "m",
    DeviceKind.PMOS: "m",
    DeviceKind.RESISTOR: "r",
    DeviceKind.CAPACITOR: "c",
    DeviceKind.INDUCTOR: "l",
    DeviceKind.DIODE: "d",
}

_LIBRARY: PrimitiveLibrary | None = None


def _library() -> PrimitiveLibrary:
    global _LIBRARY
    if _LIBRARY is None:
        _LIBRARY = extended_library()
    return _LIBRARY


def _template_rail(template) -> str:
    """Rail a 'power'-role port should land on for this template."""
    kinds = {d.kind for d in template.graph.elements}
    return "vdd!" if DeviceKind.PMOS in kinds and DeviceKind.NMOS not in kinds else "gnd!"


class _Scope:
    """One net namespace (the top level, or one subckt body)."""

    def __init__(self, rng: random.Random, namer: _Namer, net_prefix: str = "n"):
        self.rng = rng
        self.namer = namer
        self.net_prefix = net_prefix
        self.signal_nets: list[str] = []
        self.bias_nets: list[str] = []

    def fresh_signal(self) -> str:
        net = self.namer.fresh(self.net_prefix)
        self.signal_nets.append(net)
        return net

    def signal(self, p_reuse: float = 0.4) -> str:
        if self.signal_nets and self.rng.random() < p_reuse:
            return self.rng.choice(self.signal_nets)
        return self.fresh_signal()

    def bias(self) -> str:
        if self.bias_nets and self.rng.random() < 0.5:
            return self.rng.choice(self.bias_nets)
        net = self.namer.fresh("vb")
        self.bias_nets.append(net)
        return net


def _emit_snippet(scope: _Scope, namer: _Namer) -> list[str]:
    """One primitive-template instantiation as raw device cards."""
    rng = scope.rng
    template = rng.choice(_library().templates)
    # The ``.subckt`` body the template parsed once at construction.
    body = template.graph.circuit
    roles = dict(template.port_roles)
    net_map: dict[str, str] = {}
    for port in body.ports:
        role = roles.get(port)
        if role in ("power",):
            net_map[port] = _template_rail(template)
        elif role == "supply":
            net_map[port] = "vdd!"
        elif role == "ground":
            net_map[port] = "gnd!"
        elif role == "bias":
            net_map[port] = scope.bias()
        else:  # "signal" or undeclared: any non-power net
            net_map[port] = scope.signal()
    lines: list[str] = []
    for dev in body.devices:
        for net in dev.nets:
            if net in net_map or is_power_net(net):
                continue
            net_map[net] = scope.fresh_signal()  # internal template net
        letter = _CARD_LETTER[dev.kind]
        renamed = dev.renamed(namer.fresh(letter), net_map)
        lines.append(_device_line(renamed))
    return lines


def _emit_glue(scope: _Scope, namer: _Namer) -> str:
    """One random glue device card."""
    rng = scope.rng
    kind = rng.choice(("r", "c", "l", "mdiode", "mos"))
    if kind == "r":
        return f"{namer.fresh('r')} {scope.signal()} {scope.signal()} {rng.choice(_R_VALUES)}"
    if kind == "c":
        return (
            f"{namer.fresh('c')} {scope.signal()} "
            f"{rng.choice(('gnd!', scope.signal()))} {rng.choice(_C_VALUES)}"
        )
    if kind == "l":
        return f"{namer.fresh('l')} {scope.signal()} {scope.signal()} {rng.choice(_L_VALUES)}"
    if kind == "mdiode":
        d = scope.signal()
        return f"{namer.fresh('m')} {d} {d} gnd! gnd! nmos w=1u l=100n"
    model = rng.choice(("nmos", "pmos"))
    rail = "vdd!" if model == "pmos" else "gnd!"
    return (
        f"{namer.fresh('m')} {scope.signal()} {scope.signal()} "
        f"{rng.choice((rail, scope.signal()))} {rail} {model} w=2u l=100n"
    )


def generate_deck(seed: int, config: GenConfig | None = None) -> GeneratedDeck:
    """Generate one deterministic deck for ``seed`` under ``config``."""
    config = config or GenConfig()
    rng = random.Random(seed)
    namer = _Namer()
    top = _Scope(rng, namer)

    lines: list[str] = [f"* fuzz deck seed={seed}", ".global vdd! gnd!"]
    subckt_lines: list[str] = []
    instance_lines: list[str] = []
    definitions: list[tuple[str, int]] = []  # (name, n_ports)

    # -- subcircuit definitions ------------------------------------------
    n_subckts = rng.randint(0, config.max_subckts)
    for s in range(n_subckts):
        sub_name = f"cell{s}"
        sub_namer = _Namer()
        sub_scope = _Scope(rng, sub_namer, net_prefix="sn")
        body: list[str] = []
        for _ in range(rng.randint(1, 2)):
            body.extend(_emit_snippet(sub_scope, sub_namer))
        if rng.random() < 0.5:
            body.append(_emit_glue(sub_scope, sub_namer))
        if definitions and rng.random() < config.p_nested:
            inner_name, inner_ports = rng.choice(definitions)
            nets = [sub_scope.signal() for _ in range(inner_ports)]
            body.append(f"{sub_namer.fresh('x')} {' '.join(nets)} {inner_name}")
        # Ports: a stable subset of the body's signal nets (≥1).
        pool = sub_scope.signal_nets or [sub_scope.fresh_signal()]
        n_ports = max(1, min(len(pool), rng.randint(1, 3)))
        ports = pool[:n_ports]
        subckt_lines.append(f".subckt {sub_name} " + " ".join(ports))
        subckt_lines.extend(body)
        subckt_lines.append(".ends")
        definitions.append((sub_name, n_ports))

    # -- top-level content ------------------------------------------------
    device_lines: list[str] = []
    n_blocks = rng.randint(config.min_blocks, config.max_blocks)
    for _ in range(n_blocks):
        device_lines.extend(_emit_snippet(top, namer))
    for _ in range(rng.randint(0, config.max_glue)):
        device_lines.append(_emit_glue(top, namer))
    for name, n_ports in definitions:
        for _ in range(rng.randint(1, config.max_instances)):
            nets = [top.signal() for _ in range(n_ports)]
            card = f"{namer.fresh('x')} {' '.join(nets)} {name}"
            if rng.random() < config.p_mfactor:
                card += f" m={rng.randint(2, 3)}"
            instance_lines.append(card)

    # Without replacement: lenient mode *recovers* some dirt (e.g. the
    # value-less resistor) into real devices, so a repeated line would
    # produce duplicate device names in the flat circuit.
    dirt = rng.sample(_DIRT_LINES, min(config.n_dirt, len(_DIRT_LINES)))
    mode = "lenient" if dirt else "strict"

    body_lines = subckt_lines + device_lines + instance_lines + dirt
    text = "\n".join(lines + body_lines + [".end"]) + "\n"

    files: dict[str, str] = {}
    if config.include_split and subckt_lines:
        files["cells.inc"] = "\n".join(subckt_lines) + "\n"
        main = (
            lines
            + [".include cells.inc"]
            + device_lines
            + instance_lines
            + dirt
            + [".end"]
        )
        files["main.sp"] = "\n".join(main) + "\n"

    recipe = {
        "version": RECIPE_VERSION,
        "seed": seed,
        "config": config.as_dict(),
    }
    return GeneratedDeck(text=text, recipe=recipe, mode=mode, files=files)


def regenerate(recipe: dict) -> GeneratedDeck:
    """Reproduce a deck from its recipe (the reproducibility contract)."""
    version = recipe.get("version")
    if version != RECIPE_VERSION:
        raise ValueError(
            f"recipe version {version!r} not supported "
            f"(this generator writes version {RECIPE_VERSION})"
        )
    return generate_deck(recipe["seed"], GenConfig(**recipe["config"]))
