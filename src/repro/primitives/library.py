"""The primitive template library (Sec. IV).

"We populate a library of 21 basic primitives that are building blocks
for larger sub-blocks. The primitives are specified as SPICE netlists,
enabling a user to easily add new primitives to the library."

Each :class:`PrimitiveTemplate` carries:

* a SPICE ``.subckt`` body (the user-extensible representation),
* its one-time graph translation (Sec. II-C) as a
  :class:`~repro.primitives.isomorphism.PatternGraph`,
* designer-annotated default constraints (Sec. IV-B) expressed over
  template device names, remapped onto matched devices,
* optional *port-role predicates* — e.g. a common-source amplifier's
  source terminal must land on a power rail — which disambiguate
  single-transistor primitives that are structurally identical.

Use :func:`default_library` for the paper's 21 primitives, or build a
:class:`PrimitiveLibrary` from your own SPICE strings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.constraints import Constraint, ConstraintKind
from repro.exceptions import MatchError
from repro.graph.bipartite import CircuitGraph
from repro.graph.features import NetRole, infer_net_role
from repro.primitives.isomorphism import PatternGraph
from repro.runtime.cache import Memo
from repro.spice.netlist import is_ground_net, is_power_net, is_supply_net
from repro.spice.parser import parse_netlist


def _is_bias_net(net: str) -> bool:
    """Name-convention bias nets (vb*, bias*, vref*, iref* …)."""
    return infer_net_role(net, ports=(net,)) is NetRole.BIAS


#: Port-role predicate vocabulary: template port name → requirement on
#: the matched target net.
PORT_PREDICATES = {
    "power": is_power_net,
    "supply": is_supply_net,
    "ground": is_ground_net,
    "signal": lambda net: not is_power_net(net),
    "bias": _is_bias_net,
}


@dataclass
class PrimitiveTemplate:
    """One library entry: netlist + graph + constraints + predicates."""

    name: str
    spice: str
    graph: CircuitGraph = field(init=False)
    pattern: PatternGraph = field(init=False)
    constraints: tuple[Constraint, ...] = ()
    port_roles: tuple[tuple[str, str], ...] = ()  # (port, predicate name)

    def __post_init__(self) -> None:
        netlist = parse_netlist(self.spice)
        if len(netlist.subckts) != 1:
            raise MatchError(
                f"primitive {self.name!r} must define exactly one .subckt"
            )
        body = next(iter(netlist.subckts.values()))
        if body.instances:
            raise MatchError(f"primitive {self.name!r} must be flat")
        self.graph = CircuitGraph.from_circuit(body)
        self.pattern = PatternGraph.from_graph(self.graph)
        for port, predicate in self.port_roles:
            if predicate not in PORT_PREDICATES:
                raise MatchError(
                    f"primitive {self.name!r}: unknown predicate {predicate!r}"
                )
            if port not in body.ports:
                raise MatchError(
                    f"primitive {self.name!r}: predicate on unknown port {port!r}"
                )

    @property
    def n_elements(self) -> int:
        return self.graph.n_elements

    def port_net_ok(self, port: str, target_net: str) -> bool:
        """Check a matched net against this template's port predicates."""
        for p, predicate in self.port_roles:
            if p == port and not PORT_PREDICATES[predicate](target_net):
                return False
        return True


@dataclass
class PrimitiveLibrary:
    """An ordered collection of templates (largest matched first)."""

    templates: list[PrimitiveTemplate] = field(default_factory=list)

    def add(self, template: PrimitiveTemplate) -> None:
        if any(t.name == template.name for t in self.templates):
            raise MatchError(f"duplicate primitive name {template.name!r}")
        self.templates.append(template)

    def add_spice(
        self,
        name: str,
        spice: str,
        constraints: tuple[Constraint, ...] = (),
        port_roles: tuple[tuple[str, str], ...] = (),
    ) -> PrimitiveTemplate:
        """User-facing extension hook: register a new SPICE primitive."""
        template = PrimitiveTemplate(
            name=name, spice=spice, constraints=constraints, port_roles=port_roles
        )
        self.add(template)
        return template

    def get(self, name: str) -> PrimitiveTemplate:
        for template in self.templates:
            if template.name == name:
                return template
        raise KeyError(name)

    def by_size_desc(self) -> list[PrimitiveTemplate]:
        """Templates ordered largest-first (overlap resolution order)."""
        return sorted(self.templates, key=lambda t: -t.n_elements)

    def __len__(self) -> int:
        return len(self.templates)

    def __iter__(self):
        return iter(self.templates)

    def names(self) -> list[str]:
        return [t.name for t in self.templates]


_TEMPLATE_FP_MEMO = Memo()


def template_fingerprint(template: PrimitiveTemplate) -> str:
    """Stable content fingerprint of one template's defining inputs.

    ``graph`` and ``pattern`` are derived from ``spice`` in
    ``__post_init__``, so (name, spice, constraints, port_roles) fully
    determine matching behavior; their ``repr`` is deterministic
    (strings, enums, tuples), which keeps this cheap enough to call per
    (CCC, template) pair.  Memoized per template object — templates are
    frozen after construction.
    """
    return _TEMPLATE_FP_MEMO.get_or_build(
        template,
        lambda t: hashlib.sha256(
            repr(
                ("template", t.name, t.spice, t.constraints, t.port_roles)
            ).encode("utf-8")
        ).hexdigest()[:32],
    )


def library_fingerprint(library: PrimitiveLibrary) -> str:
    """Fingerprint of a whole library (order-sensitive: overlap
    resolution visits templates largest-first with insertion order as
    the tiebreak, so order is semantic).  Recomputed on every call —
    the per-template digests are memoized, the join is trivial — so
    ``library.add_spice(...)`` after a cached run is still seen."""
    return hashlib.sha256(
        ",".join(template_fingerprint(t) for t in library.templates).encode()
    ).hexdigest()[:32]


def _sym(members: tuple[str, ...], source: str) -> Constraint:
    return Constraint(ConstraintKind.SYMMETRY, members, source=source)


def _match(members: tuple[str, ...], source: str) -> Constraint:
    return Constraint(ConstraintKind.MATCHING, members, source=source)


def _cc(members: tuple[str, ...], source: str) -> Constraint:
    return Constraint(ConstraintKind.COMMON_CENTROID, members, source=source)


def default_library() -> PrimitiveLibrary:
    """The paper's 21-primitive library.

    Differential pairs and cross-coupled pairs carry symmetry+matching;
    current mirrors carry matching (common-centroid for ≥3 devices);
    references and dividers carry matching.  All nets that legitimately
    fan out into surrounding circuitry are ports; truly internal nodes
    (cascode intermediates, the RC midpoint) are non-port and therefore
    matched exactly.
    """
    lib = PrimitiveLibrary()

    # 1–2: differential pairs -----------------------------------------
    lib.add_spice(
        "DP-N",
        """.subckt dp_n d1 d2 inp inn tail
m1 d1 inp tail gnd! nmos
m2 d2 inn tail gnd! nmos
.ends
""",
        constraints=(_sym(("m1", "m2"), "DP-N"), _match(("m1", "m2"), "DP-N")),
    )
    lib.add_spice(
        "DP-P",
        """.subckt dp_p d1 d2 inp inn tail
m1 d1 inp tail vdd! pmos
m2 d2 inn tail vdd! pmos
.ends
""",
        constraints=(_sym(("m1", "m2"), "DP-P"), _match(("m1", "m2"), "DP-P")),
    )

    # 3–4: simple current mirrors --------------------------------------
    lib.add_spice(
        "CM-N(2)",
        """.subckt cm_n2 ref out s
m1 ref ref s gnd! nmos
m2 out ref s gnd! nmos
.ends
""",
        constraints=(_match(("m1", "m2"), "CM-N(2)"),),
        port_roles=(("s", "power"),),
    )
    lib.add_spice(
        "CM-P(2)",
        """.subckt cm_p2 ref out s
m1 ref ref s vdd! pmos
m2 out ref s vdd! pmos
.ends
""",
        constraints=(_match(("m1", "m2"), "CM-P(2)"),),
        port_roles=(("s", "power"),),
    )

    # 5–6: three-output mirrors ----------------------------------------
    lib.add_spice(
        "CM-N(3)",
        """.subckt cm_n3 ref out1 out2 s
m1 ref ref s gnd! nmos
m2 out1 ref s gnd! nmos
m3 out2 ref s gnd! nmos
.ends
""",
        constraints=(_match(("m1", "m2", "m3"), "CM-N(3)"), _cc(("m1", "m2", "m3"), "CM-N(3)")),
        port_roles=(("s", "power"),),
    )
    lib.add_spice(
        "CM-P(3)",
        """.subckt cm_p3 ref out1 out2 s
m1 ref ref s vdd! pmos
m2 out1 ref s vdd! pmos
m3 out2 ref s vdd! pmos
.ends
""",
        constraints=(_match(("m1", "m2", "m3"), "CM-P(3)"), _cc(("m1", "m2", "m3"), "CM-P(3)")),
        port_roles=(("s", "power"),),
    )

    # 7–8: cascode current mirrors --------------------------------------
    # nc/no are the cascode intermediate nodes: internal, matched exactly.
    lib.add_spice(
        "CM-N(casc)",
        """.subckt cm_ncasc ref out s
m1 ref ref nc gnd! nmos
m2 nc nc s gnd! nmos
m3 out ref no gnd! nmos
m4 no nc s gnd! nmos
.ends
""",
        constraints=(
            _match(("m1", "m3"), "CM-N(casc)"),
            _match(("m2", "m4"), "CM-N(casc)"),
        ),
        port_roles=(("s", "power"),),
    )
    lib.add_spice(
        "CM-P(casc)",
        """.subckt cm_pcasc ref out s
m1 ref ref nc vdd! pmos
m2 nc nc s vdd! pmos
m3 out ref no vdd! pmos
m4 no nc s vdd! pmos
.ends
""",
        constraints=(
            _match(("m1", "m3"), "CM-P(casc)"),
            _match(("m2", "m4"), "CM-P(casc)"),
        ),
        port_roles=(("s", "power"),),
    )

    # 9: the five-transistor PMOS mirror of Fig. 1 ----------------------
    lib.add_spice(
        "CM-P(5)",
        """.subckt cm_p5 ref out1 out2 out3 out4 s
m1 ref ref s vdd! pmos
m2 out1 ref s vdd! pmos
m3 out2 ref s vdd! pmos
m4 out3 ref s vdd! pmos
m5 out4 ref s vdd! pmos
.ends
""",
        constraints=(
            _match(("m1", "m2", "m3", "m4", "m5"), "CM-P(5)"),
            _cc(("m1", "m2", "m3", "m4", "m5"), "CM-P(5)"),
        ),
        port_roles=(("s", "power"),),
    )

    # 10–11: common-source amplifiers ------------------------------------
    lib.add_spice(
        "CS-Amp-N",
        """.subckt cs_n out in s
m1 out in s gnd! nmos
.ends
""",
        port_roles=(("s", "power"), ("out", "signal"), ("in", "signal")),
    )
    lib.add_spice(
        "CS-Amp-P",
        """.subckt cs_p out in s
m1 out in s vdd! pmos
.ends
""",
        port_roles=(("s", "power"), ("out", "signal"), ("in", "signal")),
    )

    # 12: common-gate amplifier ------------------------------------------
    # The gate must sit on a bias net — that is what distinguishes a CG
    # stage from a pass switch (whose gate is a clock/control signal).
    lib.add_spice(
        "CG-Amp-N",
        """.subckt cg_n out vb in
m1 out vb in gnd! nmos
.ends
""",
        port_roles=(("in", "signal"), ("out", "signal"), ("vb", "bias")),
    )

    # 13: source follower ---------------------------------------------------
    lib.add_spice(
        "SF-N",
        """.subckt sf_n d in out
m1 d in out gnd! nmos
.ends
""",
        port_roles=(("d", "power"), ("in", "signal"), ("out", "signal")),
    )

    # 14–15: cross-coupled pairs ---------------------------------------------
    lib.add_spice(
        "CC-N",
        """.subckt cc_n d1 d2 s
m1 d1 d2 s gnd! nmos
m2 d2 d1 s gnd! nmos
.ends
""",
        constraints=(_sym(("m1", "m2"), "CC-N"), _match(("m1", "m2"), "CC-N")),
    )
    lib.add_spice(
        "CC-P",
        """.subckt cc_p d1 d2 s
m1 d1 d2 s vdd! pmos
m2 d2 d1 s vdd! pmos
.ends
""",
        constraints=(_sym(("m1", "m2"), "CC-P"), _match(("m1", "m2"), "CC-P")),
    )

    # 16: switched-capacitor common-mode feedback sensor ----------------------
    lib.add_spice(
        "CMF-SC",
        """.subckt cmf_sc outp outn fb
c1 outp fb 1p
c2 outn fb 1p
.ends
""",
        constraints=(
            _match(("c1", "c2"), "CMF-SC"),
            _sym(("c1", "c2"), "CMF-SC"),
        ),
        port_roles=(("outp", "signal"), ("outn", "signal"), ("fb", "signal")),
    )

    # 17: current reference (resistor-programmed diode device) -----------------
    lib.add_spice(
        "CR-N",
        """.subckt cr_n ref top s
r1 top ref 10k
m1 ref ref s gnd! nmos
.ends
""",
        port_roles=(("s", "power"), ("top", "power")),
    )

    # 18: resistive-divider voltage reference -----------------------------------
    lib.add_spice(
        "VR-RD",
        """.subckt vr_rd top out bot
r1 top out 10k
r2 out bot 10k
.ends
""",
        constraints=(_match(("r1", "r2"), "VR-RD"),),
        port_roles=(("top", "power"), ("bot", "power"), ("out", "signal")),
    )

    # 19: pass switch --------------------------------------------------------------
    lib.add_spice(
        "SW-N",
        """.subckt sw_n a b clk
m1 a clk b gnd! nmos
.ends
""",
        port_roles=(("a", "signal"), ("b", "signal"), ("clk", "signal")),
    )

    # 20: series-RC compensation (Miller zero-nulling) ---------------------------------
    # The midpoint x is internal: exactly one R and one C touch it.
    lib.add_spice(
        "CC-RC",
        """.subckt cc_rc a b
r1 a x 1k
c1 x b 1p
.ends
""",
    )

    # 21: LC tank -------------------------------------------------------------
    lib.add_spice(
        "LC-TANK",
        """.subckt lc_tank a b
l1 a b 1n
c1 a b 1p
.ends
""",
        constraints=(_sym(("l1", "c1"), "LC-TANK"),),
    )

    return lib


def extended_library() -> PrimitiveLibrary:
    """The 21 paper primitives plus INV and BUF.

    The phased-array testcase (Sec. V-B) separates "INV and BUF
    primitives ... and a separate hierarchy is created for them"; the
    paper does not enumerate its 21 templates, so we document INV/BUF
    as additions needed by that testcase.
    """
    lib = default_library()
    lib.add_spice(
        "INV",
        """.subckt inv in out vdd vss
m1 out in vss gnd! nmos
m2 out in vdd vdd! pmos
.ends
""",
        constraints=(_match(("m1", "m2"), "INV"),),
        port_roles=(("vdd", "power"), ("vss", "power"), ("in", "signal"), ("out", "signal")),
    )
    # Push–pull source-follower buffer (class-AB VCO buffer): both
    # devices' sources meet at the output, so — unlike the inverter —
    # the buffer is one channel-connected component and its output edge
    # labels are source bits, which is what VF2 keys on.
    lib.add_spice(
        "BUF",
        """.subckt buf in out vdd vss
m1 vdd in out gnd! nmos
m2 vss in out vdd! pmos
.ends
""",
        constraints=(_match(("m1", "m2"), "BUF"),),
        port_roles=(("vdd", "power"), ("vss", "power"), ("in", "signal"), ("out", "signal")),
    )
    return lib
