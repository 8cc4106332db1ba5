"""Committed golden of the front end, stage by stage.

For every deck below, ``tests/golden/frontend.json`` holds the sha256
of a canonical dump of each front-end output: the parsed
:class:`~repro.spice.netlist.Netlist`, :func:`flatten`'s circuit,
:func:`flatten_hierarchical`'s circuit with its ``DesignTree``,
:func:`preprocess`'s reduced circuit and report, the bipartite graph's
elements, nets and edges, and the diagnostics of parse and both
elaborations.  Any change to a name, a value, a list order or a
diagnostic text moves a digest.

The decks: the shipped examples; the committed fuzz corpus, each deck
in its sidecar's mode; seeded generator decks with nested subckts and
m-factors (some with lenient-mode dirt); dataset circuits written as
text after :mod:`repro.datasets.perturb` added parallel splits, series
stacks, dummies and decaps, which are the merge paths the other decks
rarely take; the two generated systems; and a mixed-case lenient deck
whose tokenizer and card errors pin the diagnostic text.

Dumps are built from field values (strings, ints and float ``repr``),
never from dataclass or enum reprs, so the digests do not depend on
the Python version.  Regenerate the golden from the current code with::

    PYTHONPATH=src python -m tests.spice.test_frontend_golden
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

import pytest

from tests.conftest import EXAMPLE_DECK_PATHS
from tests.core.test_golden import CORPUS_DIR, FRONTEND_GOLDEN, first_difference

REGENERATE = "PYTHONPATH=src python -m tests.spice.test_frontend_golden"

#: Tokenizer errors (dangling ``=`` at either end of a line and on a
#: continuation, an orphan ``+`` line), card errors (short MOS card,
#: unsupported device and dot cards, stray ``.ends``, unterminated
#: ``.subckt``), an undefined subckt instance, and mixed case
#: everywhere, including inside the offending lines.
MIXED_CASE_LENIENT_DECK = """\
* Mixed-Case Lenient Deck
+ Orphan 1P
.Title Mixed Case Front End
.GLOBAL VDD! GND!
.PARAM Wn=2U Lmin = 100N
.param WP={WN}
.param Early={LATE} Q={wn*2}
.param late=5U
.MODEL NCH NMOS
.model Pch PMOS
M1 Out In GND! GND! NCH W={wn} L=LMIN M=2
M2 OUT in VDD! VDD! pch w = {wp} l='lmin' AS=1P
+ PD=2U
M3 X Y Z
R1 A B 1K =
= R9 a b 1k
R2 A B 10Meg $ trailing comment
R3 a B 1.5kOhm ; other comment
R4 a b R = 5K
C1 A 0
+ 1P
C2 a 0 10uF
C3 a b 1p==2
C4 A b 2P
+ =
L1 a  b 1.5nH
V1 VDD! 0 DC 1.8
V2 In 0 SIN(0 1 1G)
Vx In2 0 PULSE ( 0 1.8 1N )
I1 VDD! Bias 10uA
D1 a b DMOD
QBOGUS a b c NPN
.FOO bar
.Tran 1n 10n
XU1 A B Cell M=2
XBAD A B NOSUCH
.SUBCKT Cell P Q
MC1 P Q GND! GND! nmos W=1U L=100n
RC1 P q 1k
XNEST P Q Inner
.ENDS
.subckt INNER a b
Ri a b 2K
Mi A B gnd! gnd! NMOS w=1e-06 L=1E-7
.ends
.ends
.END
.SUBCKT Open a
ro a 0 1k
"""


def _example_decks() -> dict[str, tuple[str, str]]:
    return {f"example-{p.stem}": (p.read_text(), "strict") for p in EXAMPLE_DECK_PATHS}


def _corpus_decks() -> dict[str, tuple[str, str]]:
    return {
        f"corpus-{p.stem}": (
            p.read_text(),
            json.loads(p.with_suffix(".json").read_text())["mode"],
        )
        for p in sorted(CORPUS_DIR.glob("*.sp"))
    }


def _generated_decks() -> dict[str, tuple[str, str]]:
    from repro.testing.generator import GenConfig, generate_deck

    nested = GenConfig(max_subckts=3, max_instances=3, p_nested=0.9, p_mfactor=0.5)
    dirty = GenConfig(max_subckts=2, p_nested=0.5, p_mfactor=0.5, n_dirt=3)
    decks = {}
    for seed in range(6):
        deck = generate_deck(seed, nested)
        decks[f"generated-nested-{seed}"] = (deck.text, deck.mode)
    for seed in range(2):
        deck = generate_deck(100 + seed, dirty)
        decks[f"generated-dirty-{100 + seed}"] = (deck.text, deck.mode)
    return decks


def _perturbed_decks() -> dict[str, tuple[str, str]]:
    from repro.datasets.ota import generate_ota, ota_variants
    from repro.datasets.perturb import perturb_all, split_parallel, stack_series
    from repro.datasets.rf import generate_receiver, receiver_variants
    from repro.spice.writer import write_circuit

    items = [
        generate_ota(spec, name=f"ota{i}")
        for i, spec in enumerate(ota_variants(3, seed="frontend-golden"))
    ]
    items += [
        generate_receiver(spec, name=f"rx{i}")
        for i, spec in enumerate(receiver_variants(2, seed="frontend-golden"))
    ]
    decks = {}
    for item in items:
        for seed in (0, 1):
            perturbed = perturb_all(item, seed=seed)
            decks[f"perturbed-{item.name}-{seed}"] = (
                write_circuit(perturbed.circuit),
                "strict",
            )
        # Every transistor split, then every half stacked: the merges
        # only reach a fixpoint over several rounds.
        heavy = stack_series(split_parallel(item, fraction=1.0), fraction=1.0)
        decks[f"perturbed-{item.name}-all"] = (write_circuit(heavy.circuit), "strict")
    return decks


def _system_decks() -> dict[str, tuple[str, str]]:
    from repro.datasets.systems import phased_array, switched_cap_filter
    from repro.spice.writer import write_circuit

    return {
        "system-switched_cap_filter": (
            write_circuit(switched_cap_filter().circuit),
            "strict",
        ),
        "system-phased_array_2ch": (
            write_circuit(phased_array(n_channels=2).circuit),
            "strict",
        ),
    }


DECK_SOURCES: dict[str, Callable[[], dict[str, tuple[str, str]]]] = {
    "example": _example_decks,
    "corpus": _corpus_decks,
    "generated": _generated_decks,
    "perturbed": _perturbed_decks,
    "system": _system_decks,
    "lenient": lambda: {"lenient-mixed_case": (MIXED_CASE_LENIENT_DECK, "lenient")},
}


def frontend_decks() -> dict[str, tuple[str, str]]:
    """Every golden deck: name -> (SPICE text, parse mode)."""
    decks: dict[str, tuple[str, str]] = {}
    for source in DECK_SOURCES.values():
        decks.update(source())
    return decks


# -- canonical dumps ----------------------------------------------------


def _number(value) -> str | None:
    return None if value is None else repr(value)


def _params(params) -> list:
    return [[key, _number(value)] for key, value in params]


def _device(dev) -> list:
    return [
        dev.name,
        dev.kind.value,
        [[terminal, net] for terminal, net in dev.pins],
        _number(dev.value),
        dev.model,
        _params(dev.params),
    ]


def _circuit(circuit) -> dict:
    return {
        "name": circuit.name,
        "ports": list(circuit.ports),
        "devices": [_device(d) for d in circuit.devices],
        "instances": [
            [inst.name, inst.subckt, list(inst.nets), _params(inst.params)]
            for inst in circuit.instances
        ],
    }


def _netlist(netlist) -> dict:
    return {
        "title": netlist.title,
        "top": _circuit(netlist.top),
        "subckts": [[key, _circuit(c)] for key, c in netlist.subckts.items()],
        "models": [[name, kind.value] for name, kind in netlist.models.items()],
        "globals": list(netlist.globals_),
    }


def _tree(tree) -> dict:
    return {
        "top": tree.top,
        "globals": list(tree.globals_),
        "definitions": [
            [key, d.name, d.fingerprint, list(d.ports), d.n_devices, d.n_subinstances]
            for key, d in tree.definitions.items()
        ],
        "instances": [
            [
                r.path,
                r.parent,
                r.definition,
                r.fingerprint,
                _number(r.multiplier),
                [[port, net] for port, net in r.bindings],
            ]
            for r in tree.instances
        ],
    }


def _report(report) -> dict:
    return {
        "absorbed": [[name, list(names)] for name, names in report.absorbed.items()],
        "removed": [[name, reason] for name, reason in report.removed],
    }


def _graph(graph) -> dict:
    return {
        "elements": [d.name for d in graph.elements],
        "nets": list(graph.nets),
        "edges": [[e.element, e.net, e.label] for e in graph.edges],
        "net_index": [[net, i] for net, i in graph.net_index.items()],
        "element_index": [[name, i] for name, i in graph.element_index.items()],
    }


def _diagnostics(records) -> list:
    return [
        [d.severity, d.message, d.card, d.line, d.end_line, d.hint] for d in records
    ]


def _digest(dump) -> str:
    text = json.dumps(dump, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def frontend_dumps(text: str, mode: str) -> dict:
    """Canonical dump of every front-end output for one deck."""
    from repro.graph.bipartite import CircuitGraph
    from repro.spice.flatten import flatten, flatten_hierarchical
    from repro.spice.parser import parse_netlist
    from repro.spice.preprocess import preprocess

    lenient = mode == "lenient"
    netlist = parse_netlist(text, mode=mode)
    flat_diagnostics: list | None = [] if lenient else None
    flat = flatten(netlist, diagnostics=flat_diagnostics)
    hier_diagnostics: list | None = [] if lenient else None
    hier_flat, tree = flatten_hierarchical(netlist, diagnostics=hier_diagnostics)
    reduced, report = preprocess(flat)
    graph = CircuitGraph.from_circuit(reduced)
    return {
        "parse": _netlist(netlist),
        "flatten": _circuit(flat),
        "hier": {"circuit": _circuit(hier_flat), "tree": _tree(tree)},
        "preprocess": {"circuit": _circuit(reduced), "report": _report(report)},
        "graph": _graph(graph),
        "diagnostics": {
            "parse": _diagnostics(netlist.diagnostics),
            "flatten": _diagnostics(flat_diagnostics or []),
            "hier": _diagnostics(hier_diagnostics or []),
        },
    }


def frontend_digests(text: str, mode: str) -> dict:
    """Per-output sha256 of :func:`frontend_dumps`, plus the mode."""
    dumps = frontend_dumps(text, mode)
    return {"mode": mode, **{key: _digest(dump) for key, dump in dumps.items()}}


DECKS = frontend_decks()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FRONTEND_GOLDEN.read_text())


def test_every_deck_has_a_frontend_golden(golden):
    assert sorted(golden) == sorted(DECKS), f"stale front-end golden; run {REGENERATE}"


@pytest.mark.parametrize("name", sorted(DECKS))
def test_frontend_matches_golden(golden, name):
    text, mode = DECKS[name]
    diff = first_difference(frontend_digests(text, mode), golden[name])
    assert diff is None, (
        f"{name}: front-end output differs from {FRONTEND_GOLDEN.name} at {diff}; "
        f"if the change is intended, regenerate with: {REGENERATE}"
    )


def test_lenient_deck_pins_every_diagnostic_kind():
    dumps = frontend_dumps(MIXED_CASE_LENIENT_DECK, "lenient")
    messages = [d[1] for d in dumps["diagnostics"]["parse"]]
    assert "continuation with no previous line" in messages
    assert "dangling '=' in 'R1 A B 1K ='" in messages
    assert "dangling '=' in '= R9 a b 1k'" in messages
    assert "dangling '=' in ' ='" in messages
    assert "unsupported device card 'qbogus'" in messages
    assert "unsupported card '.foo'" in messages
    assert ".ends without .subckt" in messages
    assert "unterminated .subckt 'open'" in messages
    assert [d[1] for d in dumps["diagnostics"]["flatten"]] == [
        "undefined subcircuit: nosuch"
    ]


if __name__ == "__main__":
    payload = {name: frontend_digests(*DECKS[name]) for name in sorted(DECKS)}
    FRONTEND_GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {FRONTEND_GOLDEN} ({len(payload)} decks)")
