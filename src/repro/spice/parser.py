"""SPICE netlist parser.

Supports the subset of SPICE needed for transistor-level analog decks:

* device cards: ``M`` (MOSFET), ``R``, ``C``, ``L``, ``V``, ``I``, ``D``
* subcircuits: ``.subckt`` / ``.ends`` with nesting
* instances: ``X``
* ``.model`` cards (only the polarity is retained)
* ``.global``, ``.title``, ``.end``, ``.param`` (constant params only;
  assignments resolve in deck order, so each sees every one before it,
  on its own card and on earlier ones, while a forward reference stays
  unresolved; device cards see the final table wherever they sit)
* ignored-but-accepted analysis/control cards (``.tran``, ``.op``,
  ``.dc``, ``.ac``, ``.option(s)``, ``.ic``, ``.temp``, ``.lib``,
  ``.include`` *without* file resolution)

MOS polarity resolution: an ``M`` card's model name is looked up in the
``.model`` table; if absent, names containing ``p`` before ``mos``/at
start (``pmos``, ``pch``, ``pfet``) are PMOS, names with ``n`` are NMOS.

Error handling comes in two modes.  ``mode="strict"`` (the default)
raises :class:`~repro.exceptions.SpiceSyntaxError` on the first
malformed card.  ``mode="lenient"`` keeps parsing: every problem
becomes a structured :class:`~repro.runtime.resilience.Diagnostic`
(severity, offending card, 1-based line span, message, fix hint) on the
returned :attr:`Netlist.diagnostics` list, and the offending card is
skipped — real-world decks from a million users are messy, and a batch
service must report *all* the problems of a deck in one round trip, not
one per upload.
"""

from __future__ import annotations

import re

from repro.exceptions import SpiceSyntaxError
from repro.spice.lexer import LogicalLine, lex
from repro.spice.netlist import Circuit, Device, DeviceKind, Instance, Netlist
from repro.spice.units import spice_number_or_none

_PMOS_NAME_RE = re.compile(r"^(p|.*p(mos|ch|fet))", re.IGNORECASE)
_NMOS_NAME_RE = re.compile(r"^(n|.*n(mos|ch|fet))", re.IGNORECASE)

#: Dot cards accepted and skipped (analysis/control statements).
_IGNORED_CARDS = frozenset(
    {".tran", ".op", ".dc", ".ac", ".noise", ".option", ".options", ".ic",
     ".temp", ".lib", ".include", ".inc", ".print", ".plot", ".probe",
     ".save", ".meas", ".measure", ".nodeset", ".backanno"}
)


def _resolve_value(raw: str, table: dict[str, float] | None) -> float | None:
    """Numeric literal, ``{name}``/``'name'`` reference, or bare name."""
    value = spice_number_or_none(raw)
    if value is not None or table is None:
        return value
    return table.get(raw.strip("{}'").lower())


def _split_params(
    tokens: tuple[str, ...], table: dict[str, float] | None = None
) -> tuple[list[str], list[tuple[str, float]]]:
    """Separate positional tokens from trailing ``k=v`` parameter tokens.

    Values may be numeric literals or references to ``.param``
    definitions (``w={wbig}``, ``w='wbig'``, or ``w=wbig``); references
    resolve through ``table``.  Unresolvable expressions are dropped —
    recognition only uses numeric geometry.
    """
    positional: list[str] = []
    params: list[tuple[str, float]] = []
    for token in tokens:
        if "=" in token:
            key, _, raw = token.partition("=")
            if not key or not raw:
                raise SpiceSyntaxError(
                    f"malformed parameter {token!r}",
                    hint="parameters are written name=value",
                )
            value = _resolve_value(raw, table)
            if value is not None:
                params.append((key.lower(), value))
        else:
            positional.append(token)
    return positional, params


class _ParserState:
    """Mutable state threaded through the card handlers."""

    def __init__(self) -> None:
        self.netlist = Netlist()
        self.stack: list[Circuit] = [self.netlist.top]
        self.param_table: dict[str, float] = {}

    @property
    def scope(self) -> Circuit:
        return self.stack[-1]


def _mos_kind(model: str, models: dict[str, DeviceKind]) -> DeviceKind:
    """Resolve MOS polarity from the model table or from the model name."""
    if model in models:
        return models[model]
    if _PMOS_NAME_RE.match(model):
        return DeviceKind.PMOS
    if _NMOS_NAME_RE.match(model):
        return DeviceKind.NMOS
    raise SpiceSyntaxError(
        f"cannot infer MOS polarity from model {model!r}",
        hint="add a '.model <name> nmos|pmos' card or use a model name "
        "containing nmos/pmos (nch/pch, nfet/pfet)",
    )


def _parse_mos(line: LogicalLine, state: _ParserState) -> Device:
    positional, params = _split_params(line.tokens, state.param_table)
    if len(positional) < 6:
        raise SpiceSyntaxError(
            f"MOS card needs name + 4 nets + model, got {positional}",
            line.number,
            hint="expected: Mname drain gate source body model [k=v ...]",
        )
    name, drain, gate, source, body, model = positional[:6]
    kind = _mos_kind(model, state.netlist.models)
    return Device(
        name=name,
        kind=kind,
        pins=(("d", drain), ("g", gate), ("s", source), ("b", body)),
        model=model,
        params=tuple(params),
    )


def _parse_two_terminal(
    line: LogicalLine, kind: DeviceKind, state: _ParserState
) -> Device:
    positional, params = _split_params(line.tokens, state.param_table)
    if len(positional) < 3:
        raise SpiceSyntaxError(
            f"{kind.value} card needs name + 2 nets, got {positional}",
            line.number,
            hint=f"expected: {kind.value}name net+ net- [value|model]",
        )
    name, pos, neg = positional[:3]
    value: float | None = None
    model: str | None = None
    # The 4th positional token may be a value or a model name; for sources
    # it may also be a DC spec such as "dc 1.8".
    extras = positional[3:]
    i = 0
    while i < len(extras):
        token = extras[i]
        if token == "dc" and i + 1 < len(extras):
            number = spice_number_or_none(extras[i + 1])
            if number is not None:
                value = number
                i += 2
                continue
        number = spice_number_or_none(token)
        if number is not None:
            if value is None:
                value = number
        elif model is None:
            model = token
        i += 1
    for key, val in params:
        if key in ("r", "c", "l") and value is None:
            value = val
    if value is None and kind.is_passive:
        # Parameterized value we could not evaluate; use a neutral 1.0 so
        # downstream feature bucketing still works.
        value = 1.0
    return Device(
        name=name,
        kind=kind,
        pins=(("p", pos), ("n", neg)),
        value=value,
        model=model,
        params=tuple(params),
    )


def _parse_instance(line: LogicalLine, state: _ParserState) -> Instance:
    positional, params = _split_params(line.tokens, state.param_table)
    if len(positional) < 2:
        raise SpiceSyntaxError(
            f"X card needs name + subckt, got {positional}",
            line.number,
            hint="expected: Xname net1 ... netN subckt_name",
        )
    name = positional[0]
    subckt = positional[-1]
    nets = tuple(positional[1:-1])
    return Instance(name=name, subckt=subckt, nets=nets, params=tuple(params))


def _parse_model(line: LogicalLine, state: _ParserState) -> None:
    tokens = line.tokens
    if len(tokens) < 3:
        raise SpiceSyntaxError(
            ".model card needs name and type",
            line.number,
            hint="expected: .model <name> nmos|pmos|r|res|c|d [params]",
        )
    name, mtype = tokens[1], tokens[2]
    kind_map = {
        "nmos": DeviceKind.NMOS,
        "pmos": DeviceKind.PMOS,
        "r": DeviceKind.RESISTOR,
        "res": DeviceKind.RESISTOR,
        "c": DeviceKind.CAPACITOR,
        "d": DeviceKind.DIODE,
    }
    if mtype in kind_map:
        state.netlist.models[name] = kind_map[mtype]


def _parse_subckt_header(line: LogicalLine, state: _ParserState) -> None:
    positional, _params = _split_params(line.tokens)
    if len(positional) < 2:
        raise SpiceSyntaxError(
            ".subckt needs a name",
            line.number,
            hint="expected: .subckt <name> [port ...]",
        )
    name = positional[1]
    ports = tuple(positional[2:])
    circuit = Circuit(name=name, ports=ports)
    state.netlist.define(circuit)
    state.stack.append(circuit)


_DEVICE_DISPATCH: dict[str, DeviceKind] = {
    "r": DeviceKind.RESISTOR,
    "c": DeviceKind.CAPACITOR,
    "l": DeviceKind.INDUCTOR,
    "v": DeviceKind.VSOURCE,
    "i": DeviceKind.ISOURCE,
    "d": DeviceKind.DIODE,
}


#: Safety bound on nested .include depth.
_MAX_INCLUDE_DEPTH = 16


def _expand_includes(
    text: str, include_dir, depth: int = 0, diagnostics: list | None = None
) -> str:
    """Splice ``.include``/``.inc``/``.lib`` file contents inline.

    Paths resolve relative to ``include_dir``; quotes around the path
    are stripped.  Missing files and include cycles raise
    :class:`SpiceSyntaxError` whose message names the resolved path
    that was tried and the ``include_dir`` it was resolved against —
    or, with ``diagnostics`` given, are recorded there and skipped.
    """
    from pathlib import Path

    if depth > _MAX_INCLUDE_DEPTH:
        raise SpiceSyntaxError(
            f".include nesting deeper than {_MAX_INCLUDE_DEPTH} (cycle?)",
            hint="check the include files for a .include cycle",
        )

    def report(error: SpiceSyntaxError) -> None:
        if diagnostics is None:
            raise error
        from repro.runtime.resilience import diagnostic_from_error

        diagnostics.append(diagnostic_from_error(error))

    out: list[str] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        card = stripped.split()[0].lower() if stripped.split() else ""
        if card in (".include", ".inc", ".lib"):
            tokens = stripped.split()
            if len(tokens) < 2:
                report(
                    SpiceSyntaxError(
                        f"{card} without a path",
                        number,
                        hint=f"expected: {card} <path>",
                    )
                )
                continue
            rel = tokens[1].strip("\"'")
            path = Path(include_dir) / rel
            if not path.exists():
                report(
                    SpiceSyntaxError(
                        f"included file not found: {path} "
                        f"(from {tokens[1]!r}, include_dir={include_dir!s})",
                        number,
                        hint="check the path on the card and the "
                        "include_dir= argument",
                    )
                )
                continue
            included = path.read_text()
            out.append(
                _expand_includes(
                    included, path.parent, depth + 1, diagnostics=diagnostics
                )
            )
        else:
            out.append(raw)
    return "\n".join(out)


#: Recognized parse modes.
PARSE_MODES = ("strict", "lenient")


def parse_netlist(
    text: str, include_dir: str | None = None, mode: str = "strict"
) -> Netlist:
    """Parse a SPICE deck into a :class:`Netlist`.

    All names are lower-cased (SPICE is case-insensitive).
    ``include_dir`` enables ``.include`` resolution relative to that
    directory (without it, include cards are skipped like other
    analysis cards — the safe default for untrusted text).

    ``mode="strict"`` raises :class:`SpiceSyntaxError` with a line
    number on the first malformed card.  ``mode="lenient"`` collects
    every problem as a :class:`~repro.runtime.resilience.Diagnostic`
    on the returned netlist's :attr:`~Netlist.diagnostics` and keeps
    going: malformed cards are skipped, an unterminated ``.subckt`` is
    auto-closed, and the parse always returns whatever structure the
    deck still supports.
    """
    if mode not in PARSE_MODES:
        raise ValueError(f"mode must be one of {PARSE_MODES}, got {mode!r}")
    lenient = mode == "lenient"
    diagnostics: list | None = [] if lenient else None

    state = _ParserState()
    if include_dir is not None:
        text = _expand_includes(text, include_dir, diagnostics=diagnostics)
    lines = lex(text, diagnostics=diagnostics)

    def guarded(handler, line: LogicalLine) -> bool:
        """Run a card handler; in lenient mode convert errors to records.

        Returns False when the card was skipped.
        """
        try:
            handler(line)
            return True
        except SpiceSyntaxError as exc:
            if exc.line is None:
                # Raise sites below the card level (_mos_kind,
                # _split_params) don't know the line; stamp it here.
                exc = SpiceSyntaxError(exc.message, line.number, hint=exc.hint)
            if diagnostics is None:
                raise exc
            from repro.runtime.resilience import diagnostic_from_error

            diagnostics.append(
                diagnostic_from_error(
                    exc,
                    line=line.number,
                    end_line=line.last_number,
                    card=line.card,
                )
            )
            return False

    # .model and .param cards may appear after the devices that use
    # them; collect both in a first pass so polarity resolution and
    # parameter references always see the full tables.
    def first_pass_param(ln: LogicalLine) -> None:
        # In deck order: each assignment sees the ones before it, on
        # this card and on earlier ones.  A card that raises adds none.
        table = dict(state.param_table)
        for token in ln.tokens[1:]:
            _positional, params = _split_params((token,), table)
            table.update(params)
        state.param_table = table

    for line in lines:
        if line.card == ".model":
            guarded(lambda ln: _parse_model(ln, state), line)
        elif line.card == ".param":
            guarded(first_pass_param, line)

    def handle(line: LogicalLine) -> None:
        card = line.card
        if card.startswith("."):
            if card == ".subckt":
                _parse_subckt_header(line, state)
            elif card == ".ends":
                if len(state.stack) == 1:
                    raise SpiceSyntaxError(
                        ".ends without .subckt",
                        line.number,
                        hint="check the .subckt/.ends pairing",
                    )
                state.stack.pop()
            elif card == ".title":
                state.netlist.title = " ".join(line.tokens[1:])
            elif card == ".global":
                state.netlist.globals_ = state.netlist.globals_ + tuple(
                    line.tokens[1:]
                )
            elif card in (".end", ".model", ".param") or card in _IGNORED_CARDS:
                pass  # .model/.param handled in the first pass
            else:
                raise SpiceSyntaxError(
                    f"unsupported card {card!r}",
                    line.number,
                    hint="analysis cards (.tran/.ac/...) are skipped "
                    "automatically; remove or comment out anything else",
                )
            return

        leading = card[0]
        if leading == "m":
            state.scope.add(_parse_mos(line, state))
        elif leading == "x":
            state.scope.add(_parse_instance(line, state))
        elif leading in _DEVICE_DISPATCH:
            state.scope.add(
                _parse_two_terminal(line, _DEVICE_DISPATCH[leading], state)
            )
        else:
            raise SpiceSyntaxError(
                f"unsupported device card {card!r}",
                line.number,
                hint="supported device prefixes: M, R, C, L, V, I, D, X",
            )

    for line in lines:
        guarded(handle, line)

    if len(state.stack) != 1:
        error = SpiceSyntaxError(
            f"unterminated .subckt {state.scope.name!r}",
            lines[-1].last_number if lines else None,
            hint="add a matching .ends card",
        )
        if diagnostics is None:
            raise error
        from repro.runtime.resilience import diagnostic_from_error

        diagnostics.append(diagnostic_from_error(error, card=".subckt"))
        del state.stack[1:]  # auto-close so the netlist stays usable

    if diagnostics:
        state.netlist.diagnostics.extend(diagnostics)
    return state.netlist
