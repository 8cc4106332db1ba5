"""The front end's fast paths against reference copies of the code they replaced.

The tokenizer lower-cases each line once and skips the ``=``-gluing
pass when ``split()`` already yields glued ``name=value`` tokens; the
number parser runs one regex match per token and skips the suffix
scan for a bare mantissa.  Both must agree with the slow versions
kept here (the tokenizer followed by the per-token lower-casing the
lexer used to do) on every input: the same tokens, values (bit for
bit) and errors.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import SpiceSyntaxError
from repro.spice.lexer import _tokenize, lex
from repro.spice.units import is_spice_number, parse_spice_number, spice_number_or_none

pytestmark = pytest.mark.property


# -- reference tokenizer: split, glue ``a = b``, lower-case each token --


def reference_tokenize(line: str) -> list[str]:
    raw = line.replace("(", " ").replace(")", " ").replace("=", " = ").split()
    tokens: list[str] = []
    i = 0
    while i < len(raw):
        if raw[i] == "=":
            if not tokens or i + 1 >= len(raw):
                raise SpiceSyntaxError(
                    f"dangling '=' in {line!r}",
                    hint="parameter assignments need both a name and a "
                    "value (name=value)",
                )
            tokens[-1] = f"{tokens[-1]}={raw[i + 1]}"
            i += 2
        else:
            tokens.append(raw[i])
            i += 1
    return [t.lower() for t in tokens]


def _outcome(function, text):
    try:
        return ("ok", function(text))
    except SpiceSyntaxError as exc:
        return ("error", exc.message, exc.hint, exc.line)


#: Pieces that stress the gluing rules: ``=`` at either end of a
#: token, ``==``, spaced ``=``, parentheses, comment markers, tabs,
#: non-ASCII spaces, mixed case, and case mappings that depend on
#: context (final sigma) or change length (dotted capital I).
_LINE_PIECES = st.sampled_from(
    [
        "m1", "W", "w", "=", "==", " = ", "= ", " =", "(", ")", " ( ", "$", ";",
        "*", "+", "1u", "2E-06", "A=B", "a=b=c", "{wn}", "'lmin'", " ", "  ",
        "\t", "\x0b", "\u00a0", "\u2003", "Σ", "ΑΣ", "ς", "İ", "K", "Meg", "dc",
    ]
)
_LINES = st.one_of(
    st.lists(_LINE_PIECES, max_size=12).map("".join),
    st.text(alphabet="aBmW1u=() \t$;*+Σ.", max_size=30),
)


@given(_LINES)
@settings(max_examples=400, deadline=None)
@example("m1 d g s b nmos w=2e-06 l=1e-07")
@example("M2 OUT in VDD! VDD! pch w = {wp} l='lmin'")
@example("R1 A B 1K =")
@example("= R9 a b 1k")
@example("c3 a b 1p==2")
@example("V2 In 0 SIN(0 1 1G)")
@example("x=y = z")
@example("ΑΣ=Β ΑΣ = Β")
def test_tokenize_matches_reference(line):
    assert _outcome(_tokenize, line) == _outcome(reference_tokenize, line)


def test_lenient_lex_quotes_the_line_as_written():
    diagnostics: list = []
    (line,) = lex("R1 A B 1K =\nR2 A B 2K\n", diagnostics=diagnostics)
    assert line.tokens == ("r2", "a", "b", "2k")
    assert [d.message for d in diagnostics] == ["dangling '=' in 'R1 A B 1K ='"]


# -- reference number parser: one regex, then an 11-way suffix scan -----

_REFERENCE_RE = re.compile(
    r"""^\s*
        (?P<mantissa>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
        (?P<rest>[a-zA-Z]*)
        \s*$""",
    re.VERBOSE,
)
_REFERENCE_SUFFIXES = (
    ("meg", 1e6),
    ("mil", 25.4e-6),
    ("t", 1e12),
    ("g", 1e9),
    ("k", 1e3),
    ("m", 1e-3),
    ("u", 1e-6),
    ("n", 1e-9),
    ("p", 1e-12),
    ("f", 1e-15),
    ("a", 1e-18),
)


def reference_number(text: str) -> float | None:
    match = _REFERENCE_RE.match(text)
    if match is None:
        return None
    value = float(match.group("mantissa"))
    rest = match.group("rest").lower()
    for suffix, scale in _REFERENCE_SUFFIXES:
        if rest.startswith(suffix):
            return value * scale
    return value


def _bits(value: float | None) -> str | None:
    """``repr`` tells -0.0 from 0.0 and is exact for every float."""
    return None if value is None else repr(value)


_NUMBERS = st.builds(
    lambda space, sign, whole, point, frac, exp, tail, trail: (
        f"{space}{sign}{whole}{point}{frac}{exp}{tail}{trail}"
    ),
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "+", "-"]),
    st.sampled_from(["", "0", "1", "12", "007"]),
    st.sampled_from(["", "."]),
    st.sampled_from(["", "5", "25"]),
    st.sampled_from(["", "e3", "E-6", "e+2", "e", "e-", "E"]),
    st.sampled_from(
        ["", "k", "K", "meg", "MEG", "Meg", "mil", "m", "me", "mi", "u", "n", "p",
         "f", "F", "uF", "a", "t", "g", "Ohm", "kOhm", "nH", "x", "_0", "1", "e5"]
    ),
    st.sampled_from(["", " ", "\t ", "x", "$"]),
)


_NUMBER_TEXT = st.text(alphabet="0123456789.+-eEkKmMgGuUnNpPfaAtTiIlLx _\t", max_size=12)


@given(st.one_of(_NUMBERS, _NUMBER_TEXT))
@settings(max_examples=500, deadline=None)
@example("1e")
@example("1_0")
@example("inf")
@example("nan")
@example("-0")
@example("10meg")
@example("5mil")
@example("1.5kOhm")
@example("1e999")
def test_number_parsing_matches_reference(text):
    want = reference_number(text)
    assert _bits(spice_number_or_none(text)) == _bits(want)
    assert is_spice_number(text) is (want is not None)
    if want is None:
        with pytest.raises(SpiceSyntaxError, match="not a SPICE number"):
            parse_spice_number(text)
    else:
        assert _bits(parse_spice_number(text)) == _bits(want)
