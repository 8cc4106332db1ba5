"""SPICE numeric literals.

SPICE numbers are floats with an optional engineering suffix and an
optional trailing unit string that simulators ignore (``10uF`` means
``10e-6``).  Suffixes are case-insensitive; ``m`` is milli and ``meg``
is mega, the classic trap this module gets right.
"""

from __future__ import annotations

import re

from repro.exceptions import SpiceSyntaxError

#: Engineering suffixes recognized by SPICE.  A number's letters are
#: looked up by their first three (``meg``/``mil``) before their first
#: one, so that ``meg``/``mil`` are not mis-read as ``m``.
_SCALES: dict[str, float] = {
    "meg": 1e6,
    "mil": 25.4e-6,
    "t": 1e12,
    "g": 1e9,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
    "a": 1e-18,
}

_NUMBER_RE = re.compile(
    r"""^\s*
        (?P<mantissa>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
        (?P<rest>[a-zA-Z]*)
        \s*$""",
    re.VERBOSE,
)


def spice_number_or_none(text: str) -> float | None:
    """The value of a SPICE numeric literal, or None if ``text`` is not one.

    One regex match decides both questions, so callers that would ask
    :func:`is_spice_number` and then :func:`parse_spice_number` match
    once.  A bare mantissa (``2e-06``) needs no suffix lookup.
    """
    match = _NUMBER_RE.match(text)
    if match is None:
        return None
    mantissa, rest = match.groups()
    if not rest:
        return float(mantissa)
    rest = rest.lower()
    scale = _SCALES.get(rest[:3]) or _SCALES.get(rest[0])
    # No recognized suffix: the letters are a unit tag (e.g. "V", "Ohm").
    return float(mantissa) * scale if scale else float(mantissa)


def parse_spice_number(text: str) -> float:
    """Parse a SPICE numeric literal into a float.

    >>> parse_spice_number("2.2u")
    2.2e-06
    >>> parse_spice_number("10meg")
    10000000.0
    >>> parse_spice_number("1.5kOhm")
    1500.0

    Raises :class:`SpiceSyntaxError` if ``text`` is not numeric.
    """
    value = spice_number_or_none(text)
    if value is None:
        raise SpiceSyntaxError(f"not a SPICE number: {text!r}")
    return value


def is_spice_number(text: str) -> bool:
    """Return True if ``text`` parses as a SPICE numeric literal."""
    return spice_number_or_none(text) is not None


def format_spice_number(value: float) -> str:
    """Format a float with the most compact engineering suffix.

    Chosen so that ``parse_spice_number(format_spice_number(x))`` is
    within floating-point rounding of ``x``.

    >>> format_spice_number(2.2e-06)
    '2.2u'
    """
    if value == 0:
        return "0"
    magnitude = abs(value)
    for suffix, scale in (
        ("t", 1e12), ("meg", 1e6), ("k", 1e3), ("", 1.0),
        ("m", 1e-3), ("u", 1e-6), ("n", 1e-9), ("p", 1e-12),
        ("f", 1e-15), ("a", 1e-18),
    ):
        if magnitude >= scale:
            scaled = value / scale
            text = f"{scaled:.6g}"
            return f"{text}{suffix}"
    return f"{value:.6g}"
