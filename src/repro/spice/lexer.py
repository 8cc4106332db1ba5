"""SPICE deck tokenizer.

Handles the line-oriented SPICE surface syntax so the parser can work on
clean logical lines:

* ``+`` continuation lines are joined to their predecessor,
* ``*`` full-line comments and ``$``/``;`` trailing comments are dropped,
* everything is lower-cased (SPICE is case-insensitive, and so is
  net/device identity in this package, matching common simulators),
* ``name=value`` parameter tokens are kept as single tokens.

Every other line is a card.  There is no implicit title line: a
deck's title goes on a ``*`` comment or a ``.title`` card, and a plain
first line such as ``Two stage amp`` is read as a device card (and
rejected: ``unsupported device card 'two'``).

Each :class:`LogicalLine` records the 1-based physical line span it was
assembled from (``number`` … ``end_number``), so parse diagnostics can
point at the exact lines of a continuation-joined card.

Passing a ``diagnostics`` list to :func:`lex` switches on error
recovery: malformed physical lines are skipped and recorded as
:class:`~repro.runtime.resilience.Diagnostic` entries instead of
aborting the whole deck on the first bad character.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SpiceSyntaxError


@dataclass(frozen=True)
class LogicalLine:
    """One continuation-joined, comment-stripped SPICE statement."""

    number: int  # 1-based line number of the first physical line
    tokens: tuple[str, ...]
    end_number: int = 0  # 1-based last physical line (0 = same as number)

    @property
    def card(self) -> str:
        """The leading token, lower-case (e.g. ``m1``, ``.subckt``)."""
        return self.tokens[0]

    @property
    def last_number(self) -> int:
        """Last physical line of the statement (continuations included)."""
        return self.end_number or self.number


def _strip_comment(line: str) -> str:
    """Remove ``$`` and ``;`` trailing comments."""
    for marker in ("$", ";"):
        idx = line.find(marker)
        if idx >= 0:
            line = line[:idx]
    return line


def _tokenize(line: str) -> list[str]:
    """Split a logical line into lower-case tokens, gluing ``a = b`` into ``a=b``.

    SPICE permits spaces around ``=`` in parameter assignments; the
    parser is simpler if each assignment is exactly one token.
    Waveform parentheses (``SIN(0 1 1G)``) act as plain separators so
    the shape keyword and its numbers tokenize individually.  The line
    is lower-cased once, before it is split; a diagnostic quotes it as
    written.
    """
    text = line.lower().replace("(", " ").replace(")", " ")
    tokens = text.split()
    if "=" not in text:
        return tokens
    spaced = f" {' '.join(tokens)} "
    if " =" not in spaced and "= " not in spaced and "==" not in spaced:
        # No token starts or ends with "=" or holds "==": every "="
        # already sits between a name and a value inside one token
        # (``w=2e-06``), so gluing would change nothing.
        return tokens
    raw = text.replace("=", " = ").split()
    tokens = []
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
    return tokens


def lex(text: str, diagnostics: list | None = None) -> list[LogicalLine]:
    """Tokenize a SPICE deck into logical lines.

    Every line that is not blank, a comment or a continuation starts a
    card.  There is no implicit title line: a deck's title goes on a
    ``*`` comment or a ``.title`` card.

    With ``diagnostics`` given (a list), tokenization errors on a
    physical line are recorded there and the line is skipped — lenient
    mode.  Without it, the first error raises
    :class:`~repro.exceptions.SpiceSyntaxError` with its line number.
    """
    physical = text.splitlines()
    logical: list[LogicalLine] = []
    # The statement being assembled: its tokens (None between
    # statements) and its first and last physical line.
    pending: list[str] | None = None
    first = last = 0

    def tokens_of(fragment: str, number: int) -> list[str] | None:
        try:
            return _tokenize(fragment)
        except SpiceSyntaxError as exc:
            if diagnostics is None:
                raise SpiceSyntaxError(exc.message, number, hint=exc.hint)
            from repro.runtime.resilience import diagnostic_from_error

            diagnostics.append(diagnostic_from_error(exc, line=number))
            return None

    for number, line in enumerate(physical, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("*"):
            continue
        stripped = _strip_comment(stripped).strip()
        if not stripped:
            continue
        if stripped.startswith("+"):
            if pending is None:
                error = SpiceSyntaxError(
                    "continuation with no previous line",
                    number,
                    hint="a '+' line must follow the card it continues",
                )
                if diagnostics is None:
                    raise error
                from repro.runtime.resilience import diagnostic_from_error

                diagnostics.append(diagnostic_from_error(error))
                continue
            extra = tokens_of(stripped[1:], number)
            if extra is not None:
                pending.extend(extra)
                last = number
            continue
        if pending is not None:
            logical.append(LogicalLine(first, tuple(pending), end_number=last))
        pending = tokens_of(stripped, number) or None
        first = last = number
    if pending is not None:
        logical.append(LogicalLine(first, tuple(pending), end_number=last))
    return logical
