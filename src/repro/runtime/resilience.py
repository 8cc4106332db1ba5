"""Resilience primitives: diagnostics, failure reports, budgets, timeouts.

The north-star deployment ingests arbitrary user netlists at volume, so
the flow must survive messy input instead of dying on the first bad
card.  This module holds the vocabulary the rest of the package speaks:

* :class:`Diagnostic` — one structured parse/elaboration problem
  (severity, offending card, 1-based line span, message, fix hint).
  Lenient-mode parsing (``parse_netlist(..., mode="lenient")``) collects
  these instead of raising on the first error.
* :class:`FailureReport` — the per-item outcome of a batch run that
  failed: which pipeline stage died, the full exception chain, and any
  diagnostics gathered before the failure.  ``GanaPipeline.run_many``
  with ``on_error="report"`` yields these in place of results so one
  poisoned deck cannot sink a batch.
* :class:`Budget` — a step/wall-clock guard for worst-case-exponential
  searches (VF2, the annealing placer).  Exhaustion raises
  :class:`~repro.exceptions.BudgetExceeded` carrying partial results.
* :func:`time_limit` — a SIGALRM-based per-item wall-clock ceiling used
  by batch runs, so one pathological deck cannot stall a worker.
* :func:`stage` — a context manager that tags escaping exceptions with
  the pipeline stage they came from (for failure taxonomy) and records
  per-stage wall-clock.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.exceptions import BudgetExceeded, SpiceSyntaxError

#: Diagnostic severities.
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One structured problem found while ingesting a netlist."""

    severity: str  # ERROR or WARNING
    message: str
    card: str = ""  # offending card/token, e.g. ".foo" or "m1"
    line: int | None = None  # 1-based first physical line
    end_line: int | None = None  # 1-based last physical line (continuations)
    hint: str | None = None  # suggested fix, when we have one

    def format(self) -> str:
        """One-line human-readable rendering."""
        where = ""
        if self.line is not None:
            where = f"line {self.line}"
            if self.end_line is not None and self.end_line != self.line:
                where = f"lines {self.line}-{self.end_line}"
            where += ": "
        hint = f" (hint: {self.hint})" if self.hint else ""
        return f"{self.severity}: {where}{self.message}{hint}"

    def to_dict(self) -> dict:
        return {
            "severity": self.severity,
            "message": self.message,
            "card": self.card,
            "line": self.line,
            "end_line": self.end_line,
            "hint": self.hint,
        }


def diagnostic_from_error(
    exc: Exception,
    line: int | None = None,
    end_line: int | None = None,
    card: str = "",
) -> Diagnostic:
    """Convert a raised parse/elaboration error into a record.

    :class:`SpiceSyntaxError` contributes its raw message, line, and fix
    hint; anything else is stringified as-is.
    """
    if isinstance(exc, SpiceSyntaxError):
        return Diagnostic(
            severity=ERROR,
            message=exc.message,
            card=card,
            line=exc.line if exc.line is not None else line,
            end_line=end_line,
            hint=exc.hint,
        )
    return Diagnostic(
        severity=ERROR,
        message=str(exc) or repr(exc),
        card=card,
        line=line,
        end_line=end_line,
    )


@dataclass(frozen=True)
class FailureReport:
    """Structured outcome of one failed batch item.

    Everything is plain data (strings/tuples) so reports cross process
    boundaries — a pool worker builds one and pickles it back.
    """

    stage: str  # pipeline stage that failed ("parse", "gcn", ...)
    error: str  # proximate error, "ExcType: message"
    exception_chain: tuple[str, ...] = ()  # proximate first, root cause last
    diagnostics: tuple[Diagnostic, ...] = ()
    index: int | None = None  # position in the input batch
    name: str = ""  # the item's system name, when given
    traceback: str = ""  # formatted traceback of the proximate error
    #: Partial profile of the stages finished before the failure (plain
    #: dict, same shape as ``PipelineResult.profile``), stamped by the
    #: staged runner on every escaping exception; survives pickling
    #: across the batch pool.  ``None`` when the failure escaped no
    #: runner, as for a ``stage="worker"`` crash.
    profile: dict | None = None

    @property
    def ok(self) -> bool:
        return False

    def summary(self) -> str:
        """One-line rendering for logs and the CLI."""
        label = self.name or (
            f"item {self.index}" if self.index is not None else "item"
        )
        return f"{label}: failed in stage {self.stage!r}: {self.error}"


def exception_chain(exc: BaseException) -> tuple[str, ...]:
    """``__cause__``/``__context__`` chain as strings, proximate first."""
    chain: list[str] = []
    seen: set[int] = set()
    current: BaseException | None = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        chain.append(f"{type(current).__name__}: {current}")
        current = current.__cause__ or current.__context__
    return tuple(chain)


def failure_report(
    exc: BaseException, index: int | None = None, name: str = ""
) -> FailureReport:
    """Build a :class:`FailureReport` from an escaped exception.

    The failing stage, any pre-failure diagnostics, and the partial
    profile come from the ``_gana_stage`` / ``_gana_diagnostics`` /
    ``_gana_profile`` attributes the :func:`stage` guard (and the
    staged runner) stamp onto escaping exceptions; ``BaseException``
    pickles its ``__dict__``, so the attributes survive the pool.
    """
    diagnostics = list(getattr(exc, "_gana_diagnostics", ()) or ())
    if isinstance(exc, SpiceSyntaxError) and not diagnostics:
        diagnostics.append(diagnostic_from_error(exc))
    return FailureReport(
        stage=getattr(exc, "_gana_stage", "unknown"),
        error=f"{type(exc).__name__}: {exc}",
        exception_chain=exception_chain(exc),
        diagnostics=tuple(diagnostics),
        index=index,
        name=name,
        traceback="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
        profile=getattr(exc, "_gana_profile", None),
    )


def worker_crash_report(
    exc: BaseException, index: int | None = None, name: str = ""
) -> FailureReport:
    """Build the :class:`FailureReport` for a quarantined poison item.

    A worker that dies outright (segfault, ``os._exit``, OOM kill)
    never gets to build its own report — the parent only sees the
    executor's ``BrokenProcessPool``.  This wraps that parent-side
    exception in the standard report shape, with stage ``"worker"``
    marking that the process itself was lost rather than any pipeline
    stage failing.
    """
    return FailureReport(
        stage="worker",
        error=f"{type(exc).__name__}: {exc}",
        exception_chain=exception_chain(exc),
        diagnostics=(
            Diagnostic(
                severity=ERROR,
                message=(
                    "worker process died while running this item; the item "
                    "was quarantined and the rest of the batch completed"
                ),
                card=name or "worker",
                hint=(
                    "the input likely triggers a native-level crash or "
                    "out-of-memory kill; rerun it alone under a memory/"
                    "time budget to reproduce"
                ),
            ),
        ),
        index=index,
        name=name,
    )


@contextmanager
def stage(name: str, diagnostics: list[Diagnostic] | None = None):
    """Tag escaping exceptions with the pipeline stage they came from.

    ``name`` is a plain string or a
    :class:`repro.core.stages.StageName` member (the canonical stage
    vocabulary) — the tag is always stored as its string value.  The
    innermost tag wins (set only if absent), so nesting a fine
    ``stage("parse")`` inside a coarse ``stage("preprocess")`` yields
    ``parse`` as the failure stage.  ``diagnostics`` gathered before
    the failure ride along on the exception for :func:`failure_report`.
    """
    name = getattr(name, "value", name)
    try:
        yield
    except Exception as exc:
        if not hasattr(exc, "_gana_stage"):
            exc._gana_stage = name
        if diagnostics is not None and not hasattr(exc, "_gana_diagnostics"):
            exc._gana_diagnostics = tuple(diagnostics)
        raise


@dataclass
class Budget:
    """Step/wall-clock guard for potentially unbounded searches.

    Call :meth:`tick` once per unit of work; it raises
    :class:`~repro.exceptions.BudgetExceeded` when either limit is
    crossed.  One budget may be shared across several searches (e.g.
    every template of a primitive-matching pass) so the *total* work is
    bounded, not just each piece.
    """

    max_steps: int | None = None
    max_seconds: float | None = None
    steps: int = 0
    started: float = field(default_factory=time.monotonic)

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def exceeded(self) -> bool:
        """Non-raising check."""
        if self.max_steps is not None and self.steps > self.max_steps:
            return True
        if self.max_seconds is not None and self.elapsed > self.max_seconds:
            return True
        return False

    def tick(self, n: int = 1, what: str = "search") -> None:
        self.steps += n
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceeded(
                f"{what} exceeded its step budget "
                f"({self.steps} > {self.max_steps})",
                steps=self.steps,
                elapsed=self.elapsed,
            )
        if self.max_seconds is not None:
            elapsed = self.elapsed
            if elapsed > self.max_seconds:
                raise BudgetExceeded(
                    f"{what} exceeded its time budget "
                    f"({elapsed:.3f}s > {self.max_seconds:g}s)",
                    steps=self.steps,
                    elapsed=elapsed,
                )


@contextmanager
def time_limit(seconds: float | None, what: str = "operation"):
    """Preemptive wall-clock ceiling via ``SIGALRM``.

    Raises :class:`~repro.exceptions.BudgetExceeded` from inside the
    guarded block when ``seconds`` elapse — even if the block is stuck
    in a C-level loop-free hang like ``time.sleep``.  Only the main
    thread of a (POSIX) process can host signal handlers; elsewhere the
    guard silently degrades to a no-op, which keeps the API portable —
    batch-pool workers run jobs on their main thread, so the common
    path is covered.
    """
    if (
        not seconds
        or seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise BudgetExceeded(
            f"{what} exceeded its {seconds:g}s wall-clock limit",
            elapsed=seconds,
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
