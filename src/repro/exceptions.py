"""Exception hierarchy for the GANA reproduction.

All library-raised errors derive from :class:`GanaError` so that callers
can catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class GanaError(Exception):
    """Base class for all errors raised by this package."""


class SpiceSyntaxError(GanaError):
    """Raised when a SPICE netlist cannot be tokenized or parsed.

    Carries the offending line number (1-based) when known, the raw
    ``message`` (without the line prefix), and an optional ``hint``
    suggesting a fix — both feed the lenient-mode
    :class:`~repro.runtime.resilience.Diagnostic` records.
    """

    def __init__(
        self, message: str, line: int | None = None, hint: str | None = None
    ):
        self.line = line
        self.message = message
        self.hint = hint
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ElaborationError(GanaError):
    """Raised when hierarchy flattening fails (missing subckt, port
    arity mismatch, recursive instantiation)."""


class GraphConstructionError(GanaError):
    """Raised when a netlist cannot be converted to a bipartite graph."""


class ModelConfigError(GanaError):
    """Raised for invalid GCN model or training configuration."""


class MatchError(GanaError):
    """Raised for invalid primitive-matching requests."""


class ConstraintError(GanaError):
    """Raised for malformed or contradictory layout constraints."""


class LayoutError(GanaError):
    """Raised when the placer cannot satisfy its inputs."""


class DatasetError(GanaError):
    """Raised by dataset generators for invalid specs."""


class ArtifactError(GanaError):
    """Raised for unreadable, stale, or mistyped pipeline artifacts."""


class TrainingDiverged(GanaError):
    """Raised when GCN training diverges past its rollback budget.

    The divergence guard in :func:`repro.gcn.train.train` detects a
    non-finite minibatch loss or an exploding gradient norm, rolls the
    run back to the last good epoch, and retries with a reduced
    learning rate.  When the retry budget runs out, this carries the
    epoch the run could not get past and how many rollbacks were spent.
    """

    def __init__(
        self,
        message: str,
        epoch: int | None = None,
        rollbacks: int | None = None,
    ):
        super().__init__(message)
        self.epoch = epoch
        self.rollbacks = rollbacks


class WorkerCrashed(GanaError):
    """Raised when a batch item kills its pool worker outright.

    A segfault, an ``os._exit`` or an out-of-memory kill leaves the
    caller only the executor's ``BrokenProcessPool``, which names no
    item.  Once bisection has isolated the item that kills its worker
    every time, ``GanaPipeline.run_many(on_error="raise")`` raises this
    with the deck's input ``index`` and ``name``, chained from that
    ``BrokenProcessPool``.
    """

    def __init__(self, message: str, index: int | None = None, name: str = ""):
        super().__init__(message)
        self.index = index
        self.name = name


class BudgetExceeded(GanaError):
    """Raised when a search exhausts its step or wall-clock budget.

    Worst-case-exponential searches (VF2 subgraph isomorphism, the
    annealing placer) and per-item batch timeouts raise this instead of
    hanging.  ``partial`` carries whatever results were accumulated
    before the budget ran out (a list of isomorphisms, a partial
    :class:`~repro.primitives.matcher.AnnotationResult`, a best-so-far
    :class:`~repro.layout.anneal.AnnealResult`, ...) so callers can
    degrade gracefully instead of losing everything.
    """

    def __init__(
        self,
        message: str,
        steps: int | None = None,
        elapsed: float | None = None,
        partial: object | None = None,
    ):
        super().__init__(message)
        self.steps = steps
        self.elapsed = elapsed
        self.partial = partial
