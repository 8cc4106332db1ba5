"""Spans recorded from outside the program.

:func:`install` replaces public functions and methods of ``repro`` with
wrappers that open a span on entry and close it on exit.  Each wrapper
patches every binding a caller looks up: the defining module, every
module that imported the function by name, or the class attribute.  A
target that a later version of the program no longer has is reported
as absent instead of failing the run.

Spans stay in memory.  Pool workers forked after :func:`install`
inherit the wrappers, start an empty span list of their own, and write
it to ``<worker_dir>/worker-<pid>.json`` when they exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from multiprocessing import util
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: Index of the enclosing span in the same process, or -1.
    parent: int = -1
    #: Op id in the process that ran the op loop; None elsewhere.
    op: int | None = None
    #: A count the wrapper read off the call (devices, vertices, ...),
    #: or a zero-argument callable that computes it after the op.
    value: Any = None


class Tracer:
    """Nested spans of one process.

    ``op`` is set by the op loop; spans opened while it is ``None``
    (set-up, warm-up) are kept but belong to no op.  While an opaque
    span is open, nested wrappers run the call without a span, so the
    opaque span's self time covers everything beneath it.
    """

    def __init__(self, worker_dir: str | None = None,
                 memo_reader: Callable[[], dict[str, int]] | None = None):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.worker_dir = worker_dir
        self.memo_reader = memo_reader
        self._stack: list[int] = []
        self._opaque = 0
        self._pid = os.getpid()

    def _adopt_fork(self) -> None:
        """First span in a forked worker: drop the parent's spans and
        arrange for this worker's spans to be written at exit."""
        self.spans = []
        self._stack = []
        self._opaque = 0
        self.op = None
        self._pid = os.getpid()
        if self.worker_dir is not None:
            util.Finalize(None, self.write_worker_file, exitpriority=10)

    def open(self, name: str) -> int:
        if os.getpid() != self._pid:
            self._adopt_fork()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        # Pop back to the span being closed, so a span left open by an
        # exception in a callee cannot corrupt the nesting.
        while self._stack and self._stack.pop() != index:
            pass

    def resolve(self, first: int = 0) -> None:
        """Evaluate deferred span values (after the op's timed region)."""
        for span in self.spans[first:]:
            if callable(span.value):
                span.value = span.value()

    def write_worker_file(self) -> None:
        self.resolve()
        memos = self.memo_reader() if self.memo_reader is not None else {}
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": [span_row(s) for s in self.spans],
                       "memos": memos}, handle)


def span_row(span: Span) -> list:
    return [span.name, span.start, span.end, span.parent, span.op, span.value]


def read_worker_files(worker_dir: str) -> list[dict]:
    """Every worker file, spans rebuilt as :class:`Span` objects."""
    out = []
    for entry in sorted(os.listdir(worker_dir)):
        if entry.startswith("worker-") and entry.endswith(".json"):
            with open(os.path.join(worker_dir, entry)) as handle:
                record = json.load(handle)
            record["spans"] = [Span(*row) for row in record["spans"]]
            out.append(record)
    return out


# ---------------------------------------------------------------------------
# Wrapping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One function or method to time.

    ``path`` is ``"module:function"`` or ``"module:Class.method"``.
    ``value(result, args, kwargs)`` reads a count off the call; it may
    return a zero-argument callable to defer costly work until after
    the op.  ``when(args, kwargs)`` false runs the call untimed.
    """

    span: str
    path: str
    value: Callable | None = None
    when: Callable | None = None
    opaque: bool = False


def _wrapper(fn: Callable, target: Target, tracer: Tracer) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer._opaque or (target.when is not None and not target.when(args, kwargs)):
            return fn(*args, **kwargs)
        index = tracer.open(target.span)
        tracer._opaque += target.opaque
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer._opaque -= target.opaque
            tracer.close(index)
        if target.value is not None:
            tracer.spans[index].value = target.value(result, args, kwargs)
        return result

    return traced


class Installation:
    """The patches :func:`install` made, for :meth:`remove`."""

    def __init__(self) -> None:
        self.patched: list[str] = []
        self.absent: list[str] = []
        self._undo: list[Callable[[], None]] = []

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def _resolve(path: str):
    """``(module, owner, name)`` for a target path; raises ImportError
    or AttributeError when the module or an enclosing class is gone."""
    module_name, _, qualname = path.partition(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _patch_function(name: str, original: Callable, wrapped: Callable, inst) -> None:
    """Rebind ``name`` in every loaded ``repro`` module that holds the
    original: the defining module and each ``from ... import name``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        if getattr(module, name, None) is original:
            setattr(module, name, wrapped)
            inst._undo.append(functools.partial(setattr, module, name, original))


def _patch_attribute(owner: type, name: str, raw, target: Target, tracer: Tracer, inst) -> None:
    if isinstance(raw, (classmethod, staticmethod)):
        replacement = type(raw)(_wrapper(raw.__func__, target, tracer))
    else:
        replacement = _wrapper(raw, target, tracer)
    setattr(owner, name, replacement)
    inst._undo.append(functools.partial(setattr, owner, name, raw))


def install(targets, tracer: Tracer) -> Installation:
    """Wrap every target that exists; record the rest as absent.

    A method counts only where its class defines it, not where it
    inherits it."""
    inst = Installation()
    for target in targets:
        try:
            module, owner, name = _resolve(target.path)
        except (ImportError, AttributeError):
            inst.absent.append(target.path)
            continue
        if owner is module:
            original = getattr(module, name, None)
            if original is None:
                inst.absent.append(target.path)
                continue
            _patch_function(name, original, _wrapper(original, target, tracer), inst)
        else:
            raw = vars(owner).get(name)
            if raw is None:
                inst.absent.append(target.path)
                continue
            _patch_attribute(owner, name, raw, target, tracer, inst)
        inst.patched.append(target.path)
    return inst
