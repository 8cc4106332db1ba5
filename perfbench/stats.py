"""Pure arithmetic behind the benchmark's numbers: host normalization,
percentiles and span self time.  Nothing here imports ``repro``."""

from __future__ import annotations

import math
import statistics

from probe import R0

#: Probes on each side of an op that enter its rolling median.
HALF_WINDOW = 4

#: The tail percentile is the highest one with at least this many ops
#: beyond it.
TAIL_BEYOND = 10


def rolling_medians(probes: list[float]) -> list[float]:
    """Median of the probes within ``HALF_WINDOW`` places of each one.

    The window is clipped at both ends of the series, so the first and
    last values use fewer neighbours instead of padding.
    """
    if not probes:
        return []
    out = []
    for i in range(len(probes)):
        lo = max(0, i - HALF_WINDOW)
        hi = min(len(probes), i + HALF_WINDOW + 1)
        out.append(statistics.median(probes[lo:hi]))
    return out


def normalize(op_seconds: list[float], probe_seconds: list[float]) -> tuple[list[float], list[float]]:
    """Host-normalized op times and the probe reference each used.

    ``probe_seconds[i]`` is the probe time of op ``i``.
    Returns ``(normalized, references)`` with
    ``normalized[i] = op_seconds[i] * R0 / references[i]``, where
    ``references[i]`` is the rolling median of nearby probes.
    """
    if len(op_seconds) != len(probe_seconds):
        raise ValueError(
            f"{len(op_seconds)} op times but {len(probe_seconds)} probes"
        )
    references = rolling_medians(probe_seconds)
    return [s * R0 / r for s, r in zip(op_seconds, references)], references


def tail(values: list[float]) -> tuple[int, float]:
    """``(percentile, value)``: the highest whole percentile that still
    leaves at least ``TAIL_BEYOND`` values above it, by nearest rank."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} values for a tail, got {n}")
    percentile = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(percentile * n / 100))
    return percentile, sorted(values)[rank - 1]


def self_times(spans: list[tuple[int, float, float]]) -> list[float]:
    """Self time of each span: its duration minus the part of its
    interval covered by its direct children.

    ``spans[i]`` is ``(parent, start, end)`` with ``parent`` the index
    of the enclosing span in the same list, or -1 for a root.  A child
    that sticks out of its parent only counts inside the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_parent, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
