"""Stage-level profiling for the annotation pipeline.

The ISSUE's observability requirement: know *where* an annotation run
spends its time without reaching for cProfile.  A
:class:`PipelineProfiler` rides through ``GanaPipeline.run(...,
profile=True)`` and collects

* **stages** — wall-clock seconds per pipeline stage (parse,
  preprocess, graph, gcn, post1, post2, hierarchy), the same numbers
  ``PipelineResult.timings`` reports;
* **per_template** — per primitive template: VF2 launches, matches
  found, cumulative seconds, and how often the template was skipped
  without launching a search (kind histogram, or every match would
  need an already-claimed device);
* **counters** — free-form event counts (channel-connected components
  matched, ...);
* **definitions** — hierarchy-scoped runs (``--hier``) attribute
  Postprocessing I wall-clock per subckt definition × instance count:
  how many CCCs each definition owned, how many were answered by
  cross-instance match reuse, and the seconds spent.

Everything is plain ``dict``/``float``/``int`` so the profile pickles
across the ``run_many`` process pool and serializes with
``json.dump`` unchanged (``--profile out.json`` on the CLI).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator


@dataclass
class TemplateStats:
    """Accumulated matching statistics for one primitive template."""

    launches: int = 0
    matches: int = 0
    seconds: float = 0.0
    # Kind-histogram and claimed-device rejections (no VF2 launch).
    skips: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "launches": self.launches,
            "matches": self.matches,
            "seconds": round(self.seconds, 6),
            "skips": self.skips,
        }


@dataclass
class PipelineProfiler:
    """Collects per-stage and per-template timings for one pipeline run."""

    stages: dict[str, float] = field(default_factory=dict)
    templates: dict[str, TemplateStats] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    definitions: dict[str, dict] = field(default_factory=dict)

    # -- recording ---------------------------------------------------

    @contextmanager
    def stage(self, name) -> Iterator[None]:
        """Time a block as pipeline stage ``name`` (additive on re-entry).

        ``name`` is a string or a ``repro.core.stages.StageName``
        member; labels are always stored as string values.
        """
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record_stage(name, time.perf_counter() - started)

    def record_stage(self, name, seconds: float) -> None:
        name = getattr(name, "value", name)
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def _stats(self, template: str) -> TemplateStats:
        stats = self.templates.get(template)
        if stats is None:
            stats = self.templates[template] = TemplateStats()
        return stats

    def record_template(
        self, template: str, seconds: float, matches: int
    ) -> None:
        """One VF2 launch of ``template``: its wall-clock and match count."""
        stats = self._stats(template)
        stats.launches += 1
        stats.matches += matches
        stats.seconds += seconds

    def record_template_skip(self, template: str) -> None:
        """``template`` was rejected without a launch: by the kind
        histogram, or because its matches could only reuse claimed
        devices."""
        self._stats(template).skips += 1

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def record_definition(
        self,
        definition: str,
        *,
        instances: int,
        cccs: int,
        reused: int,
        seconds: float,
    ) -> None:
        """Attribute hierarchy-scoped matching work to one definition.

        Additive on re-entry (``instances`` takes the max — it is a
        population size, not an event count).
        """
        stats = self.definitions.setdefault(
            definition,
            {"instances": 0, "cccs": 0, "reused": 0, "seconds": 0.0},
        )
        stats["instances"] = max(stats["instances"], instances)
        stats["cccs"] += cccs
        stats["reused"] += reused
        stats["seconds"] += seconds

    # -- reporting ---------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready profile: stages, per-template stats, counters.

        Templates are sorted by cumulative seconds, most expensive
        first, so the hot template is the first key a reader sees.
        """
        per_template = {
            name: stats.as_dict()
            for name, stats in sorted(
                self.templates.items(),
                key=lambda item: item[1].seconds,
                reverse=True,
            )
        }
        out = {
            "stages": {k: round(v, 6) for k, v in self.stages.items()},
            "per_template": per_template,
            "counters": dict(self.counters),
        }
        if self.definitions:
            out["definitions"] = {
                name: {**stats, "seconds": round(stats["seconds"], 6)}
                for name, stats in sorted(
                    self.definitions.items(),
                    key=lambda item: item[1]["seconds"],
                    reverse=True,
                )
            }
        return out

    def write_json(self, path: str | Path) -> Path:
        """Dump the profile to ``path`` (pretty-printed, trailing newline)."""
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path
