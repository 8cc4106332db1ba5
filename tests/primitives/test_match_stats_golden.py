"""Committed golden of the matcher's accounting on every golden case.

The annotation goldens (``tests/core/test_golden.py``) pin what a run
recognizes, not what its matching did to get there.  This golden pins,
for each golden case run flat and with ``hier=True``, each run on a new
library (so no shape table carries over from an earlier run), the
per-template ``launches``, ``shared``, ``skips`` and ``matches`` of the
run's profile and its ``ccc_matched`` and ``ccc_shared`` counters.  A
change to how the matcher claims, names or skips must leave it as it
is.

Regenerate it from the current code with::

    PYTHONPATH=src python -m tests.primitives.test_match_stats_golden
"""

from __future__ import annotations

import json

import pytest

from tests.core.test_golden import (
    CASES,
    MATCH_STATS_GOLDEN,
    build_pipeline,
    first_difference,
)

REGENERATE = "PYTHONPATH=src python -m tests.primitives.test_match_stats_golden"
TEMPLATE_FIELDS = ("launches", "shared", "skips", "matches")
COUNTERS = ("ccc_matched", "ccc_shared")


def match_stats(annotator, case, hier: bool) -> dict:
    """The matcher's accounting of one run of ``case`` on a new library."""
    from repro.core.pipeline import GanaPipeline

    netlist, kwargs = case.load()
    profile = GanaPipeline(annotator=annotator).run(
        netlist, mode=case.mode, hier=hier, **kwargs
    ).profile
    return {
        "per_template": {
            name: {key: stats[key] for key in TEMPLATE_FIELDS}
            for name, stats in sorted(profile["per_template"].items())
        },
        "counters": {key: profile["counters"].get(key, 0) for key in COUNTERS},
    }


def case_stats(annotator, case) -> dict:
    return {
        mode: match_stats(annotator, case, hier=mode == "hier")
        for mode in ("flat", "hier")
    }


@pytest.fixture(scope="module")
def annotators():
    return {task: build_pipeline(task).annotator for task in ("ota", "rf")}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(MATCH_STATS_GOLDEN.read_text())


def test_every_case_has_a_match_stats_golden(golden):
    assert sorted(golden) == sorted(CASES), f"stale match-stats golden; run {REGENERATE}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_match_stats_match_golden(annotators, golden, name):
    case = CASES[name]
    diff = first_difference(case_stats(annotators[case.task], case), golden[name])
    assert diff is None, (
        f"{name}: match stats differ from {MATCH_STATS_GOLDEN.name} at {diff}; "
        f"if the change is intended, regenerate with: {REGENERATE}"
    )


if __name__ == "__main__":
    built = {task: build_pipeline(task).annotator for task in ("ota", "rf")}
    payload = {
        name: case_stats(built[case.task], case)
        for name, case in sorted(CASES.items())
    }
    MATCH_STATS_GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {MATCH_STATS_GOLDEN}")
