"""Committed golden outputs for the annotation flow.

Every deck in ``examples/netlists/`` and ``tests/corpus/`` (OTA model;
corpus decks in their sidecar's parse mode), plus the
switched-capacitor filter (OTA model) and the 2-channel phased array
(RF model), has one golden under ``tests/golden/``.  Each case runs
flat and with ``hier=True``; both must reproduce the golden exactly.

A golden holds what :func:`~repro.core.stages.pipeline_result_fingerprint`
hashes, with the GCN softmax replaced by its argmax class: per-vertex
classes after GCN, Post-I and Post-II, the hierarchy tree, the
constraints, the preprocess report, the diagnostics, and the
degradation flag and reason.  It holds no floats, so BLAS rounding
cannot move it.

Regenerate every golden from the current code with::

    PYTHONPATH=src python -m tests.core.test_golden
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from tests.conftest import EXAMPLE_DECK_PATHS

TESTS_DIR = Path(__file__).resolve().parent.parent
GOLDEN_DIR = TESTS_DIR / "golden"
CORPUS_DIR = TESTS_DIR / "corpus"
REGENERATE = "PYTHONPATH=src python -m tests.core.test_golden"
#: Pinned by ``tests/gcn/test_pyramid_golden.py``, not by a case here.
PYRAMID_GOLDEN = GOLDEN_DIR / "pyramids.json"
#: Pinned by ``tests/spice/test_frontend_golden.py``, not by a case here.
FRONTEND_GOLDEN = GOLDEN_DIR / "frontend.json"
#: Pinned by ``tests/gcn/test_training_golden.py``, not by a case here.
TRAINING_GOLDEN = GOLDEN_DIR / "training.json"
#: Pinned by ``tests/primitives/test_match_stats_golden.py``, not by a
#: case here.
MATCH_STATS_GOLDEN = GOLDEN_DIR / "match_stats.json"


def case_goldens() -> set[Path]:
    """Every committed per-case golden file."""
    return set(GOLDEN_DIR.glob("*.json")) - {
        PYRAMID_GOLDEN, FRONTEND_GOLDEN, TRAINING_GOLDEN, MATCH_STATS_GOLDEN,
    }


@dataclass(frozen=True)
class GoldenCase:
    """One input with a committed golden: its model, mode and loader."""

    name: str
    task: str
    mode: str
    #: Returns ``(netlist, extra run() keyword arguments)``.
    load: Callable[[], tuple[object, dict]]

    @property
    def path(self) -> Path:
        return GOLDEN_DIR / f"{self.name}.json"


def _deck_case(prefix: str, path: Path, mode: str) -> GoldenCase:
    return GoldenCase(
        name=f"{prefix}-{path.stem}",
        task="ota",
        mode=mode,
        load=lambda: (path.read_text(), {}),
    )


def _system_case(name: str, task: str, build) -> GoldenCase:
    def load():
        system = build()
        return system.circuit, {"port_labels": system.port_labels}

    return GoldenCase(name=f"system-{name}", task=task, mode="strict", load=load)


def _cases() -> dict[str, GoldenCase]:
    from repro.datasets.systems import phased_array, switched_cap_filter

    cases = [_deck_case("example", p, "strict") for p in EXAMPLE_DECK_PATHS]
    cases += [
        _deck_case(
            "corpus",
            p,
            json.loads(p.with_suffix(".json").read_text())["mode"],
        )
        for p in sorted(CORPUS_DIR.glob("*.sp"))
    ]
    cases.append(_system_case("switched_cap_filter", "ota", switched_cap_filter))
    cases.append(
        _system_case("phased_array_2ch", "rf", lambda: phased_array(n_channels=2))
    )
    return {case.name: case for case in cases}


CASES = _cases()


def golden_payload(result) -> dict:
    """The float-free semantic content of one ``PipelineResult``."""

    def classes(annotation) -> dict:
        return {
            "elements": annotation.element_classes,
            "nets": annotation.net_classes,
        }

    report = result.preprocess_report
    return {
        "gcn": classes(result.gcn_annotation),
        "post1": classes(result.post1.annotation),
        "post2": classes(result.post2.annotation),
        "hierarchy": result.hierarchy.to_dict(),
        "constraints": [
            {
                "kind": c.kind.value,
                "members": c.members,
                "attributes": c.attributes,
                "source": c.source,
            }
            for c in result.constraints
        ],
        "preprocess": {"absorbed": report.absorbed, "removed": report.removed},
        "diagnostics": [d.to_dict() for d in result.diagnostics],
        "degraded": result.degraded,
        "degraded_reason": result.degraded_reason,
    }


def run_case(pipeline, case: GoldenCase, hier: bool = False) -> dict:
    """Annotate one case and return its golden payload as JSON data."""
    netlist, kwargs = case.load()
    result = pipeline.run(netlist, mode=case.mode, hier=hier, **kwargs)
    payload = {"task": case.task, "mode": case.mode, **golden_payload(result)}
    # A JSON round trip turns tuples into lists, as in the stored golden.
    return json.loads(json.dumps(payload))


def build_pipeline(task: str):
    """The quick model the goldens were recorded with."""
    from repro.core.pipeline import GanaPipeline
    from repro.datasets.synth import pretrain_annotator

    return GanaPipeline(
        annotator=pretrain_annotator(task, quick=True, train_size=150, seed=0)
    )


def first_difference(got, want, where: str = "") -> str | None:
    """Path of the first field where ``got`` and ``want`` differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in list(want) + [k for k in got if k not in want]:
            if key not in got or key not in want:
                return f"{where}.{key} (present on one side only)"
            found = first_difference(got[key], want[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(got, list) and isinstance(want, list):
        for i, (a, b) in enumerate(zip(got, want)):
            found = first_difference(a, b, f"{where}[{i}]")
            if found:
                return found
        if len(got) != len(want):
            return f"{where} (length {len(got)} vs golden {len(want)})"
        return None
    if got != want:
        return f"{where}: {got!r} vs golden {want!r}"
    return None


def _floats(value) -> list[float]:
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [f for item in value for f in _floats(item)]
    return []


@pytest.fixture(scope="module")
def pipelines():
    return {task: build_pipeline(task) for task in ("ota", "rf")}


@pytest.mark.parametrize("hier", [False, True], ids=["flat", "hier"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden(pipelines, name, hier):
    case = CASES[name]
    want = json.loads(case.path.read_text())
    diff = first_difference(run_case(pipelines[case.task], case, hier), want)
    assert diff is None, (
        f"{name} ({'hier' if hier else 'flat'}) differs from "
        f"{case.path.name} at {diff}; if the change is intended, "
        f"regenerate the goldens with: {REGENERATE}"
    )


def test_every_deck_has_a_golden_and_vice_versa():
    goldens = {p.stem for p in case_goldens()}
    assert sorted(set(CASES) - goldens) == [], f"missing goldens; run {REGENERATE}"
    assert sorted(goldens - set(CASES)) == [], "goldens whose deck is gone"


def test_goldens_hold_no_floats():
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        assert _floats(json.loads(path.read_text())) == [], path.name


def test_first_difference_names_the_field():
    want = {"post1": {"elements": {"m0": "ota", "m1": "bias"}}}
    got = {"post1": {"elements": {"m0": "ota", "m1": "ota"}}}
    assert first_difference(got, want) == ".post1.elements.m1: 'ota' vs golden 'bias'"
    assert first_difference(want, want) is None


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    built = {task: build_pipeline(task) for task in ("ota", "rf")}
    for stale in case_goldens() - {c.path for c in CASES.values()}:
        stale.unlink()
    for case in CASES.values():
        payload = run_case(built[case.task], case)
        case.path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {case.path.relative_to(TESTS_DIR.parent)}")
