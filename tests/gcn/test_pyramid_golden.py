"""Committed golden of every golden case's coarsening pyramid, bit for bit.

The annotation goldens (``tests/core/test_golden.py``) hold argmax
classes only, so a one-ulp change in a Laplacian cannot move them.
This golden pins, for the graph the gcn stage sees in each of those
cases, the pyramid :meth:`GraphSample.from_graph` builds at
``levels=2``: the sha256 of every level's cluster assignment and of
the rescaled Laplacian's ``indptr``, ``indices`` and ``data`` bytes,
each tagged with its dtype.

Regenerate it from the current code with::

    PYTHONPATH=src python -m tests.gcn.test_pyramid_golden
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from tests.core.test_golden import CASES, PYRAMID_GOLDEN, first_difference

REGENERATE = "PYTHONPATH=src python -m tests.gcn.test_pyramid_golden"
LEVELS = 2


def _digest(array: np.ndarray) -> str:
    data = np.ascontiguousarray(array)
    return f"{data.dtype.str}:{hashlib.sha256(data.tobytes()).hexdigest()}"


def case_graph(case):
    """The circuit graph the gcn stage annotates for one golden case."""
    from repro.core.pipeline import GanaPipeline

    netlist, kwargs = case.load()
    staged = GanaPipeline(annotator=None).run_staged(
        netlist, mode=case.mode, stop_after="graph", **kwargs
    )
    return staged.last_artifact().graph


def pyramid_digests(graph) -> dict:
    """Per-level digests of the pyramid the gcn stage builds."""
    from repro.gcn.samples import GraphSample

    pyramid = GraphSample.from_graph(graph, labels={}, levels=LEVELS).pyramid
    return {
        "sizes": pyramid.sizes(),
        "assignments": [_digest(a) for a in pyramid.assignments],
        "laplacians": [
            {
                "indptr": _digest(lap.indptr),
                "indices": _digest(lap.indices),
                "data": _digest(lap.data),
            }
            for lap in pyramid.laplacians
        ],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(PYRAMID_GOLDEN.read_text())


def test_every_case_has_a_pyramid_golden(golden):
    assert sorted(golden) == sorted(CASES), f"stale pyramid golden; run {REGENERATE}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_pyramid_matches_golden(golden, name):
    got = pyramid_digests(case_graph(CASES[name]))
    diff = first_difference(got, golden[name])
    assert diff is None, (
        f"{name}: pyramid differs from {PYRAMID_GOLDEN.name} at {diff}; "
        f"if the change is intended, regenerate with: {REGENERATE}"
    )


if __name__ == "__main__":
    payload = {
        name: pyramid_digests(case_graph(case))
        for name, case in sorted(CASES.items())
    }
    PYRAMID_GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {PYRAMID_GOLDEN}")
