import time
from types import SimpleNamespace

import numpy as np
import pytest

import decks
from run import end_to_end
from session import Session
from workloads import Digest, Flat, Workload, _truth


class Flaky(Workload):
    """Ops that raise at op 3 and disagree with the check at op 5."""

    name = "flaky"

    def setup(self):
        pass

    def op(self, i):
        if i == 3:
            raise RuntimeError("injected failure")
        return i

    def digest(self, i, result):
        return Digest(devices=10, graphs=1, correct=1.0, total=1, evidence=result)

    def check(self, digests):
        digests[5].mismatch = "injected mismatch"

    def properties(self):
        return {"ops": self.n_ops}


def test_failing_ops_land_in_the_failure_count_without_aborting():
    session = Session(Flaky({"ops": list(range(24))}))
    record = session.setup(spawned=time.monotonic(), excluded=0.0)
    session.run(record)
    errors = [op["error"] for op in record["ops"]]
    assert len(errors) == 24
    assert "injected failure" in errors[3]
    assert errors[5] == "injected mismatch"
    assert sum(e is not None for e in errors) == 2
    metrics = end_to_end(record, [record])
    assert metrics["ok_share"] == pytest.approx(22 / 24)
    assert metrics["accuracy"] == 1.0
    assert metrics["op_p50_s"] > 0


class Misannotated(Flat):
    """The flat workload's scoring on prebuilt results: every op returns
    the planted truth, except op 2, which gets every third labelled
    vertex wrong."""

    def setup(self):
        from repro.core.annotator import Annotation
        from repro.graph.bipartite import CircuitGraph
        from repro.spice.flatten import flatten
        from repro.spice.parser import parse_netlist

        deck = self.inputs["ops"][0]
        graph = CircuitGraph.from_circuit(flatten(parse_netlist(deck["text"])))
        truth = _truth(graph, deck["labels"])
        names = tuple(sorted(set(truth.values())))
        right = np.array([names.index(truth[graph.vertex_name(v)])
                          if graph.vertex_name(v) in truth else -1
                          for v in range(graph.n_vertices)])
        wrong = right.copy()
        labelled = np.flatnonzero(right >= 0)[::3]
        wrong[labelled] = (right[labelled] + 1) % len(names)
        self.results = [
            SimpleNamespace(ok=True, degraded=False, graph=graph, post2=SimpleNamespace(
                annotation=Annotation(graph=graph, class_names=names, vertex_classes=classes)))
            for classes in (right, wrong)
        ]

    def op(self, i):
        return self.results[i == 2]


def test_a_misannotated_op_fails_the_accuracy_floor():
    deck = decks.fleet_decks(0, 1)[0].as_dict()
    session = Session(Misannotated({"ops": [deck] * 24}))
    record = session.setup(spawned=time.monotonic(), excluded=0.0)
    session.run(record)
    errors = [op["error"] for op in record["ops"]]
    assert "below the floor" in errors[2]
    assert sum(e is not None for e in errors) == 1
    assert record["ops"][0]["correct"] == record["ops"][0]["total"]
    assert end_to_end(record, [record])["ok_share"] == pytest.approx(23 / 24)
