"""Batch annotation parity: ``run_many`` ≡ a serial ``run`` loop.

ISSUE 1 acceptance: parallel batch annotation over ≥4 netlists matches
serial ``run()`` results exactly, including the ``timings`` keys.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.pipeline import GanaPipeline
from repro.core.stages import TIMING_STAGES
from repro.datasets.ota import OtaSpec, generate_ota, ota_variants
from repro.spice.writer import write_circuit
from tests.conftest import EXAMPLES_DIR


@pytest.fixture(scope="module")
def pipeline(quick_ota_annotator):
    return GanaPipeline(annotator=quick_ota_annotator)


@pytest.fixture(scope="module")
def decks():
    specs = ota_variants(6, seed="run-many")
    return [
        write_circuit(generate_ota(spec, name=f"batch{i}").circuit)
        for i, spec in enumerate(specs)
    ]


def _assert_same_results(batch, serial):
    assert len(batch) == len(serial)
    for got, want in zip(batch, serial):
        assert got.annotation.element_classes == want.annotation.element_classes
        assert got.annotation.net_classes == want.annotation.net_classes
        assert np.array_equal(
            got.gcn_annotation.vertex_classes, want.gcn_annotation.vertex_classes
        )
        assert got.hierarchy.render() == want.hierarchy.render()
        assert set(got.timings) == set(want.timings)
        assert set(got.timings) == set(TIMING_STAGES)


class TestRunMany:
    def test_matches_serial_run(self, pipeline, decks):
        names = [f"sys{i}" for i in range(len(decks))]
        serial = [
            pipeline.run(deck, name=name) for deck, name in zip(decks, names)
        ]
        batch = pipeline.run_many(decks, names=names)
        _assert_same_results(batch, serial)

    def test_matches_serial_run_forced_pool(self, pipeline, decks):
        """Even on a 1-cpu host, workers=2 exercises the process pool."""
        names = [f"sys{i}" for i in range(len(decks))]
        serial = [
            pipeline.run(deck, name=name) for deck, name in zip(decks, names)
        ]
        batch = pipeline.run_many(decks, names=names, workers=2)
        _assert_same_results(batch, serial)

    def test_shared_port_labels_apply_to_all(self, pipeline, decks):
        labels = {"vout": "output"}
        batch = pipeline.run_many(decks[:4], port_labels=labels)
        serial = [pipeline.run(deck, port_labels=labels) for deck in decks[:4]]
        _assert_same_results(batch, serial)

    def test_per_netlist_port_labels(self, pipeline, decks):
        per_item = [{"vout": "output"}, None, {}, {"vinp": "input"}]
        batch = pipeline.run_many(decks[:4], port_labels=per_item)
        serial = [
            pipeline.run(deck, port_labels=labels)
            for deck, labels in zip(decks[:4], per_item)
        ]
        _assert_same_results(batch, serial)

    def test_empty_batch(self, pipeline):
        assert pipeline.run_many([]) == []

    def test_serial_bypass_spawns_no_pool(self, pipeline, decks, monkeypatch):
        """``workers=1`` or a single netlist must never touch the pool.

        BENCH showed the pool *losing* to the serial loop on a 1-CPU
        host (0.88x), so the bypass is a performance guarantee: the
        whole multiprocessing machinery stays cold.
        """
        import repro.runtime.parallel as parallel

        def _forbidden(*args, **kwargs):
            raise AssertionError("process pool used on the serial path")

        monkeypatch.setattr(parallel, "parallel_map", _forbidden)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _forbidden)

        names = [f"sys{i}" for i in range(len(decks))]
        serial = [
            pipeline.run(deck, name=name) for deck, name in zip(decks, names)
        ]
        batch = pipeline.run_many(decks, names=names, workers=1)
        _assert_same_results(batch, serial)
        # A single item bypasses the pool regardless of worker count.
        only = pipeline.run_many([decks[0]], names=["sys0"], workers=8)
        _assert_same_results(only, serial[:1])

    def test_single_netlist(self, pipeline, decks):
        batch = pipeline.run_many([decks[0]], names=["only"])
        serial = [pipeline.run(decks[0], name="only")]
        _assert_same_results(batch, serial)


class _CountingAnnotator:
    """Delegates to a real annotator, counting the inference calls."""

    def __init__(self, inner):
        self.inner = inner
        self.annotate_calls = 0
        self.batch_calls = 0

    @property
    def class_names(self):
        return self.inner.class_names

    @property
    def model(self):
        return self.inner.model

    def annotate(self, graph, net_roles=None):
        self.annotate_calls += 1
        return self.inner.annotate(graph, net_roles=net_roles)

    def annotate_batch(self, graphs, net_roles_list=None):
        self.batch_calls += 1
        return self.inner.annotate_batch(graphs, net_roles_list)


class _ExplodingBatchAnnotator(_CountingAnnotator):
    """Supports the packed API but always fails it — the chunk flow
    must fall back to per-item inference with identical results."""

    def annotate_batch(self, graphs, net_roles_list=None):
        self.batch_calls += 1
        raise RuntimeError("packed forward exploded")


def _jobs_for(decks, names):
    return [
        {
            "index": i,
            "isolate": False,
            "timeout": None,
            "kwargs": {
                "netlist": deck,
                "net_roles": None,
                "port_labels": None,
                "name": name,
                "infer_testbench": True,
                "mode": "strict",
                "artifact_cache": None,
            },
        }
        for i, (deck, name) in enumerate(zip(decks, names))
    ]


class TestBatchedChunkFlow:
    """ISSUE 6 tentpole: a worker's chunk runs ONE packed GCN forward
    for all of its decks instead of one per deck."""

    def test_chunk_uses_one_packed_forward(
        self, quick_ota_annotator, pipeline, decks
    ):
        from repro.core.pipeline import _run_pipeline_chunk

        counting = _CountingAnnotator(quick_ota_annotator)
        counted_pipeline = GanaPipeline(annotator=counting)
        names = [f"sys{i}" for i in range(len(decks))]
        results = _run_pipeline_chunk(
            counted_pipeline, _jobs_for(decks, names)
        )
        assert counting.batch_calls == 1
        assert counting.annotate_calls == 0
        serial = [
            pipeline.run(deck, name=name) for deck, name in zip(decks, names)
        ]
        _assert_same_results(results, serial)
        # The packed GCN seconds are attributed back to the items.
        assert all(r.timings["gcn"] > 0.0 for r in results)

    def test_packed_failure_falls_back_per_item(
        self, quick_ota_annotator, pipeline, decks
    ):
        from repro.core.pipeline import _run_pipeline_chunk

        exploding = _ExplodingBatchAnnotator(quick_ota_annotator)
        fallback_pipeline = GanaPipeline(annotator=exploding)
        names = [f"sys{i}" for i in range(len(decks))]
        results = _run_pipeline_chunk(
            fallback_pipeline, _jobs_for(decks, names)
        )
        assert exploding.batch_calls == 1
        assert exploding.annotate_calls == len(decks)
        serial = [
            pipeline.run(deck, name=name) for deck, name in zip(decks, names)
        ]
        _assert_same_results(results, serial)

    def test_late_failure_reports_pre_graph_seconds(
        self, pipeline, decks, monkeypatch
    ):
        """A deck that fails after the graph stage inside a packed chunk
        still reports the parse, preprocess and graph seconds it spent."""
        import repro.core.pipeline as pipeline_module
        from repro.core.pipeline import _run_pipeline_chunk

        real_post1 = pipeline_module.postprocess_ccc
        calls = {"n": 0}

        def post1_fails_on_second_deck(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("post1 exploded")
            return real_post1(*args, **kwargs)

        monkeypatch.setattr(
            pipeline_module, "postprocess_ccc", post1_fails_on_second_deck
        )
        jobs = _jobs_for(decks[:3], ["a", "b", "c"])
        for job in jobs:
            job["isolate"] = True
        first, report, third = _run_pipeline_chunk(pipeline, jobs)
        assert first.ok and third.ok and not report.ok
        assert report.stage == "post1"
        assert report.profile["stages"]["parse"] > 0
        assert report.profile["stages"]["preprocess"] > 0
        assert report.profile["stages"]["graph"] > 0
        # Successful siblings still count each stage once.
        assert first.profile["stages"] == {
            k: round(v, 6) for k, v in first.timings.items()
        }

    def test_short_deck_falls_back_per_item(
        self, quick_ota_annotator, pipeline, decks, caplog
    ):
        """A deck whose graph coarsens to one vertex before the model's
        depth stops the chunk's union sample short, so its packed
        forward raises ``ModelConfigError`` naming that graph's
        position, and the chunk falls back to per-deck inference with a
        warning that names the deck; every result equals a serial
        ``run()``."""
        from repro.core.pipeline import _run_pipeline_chunk
        from repro.core.stages import pipeline_result_fingerprint
        from repro.exceptions import ModelConfigError

        short = "c1 a a 1p\n.end\n"  # two vertices, one coarsening level
        chunk = decks[:2] + [short] + decks[2:4]
        names = [f"sys{i}" for i in range(len(chunk))]
        graphs = [
            pipeline.run_staged(deck, stop_after="graph").last_artifact().graph
            for deck in chunk
        ]
        with pytest.raises(ModelConfigError) as info:
            quick_ota_annotator.annotate_batch(graphs)
        assert str(info.value) == (
            "graph 2 ('top') of 5 ran out of vertices after 1 coarsening "
            "levels; model needs 2"
        )
        assert info.value.graphs == (2,)

        counting = _CountingAnnotator(quick_ota_annotator)
        with caplog.at_level("WARNING", logger="repro.core.pipeline"):
            results = _run_pipeline_chunk(
                GanaPipeline(annotator=counting), _jobs_for(chunk, names)
            )
        (warning,) = [r for r in caplog.records if r.levelname == "WARNING"]
        assert warning.getMessage().startswith(
            "packed annotate_batch failed on deck 2 (sys2): graph 2 ('top') "
            "of 5 ran out of vertices"
        )
        assert counting.batch_calls == 1
        assert counting.annotate_calls == len(chunk)
        serial = [
            pipeline.run(deck, name=name) for deck, name in zip(chunk, names)
        ]
        assert results[2].degraded and serial[2].degraded
        assert [pipeline_result_fingerprint(r) for r in results] == [
            pipeline_result_fingerprint(r) for r in serial
        ]
        for got, want in zip(results, serial):
            assert got.gcn_annotation.probabilities.tobytes() == (
                want.gcn_annotation.probabilities.tobytes()
            )

    def test_run_many_reuses_warm_pool(self, pipeline, decks):
        from repro.runtime import parallel

        parallel.shutdown_pools()
        pipeline.run_many(decks, workers=2)
        assert len(parallel._POOLS) == 1
        (key,) = parallel._POOLS
        pipeline.run_many(decks, workers=2)
        # Same pipeline content → same key → the pool survived the
        # first call and served the second.
        assert list(parallel._POOLS) == [key]

    def test_rail_change_does_not_reuse_warm_pool(self, pipeline, wide_rails):
        """A pool forked under other rail regexes is not reused."""
        from repro.runtime import parallel

        deck = (EXAMPLES_DIR / "diff_ota.sp").read_text()
        batch = [deck] * 4
        try:
            pipeline.run_many(batch, workers=2)
            stock = pipeline.run(deck)
            wide_rails()
            serial = [pipeline.run(deck) for _ in batch]
            assert (
                serial[0].preprocess_report.removed_names
                != stock.preprocess_report.removed_names
            )
            pooled = pipeline.run_many(batch, workers=2)
            _assert_same_results(pooled, serial)
            for got, want in zip(pooled, serial):
                assert got.preprocess_report == want.preprocess_report
        finally:
            parallel.shutdown_pools()


class _BoobyTrappedAnnotator:
    """Delegates to a real annotator but explodes on decks named ``bomb``.

    Module-level so it pickles by reference into pool workers; the
    failure lands in the ``gcn`` stage, *after* preprocess/graph have
    been profiled — exactly the partial-metadata case the satellite
    protects.
    """

    def __init__(self, inner):
        self.inner = inner

    @property
    def class_names(self):
        return self.inner.class_names

    @property
    def model(self):
        return self.inner.model

    def annotate(self, graph, net_roles=None):
        if graph.circuit.name.startswith("bomb"):
            raise RuntimeError("gcn exploded")
        return self.inner.annotate(graph, net_roles=net_roles)


def _bomb_circuit():
    from repro.spice.netlist import Circuit, DeviceKind, make_mos

    return Circuit(
        name="bomb",
        devices=[
            make_mos("m1", DeviceKind.NMOS, "out", "in", "gnd!"),
            make_mos("m2", DeviceKind.PMOS, "out", "in", "vdd!"),
        ],
    )


@pytest.fixture(scope="module")
def fragile_pipeline(quick_ota_annotator):
    """No degradation: the booby-trapped GCN failure escapes."""
    return GanaPipeline(
        annotator=_BoobyTrappedAnnotator(quick_ota_annotator), degrade=False
    )


class TestFailureMetadataSurvivesPool:
    """ISSUE 4 satellite: per-item profile/diagnostics cross the pool
    for *every* ``on_error`` mode, not just the happy path."""

    def test_report_mode_carries_partial_profile(self, fragile_pipeline, decks):
        batch = fragile_pipeline.run_many(
            [decks[0], _bomb_circuit(), decks[1]],
            names=["ok0", "bomb", "ok1"],
            workers=2,
            on_error="report",
        )
        ok0, report, ok1 = batch
        assert ok0.ok and ok1.ok and not report.ok
        assert report.stage == "gcn"
        assert report.name == "bomb"
        # The pre-failure stages were profiled and the dict survived
        # pickling back from the worker.
        assert isinstance(report.profile, dict)
        assert "preprocess" in report.profile["stages"]
        assert "graph" in report.profile["stages"]
        assert "post1" not in report.profile["stages"]
        # Successful neighbours keep their own full profiles.
        assert set(ok0.profile["stages"]) == set(ok0.timings)

    def test_report_mode_profile_needs_no_flag(self, fragile_pipeline):
        (report,) = fragile_pipeline.run_many(
            [_bomb_circuit()], on_error="report"
        )
        assert not report.ok
        assert {"parse", "preprocess", "graph"} <= set(report.profile["stages"])

    def test_raise_mode_exception_carries_metadata(
        self, fragile_pipeline, decks
    ):
        from repro.runtime.resilience import failure_report

        with pytest.raises(RuntimeError, match="gcn exploded") as err:
            fragile_pipeline.run_many(
                [decks[0], _bomb_circuit()],
                workers=2,
                on_error="raise",
            )
        # The stage tag and partial profile are instance attributes on
        # the exception, so they pickle with it out of the worker and
        # failure_report() can be built caller-side too.
        assert getattr(err.value, "_gana_stage", None) == "gcn"
        assert isinstance(getattr(err.value, "_gana_profile", None), dict)
        report = failure_report(err.value)
        assert report.stage == "gcn"
        assert "preprocess" in report.profile["stages"]

    def test_lenient_diagnostics_survive_pool(self, pipeline, decks):
        bad_deck = decks[0] + "\nq_bogus a b c npn\n"
        results = pipeline.run_many(
            [bad_deck, decks[1]],
            workers=2,
            mode="lenient",
            on_error="report",
        )
        assert all(r.ok for r in results)
        assert results[0].diagnostics  # the bogus card, reported per item
        assert not results[1].diagnostics

    def test_failure_report_pickle_round_trip(self, fragile_pipeline):
        import pickle

        (report,) = fragile_pipeline.run_many(
            [_bomb_circuit()], on_error="report"
        )
        clone = pickle.loads(pickle.dumps(report))
        assert clone.stage == report.stage
        assert clone.profile == report.profile
        assert clone.diagnostics == report.diagnostics


class TestRaiseModeStaysInThePool:
    def test_deck_error_is_not_rerun_in_the_caller(
        self, pipeline, decks, tmp_path, monkeypatch
    ):
        """A deck that raises in its worker under ``on_error="raise"``
        propagates from the pool; no chunk reruns in the caller."""
        import repro.core.pipeline as pipeline_module
        from repro.runtime.parallel import shutdown_pools

        log = tmp_path / "chunk-pids.log"
        real_chunk = pipeline_module._run_pipeline_chunk

        def logged_chunk(pipe, jobs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real_chunk(pipe, jobs)

        monkeypatch.setattr(pipeline_module, "_run_pipeline_chunk", logged_chunk)
        shutdown_pools()  # fresh forks inherit the logging chunk runner
        batch = [*decks[:3], None, *decks[3:]]  # ParseStage: ValueError
        with pytest.raises(ValueError):
            pipeline.run_many(batch, workers=2, on_error="raise")
        pids = log.read_text().split()
        assert pids
        assert str(os.getpid()) not in pids
