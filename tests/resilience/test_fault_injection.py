"""Fault-injection harness: poisoned decks, hung parses, crashing
workers, and truncated cache entries must all be survivable.

ISSUE 2 acceptance: a batch of N decks with K corrupted/hanging
members yields exactly N−K ``PipelineResult``s and K ``FailureReport``s
(with the failing stage and diagnostics), in deterministic input order.
"""

from __future__ import annotations

import logging
import os
import time

import pytest

from repro.core.pipeline import GanaPipeline, PipelineResult
from repro.datasets.ota import generate_ota, ota_variants
from repro.exceptions import SpiceSyntaxError
from repro.runtime.cache import ModelCache
from repro.runtime import parallel
from repro.runtime.parallel import parallel_map, shutdown_pools
from repro.runtime.resilience import FailureReport
from repro.spice.writer import write_circuit

#: Fails on line 2 in strict mode: MOS card with too few nets.
BAD_MOS_DECK = "* corrupted\nm1 n1 inp vss nmos\n.end\n"
#: Fails on line 3: unsupported device card.
BAD_CARD_DECK = "* corrupted\n* still fine\nq1 a b c npn\n.end\n"


@pytest.fixture(scope="module")
def pipeline(quick_ota_annotator):
    return GanaPipeline(annotator=quick_ota_annotator)


@pytest.fixture(scope="module")
def good_decks():
    specs = ota_variants(3, seed="fault-injection")
    return [
        write_circuit(generate_ota(spec, name=f"ok{i}").circuit)
        for i, spec in enumerate(specs)
    ]


class TestBatchFaultIsolation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_corrupted_decks_become_reports(
        self, pipeline, good_decks, workers
    ):
        decks = [
            good_decks[0],
            BAD_MOS_DECK,
            good_decks[1],
            BAD_CARD_DECK,
            good_decks[2],
        ]
        names = [f"deck{i}" for i in range(len(decks))]
        results = pipeline.run_many(
            decks, names=names, on_error="report", workers=workers
        )
        assert len(results) == len(decks)
        assert [r.ok for r in results] == [True, False, True, False, True]
        assert all(
            isinstance(r, PipelineResult) for r in results if r.ok
        )
        for index in (1, 3):
            report = results[index]
            assert isinstance(report, FailureReport)
            assert report.index == index
            assert report.name == f"deck{index}"
            assert report.stage == "parse"
            assert report.exception_chain
            assert "SpiceSyntaxError" in report.error
        # Diagnostics carry the offending line numbers.
        assert [d.line for d in results[1].diagnostics] == [2]
        assert [d.line for d in results[3].diagnostics] == [3]

    def test_survivors_match_a_clean_run(self, pipeline, good_decks):
        mixed = [good_decks[0], BAD_MOS_DECK, good_decks[1]]
        results = pipeline.run_many(mixed, on_error="report")
        clean = [pipeline.run(good_decks[0]), pipeline.run(good_decks[1])]
        for got, want in zip([results[0], results[2]], clean):
            assert (
                got.annotation.element_classes
                == want.annotation.element_classes
            )

    def test_on_error_raise_is_the_default(self, pipeline, good_decks):
        with pytest.raises(SpiceSyntaxError):
            pipeline.run_many([good_decks[0], BAD_MOS_DECK], workers=1)

    def test_invalid_on_error_rejected(self, pipeline, good_decks):
        with pytest.raises(ValueError, match="on_error"):
            pipeline.run_many(good_decks, on_error="ignore")

    def test_failure_summary_names_the_item(self, pipeline):
        [report] = pipeline.run_many(
            [BAD_MOS_DECK], names=["broken_amp"], on_error="report"
        )
        assert "broken_amp" in report.summary()
        assert "parse" in report.summary()


class TestTimeouts:
    def test_hanging_deck_times_out_alone(
        self, pipeline, good_decks, monkeypatch
    ):
        import repro.core.pipeline as pipeline_module

        real_parse = pipeline_module.parse_netlist

        def slow_parse(text, **kwargs):
            if "hangme" in text:
                time.sleep(30)
            return real_parse(text, **kwargs)

        monkeypatch.setattr(pipeline_module, "parse_netlist", slow_parse)
        started = time.monotonic()
        results = pipeline.run_many(
            [good_decks[0], "* hangme\n.end\n"],
            on_error="report",
            workers=1,
            timeout=0.5,
        )
        assert time.monotonic() - started < 20
        assert results[0].ok
        assert not results[1].ok
        assert "BudgetExceeded" in results[1].error
        assert "wall-clock" in results[1].error


def _crash_once(path_and_item):
    """Kill the worker process hard on the first attempt only."""
    marker, item = path_and_item
    if os.path.exists(marker):
        try:
            os.unlink(marker)
        except OSError:
            pass
        os._exit(1)
    return item * 2


def _always_raise(item):
    raise ValueError(f"poisoned item {item}")


class TestPoolRecovery:
    def test_transient_crash_is_retried(self, tmp_path):
        marker = tmp_path / "crash-once"
        marker.write_text("armed")
        items = [(str(marker), i) for i in range(8)]
        out = parallel_map(
            _crash_once, items, workers=2, pool_retries=2, backoff=0.01
        )
        assert out == [i * 2 for i in range(8)]

    def test_serial_fallback_chains_pool_failure(self, caplog):
        # A ValueError out of the pool is fatal (never retried); the
        # serial rerun fails too, and must chain the pool failure so
        # batch failures stay debuggable (the ISSUE 2 satellite bugfix).
        with caplog.at_level(logging.WARNING, logger="repro.runtime.parallel"):
            with pytest.raises(ValueError, match="poisoned") as info:
                parallel_map(_always_raise, [1, 2, 3, 4], workers=2)
        assert info.value.__cause__ is not None
        assert "poisoned" in str(info.value.__cause__)
        assert any(
            "falling back to the serial path" in record.getMessage()
            for record in caplog.records
        )

    def test_unpicklable_payload_falls_back_serially(self, caplog):
        # A lambda cannot cross the process boundary; the map must
        # still produce correct results via the logged serial path,
        # without forking a pool it could never feed.
        shutdown_pools()
        with caplog.at_level(logging.WARNING, logger="repro.runtime.parallel"):
            out = parallel_map(lambda x: x + 1, [1, 2, 3, 4], workers=2)
        assert out == [2, 3, 4, 5]
        assert any(
            "falling back to the serial path" in record.getMessage()
            for record in caplog.records
        )
        assert not parallel._POOLS


class TestCacheCorruption:
    def test_truncated_entry_is_a_miss(self, quick_ota_annotator, tmp_path):
        cache = ModelCache(tmp_path)
        path = cache.store("victim", quick_ota_annotator)
        assert path is not None and path.exists()
        assert cache.load("victim") is not None
        # Simulate a torn write / disk corruption.
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        assert cache.load("victim") is None
        assert not path.exists()  # bad entry evicted

    def test_garbage_entry_is_a_miss(self, tmp_path):
        cache = ModelCache(tmp_path)
        cache.path_for("junk").parent.mkdir(parents=True, exist_ok=True)
        cache.path_for("junk").write_bytes(b"not an npz at all")
        assert cache.load("junk") is None
