"""Command-line interface behaviour (library-level, no subprocess)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.datasets.ota import OtaSpec, generate_ota
from repro.spice.writer import write_circuit


@pytest.fixture()
def deck_path(tmp_path):
    lc = generate_ota(OtaSpec(topology="five_transistor"), name="cli_case")
    path = tmp_path / "cli_case.sp"
    path.write_text(write_circuit(lc.circuit))
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_annotate_args(self):
        args = build_parser().parse_args(
            ["annotate", "x.sp", "--task", "rf", "--port", "rfin=antenna"]
        )
        assert args.task == "rf"
        assert args.port == ["rfin=antenna"]

    def test_unknown_task_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["annotate", "x.sp", "--task", "dsp"])


class TestPrimitivesCommand:
    def test_lists_21(self, capsys):
        assert main(["primitives"]) == 0
        out = capsys.readouterr().out
        assert "21 primitives" in out
        assert "DP-N" in out

    def test_extended_lists_23(self, capsys):
        assert main(["primitives", "--extended"]) == 0
        out = capsys.readouterr().out
        assert "23 primitives" in out
        assert "BUF" in out


class TestDatasetsCommand:
    def test_writes_decks_and_labels(self, tmp_path, capsys):
        out_dir = tmp_path / "decks"
        assert (
            main(
                ["datasets", "--task", "ota", "-n", "3", "--out-dir", str(out_dir)]
            )
            == 0
        )
        decks = list(out_dir.glob("*.sp"))
        labels = list(out_dir.glob("*.labels.json"))
        assert len(decks) == 3
        assert len(labels) == 3
        payload = json.loads(labels[0].read_text())
        assert set(payload.values()) <= {"ota", "bias"}


class TestTrainAndAnnotate:
    def test_train_then_annotate(self, tmp_path, deck_path, capsys, monkeypatch):
        # Shrink quick training so the CLI test stays fast.
        import repro.datasets.synth as synth

        original = synth.pretrain_annotator

        def fast(task, quick=True, seed=0, **kwargs):
            return original(task, quick=quick, seed=seed, train_size=16)

        monkeypatch.setattr(synth, "pretrain_annotator", fast)
        import repro.cli as cli_module

        model_path = tmp_path / "model.npz"
        assert main(["train", "--task", "ota", "--quick", "--out", str(model_path)]) == 0
        assert model_path.exists()

        assert (
            main(
                [
                    "annotate",
                    str(deck_path),
                    "--task",
                    "ota",
                    "--model",
                    str(model_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "hierarchy" in out
        assert "constraints" in out

    def test_annotate_json_output(self, tmp_path, deck_path, capsys, monkeypatch):
        import repro.datasets.synth as synth

        original = synth.pretrain_annotator
        monkeypatch.setattr(
            synth,
            "pretrain_annotator",
            lambda task, quick=True, seed=0, **kw: original(
                task, quick=quick, seed=seed, train_size=16
            ),
        )
        model_path = tmp_path / "m.npz"
        main(["train", "--task", "ota", "--quick", "--out", str(model_path)])
        capsys.readouterr()  # drop the train command's output
        assert (
            main(
                [
                    "annotate",
                    str(deck_path),
                    "--task",
                    "ota",
                    "--model",
                    str(model_path),
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert "devices" in payload and "hierarchy" in payload


class TestExportDir:
    def test_exports_written(self, tmp_path, deck_path, capsys, monkeypatch):
        import repro.datasets.synth as synth

        original = synth.pretrain_annotator
        monkeypatch.setattr(
            synth,
            "pretrain_annotator",
            lambda task, quick=True, seed=0, **kw: original(
                task, quick=quick, seed=seed, train_size=16
            ),
        )
        model_path = tmp_path / "m.npz"
        main(["train", "--task", "ota", "--quick", "--out", str(model_path)])
        out_dir = tmp_path / "exports"
        assert (
            main(
                [
                    "annotate", str(deck_path), "--task", "ota",
                    "--model", str(model_path),
                    "--export-dir", str(out_dir),
                ]
            )
            == 0
        )
        assert (out_dir / "constraints.json").exists()
        assert (out_dir / "hierarchy.json").exists()
        assert (out_dir / "hierarchy.dot").exists()
        assert (out_dir / "graph.dot").exists()
        payload = json.loads((out_dir / "constraints.json").read_text())
        assert isinstance(payload, list)

    def test_export_dir_rejects_batches(self, tmp_path, deck_path, capsys):
        """A batch has no single result to export: refused, not dropped."""
        out_dir = tmp_path / "exports"
        code = main(
            ["annotate", str(deck_path), str(deck_path),
             "--export-dir", str(out_dir)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "single netlist" in err
        assert not out_dir.exists()


@pytest.fixture()
def quick_model(tmp_path, monkeypatch):
    import repro.datasets.synth as synth

    original = synth.pretrain_annotator
    monkeypatch.setattr(
        synth,
        "pretrain_annotator",
        lambda task, quick=True, seed=0, **kw: original(
            task, quick=quick, seed=seed, train_size=16
        ),
    )
    model_path = tmp_path / "m.npz"
    main(["train", "--task", "ota", "--quick", "--out", str(model_path)])
    return model_path


class TestStagedFlags:
    """ISSUE 4: --stop-after / --resume-from / --save-artifacts /
    --artifact-cache on the annotate subcommand."""

    def test_stop_after_choices_are_canonical(self):
        from repro.core.stages import STAGE_ORDER

        for name in (s.value for s in STAGE_ORDER):
            args = build_parser().parse_args(
                ["annotate", "x.sp", "--stop-after", name]
            )
            assert args.stop_after == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["annotate", "x.sp", "--stop-after", "not-a-stage"]
            )

    def test_stop_save_resume_round_trip(
        self, tmp_path, deck_path, quick_model, capsys
    ):
        art_dir = tmp_path / "artifacts"
        code = main(
            ["annotate", str(deck_path), "--task", "ota",
             "--model", str(quick_model),
             "--stop-after", "graph", "--save-artifacts", str(art_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stopped after stage 'graph'" in out
        saved = sorted(p.name for p in art_dir.glob("*.artifact.pkl"))
        assert saved == [
            "0-parse.artifact.pkl",
            "1-preprocess.artifact.pkl",
            "2-graph.artifact.pkl",
        ]

        # Resume without re-giving the netlist: the run completes.
        code = main(
            ["annotate", "--task", "ota", "--model", str(quick_model),
             "--resume-from", str(art_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hierarchy" in out
        assert "constraints" in out

    def test_artifact_cache_flag_populates_cache(
        self, tmp_path, deck_path, quick_model, capsys
    ):
        cache_dir = tmp_path / "artifact-cache"
        for _ in range(2):  # cold run stores, warm run loads
            assert (
                main(
                    ["annotate", str(deck_path), "--task", "ota",
                     "--model", str(quick_model),
                     "--artifact-cache", str(cache_dir)]
                )
                == 0
            )
        capsys.readouterr()
        assert list(cache_dir.glob("*.pkl"))

    def test_staged_flags_reject_batches(self, deck_path, capsys):
        code = main(
            ["annotate", str(deck_path), str(deck_path),
             "--stop-after", "graph"]
        )
        assert code == 2
        assert "single netlist" in capsys.readouterr().err

    def test_no_netlist_and_no_resume_rejected(self, capsys):
        code = main(["annotate"])
        assert code == 2
        assert "resume-from" in capsys.readouterr().err


#: One subckt, instantiated once plain and once with ``m=2``.
OTACELL_MULTIPLIER_DECK = """
* one ota cell definition, two multipliers
.global vdd! gnd!
.subckt otacell vinp vinn voutp voutn
m0 n1 n1 gnd! gnd! nmos w=1u l=100n
m1 id n1 gnd! gnd! nmos w=1u l=100n
m2 voutn vinp id gnd! nmos w=2u l=100n
m3 voutp vinn id gnd! nmos w=2u l=100n
m4 voutn vbp vdd! vdd! pmos w=4u l=100n
m5 voutp vbp vdd! vdd! pmos w=4u l=100n
.ends
x0 a0 b0 c0 d0 otacell
x1 a1 b1 c1 d1 otacell m=2
.end
"""


class TestHierOutput:
    def test_hier_json_and_summary(self, tmp_path, quick_model, capsys):
        from repro.core.stages import HierReport

        deck = tmp_path / "otacells.sp"
        deck.write_text(OTACELL_MULTIPLIER_DECK)
        capsys.readouterr()  # drop the train command's output
        argv = [
            "annotate", str(deck), "--task", "ota",
            "--model", str(quick_model), "--json",
        ]
        assert main(argv + ["--hier"]) == 0
        captured = capsys.readouterr()
        hier = json.loads(captured.out)["hier"]
        assert set(hier) == set(HierReport().as_dict())
        assert "definitions" not in hier
        assert (
            "hier: 2 instance(s) of 2 (definition, multiplier) group(s);"
            in captured.err
        )

        assert main(argv + ["--flat"]) == 0
        assert json.loads(capsys.readouterr().out)["hier"] is None

    def test_hier_tree_refuses_a_batch(
        self, tmp_path, deck_path, quick_model, capsys
    ):
        other = tmp_path / "otacells.sp"
        other.write_text(OTACELL_MULTIPLIER_DECK)
        capsys.readouterr()  # drop the train command's output
        code = main(
            ["annotate", str(deck_path), str(other), "--task", "ota",
             "--model", str(quick_model), "--hier-tree"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --hier-tree takes one deck, not a batch\n"


class TestBatchJson:
    def test_batch_records_are_single_deck_records(
        self, tmp_path, deck_path, quick_model, capsys
    ):
        other = tmp_path / "otacells.sp"
        other.write_text(OTACELL_MULTIPLIER_DECK)
        base = ["--task", "ota", "--model", str(quick_model), "--json"]
        capsys.readouterr()  # drop the train command's output
        assert main(["annotate", str(deck_path), str(other), *base]) == 0
        batch = json.loads(capsys.readouterr().out)
        assert [record["netlist"] for record in batch] == [
            str(deck_path),
            str(other),
        ]
        for record, path in zip(batch, (deck_path, other)):
            assert main(["annotate", str(path), *base]) == 0
            single = json.loads(capsys.readouterr().out)
            assert list(record) == ["netlist", *single]
            assert set(record["timings"]) == set(single["timings"])
            for key in ("netlist", "timings"):
                record.pop(key)
            single.pop("timings")
            assert record == single


class TestErrorHandling:
    """ISSUE 2 satellite: GanaError → one-line diagnostic, non-zero exit."""

    BAD_DECK = "* corrupted\nm1 n1 inp vss nmos\n.end\n"

    @pytest.fixture()
    def bad_path(self, tmp_path):
        path = tmp_path / "bad.sp"
        path.write_text(self.BAD_DECK)
        return path

    @pytest.fixture()
    def quick_model(self, tmp_path, monkeypatch):
        import repro.datasets.synth as synth

        original = synth.pretrain_annotator
        monkeypatch.setattr(
            synth,
            "pretrain_annotator",
            lambda task, quick=True, seed=0, **kw: original(
                task, quick=quick, seed=seed, train_size=16
            ),
        )
        model_path = tmp_path / "m.npz"
        main(["train", "--task", "ota", "--quick", "--out", str(model_path)])
        return model_path

    def test_strict_error_is_one_line_with_line_number(
        self, bad_path, quick_model, capsys
    ):
        code = main(
            ["annotate", str(bad_path), "--task", "ota",
             "--model", str(quick_model)]
        )
        assert code == 1
        err = capsys.readouterr().err
        error_lines = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(error_lines) == 1
        assert "SpiceSyntaxError" in error_lines[0]
        assert "line 2" in error_lines[0]
        assert "hint" in error_lines[0]

    def test_lenient_recovers_and_reports(
        self, bad_path, quick_model, capsys
    ):
        code = main(
            ["annotate", str(bad_path), "--task", "ota",
             "--model", str(quick_model), "--lenient"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "line 2" in err  # diagnostic surfaced on stderr

    def test_strict_and_lenient_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["annotate", "x.sp", "--strict", "--lenient"]
            )

    def test_lenient_json_carries_diagnostics(
        self, bad_path, quick_model, capsys
    ):
        code = main(
            ["annotate", str(bad_path), "--task", "ota",
             "--model", str(quick_model), "--lenient", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"]
        assert payload["diagnostics"][0]["line"] == 2

    def test_lenient_batch_isolates_failures(
        self, tmp_path, deck_path, quick_model, capsys
    ):
        # A >64-deep hierarchy trips flatten's MAX_DEPTH guard, which
        # raises even in lenient mode — a genuine per-deck failure.
        deep = "".join(
            f".subckt c{i} p\nx1 p c{i + 1}\n.ends\n" for i in range(70)
        ) + ".subckt c70 p\nr1 p 0 1k\n.ends\nx0 n c0\n.end\n"
        poisoned = tmp_path / "deep.sp"
        poisoned.write_text(deep)
        code = main(
            ["annotate", str(deck_path), str(poisoned), "--task", "ota",
             "--model", str(quick_model), "--lenient", "--workers", "1"]
        )
        assert code == 1  # one deck failed → non-zero exit
        captured = capsys.readouterr()
        assert "failed in stage" in captured.err
        assert "deep" in captured.err
        # The healthy deck was still annotated.
        assert str(deck_path) in captured.out
