"""Command-line interface.

::

    python -m repro annotate my_amp.sp --task ota [--model model.npz]
    python -m repro train --task rf --out model.npz [--quick]
    python -m repro primitives [--extended]
    python -m repro datasets --task ota -n 10 --out-dir decks/

``annotate`` prints the per-device annotation, the hierarchy tree, and
the discovered constraints.  ``train`` trains a recognition model on
generated data and saves its weights.  ``primitives`` lists the
template library.  ``datasets`` writes generated SPICE decks to disk.

Error handling: every library error (:class:`~repro.exceptions.GanaError`)
is caught at the top level and rendered as a one-line diagnostic —
with the offending line number and fix hint when the parser knows them
— and a non-zero exit code.  ``annotate --lenient`` recovers from bad
cards instead, reporting them as per-line diagnostics on stderr while
still annotating what parsed; in batch mode it additionally isolates
per-deck faults so one poisoned deck cannot sink the batch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _cmd_annotate(args: argparse.Namespace) -> int:
    from repro.core.annotator import GcnAnnotator
    from repro.core.pipeline import GanaPipeline
    from repro.datasets.synth import pretrain_annotator, task_classes
    from repro.gcn.model import GCNModel

    paths = [Path(p) for p in args.netlist]
    if not paths and not args.resume_from:
        print(
            "error: give at least one netlist (or --resume-from an artifact)",
            file=sys.stderr,
        )
        return 2
    missing = [p for p in paths if not p.is_file()]
    if missing:
        for p in missing:
            print(f"error: no such netlist: {p}", file=sys.stderr)
        return 2
    if len(paths) > 1 and (
        args.stop_after or args.resume_from or args.save_artifacts
        or args.export_dir
    ):
        print(
            "error: --stop-after/--resume-from/--save-artifacts/--export-dir "
            "work on a single netlist, not a batch",
            file=sys.stderr,
        )
        return 2
    if len(paths) > 1 and args.hier_tree:
        print("error: --hier-tree takes one deck, not a batch", file=sys.stderr)
        return 2
    if args.model:
        classes = task_classes(args.task)
        model = GCNModel.load(args.model)
        if model.config.n_classes != len(classes):
            print(
                f"error: model has {model.config.n_classes} classes but task "
                f"{args.task!r} needs {len(classes)}",
                file=sys.stderr,
            )
            return 2
        annotator = GcnAnnotator(model=model, class_names=classes)
    else:
        cache = False if args.no_cache else None
        print(
            "no --model given; training a quick model "
            "(cached across runs unless --no-cache) ...",
            file=sys.stderr,
        )
        annotator = pretrain_annotator(args.task, quick=True, cache=cache)
    pipeline = GanaPipeline(annotator=annotator)

    port_labels = {}
    for spec in args.port or []:
        net, _, label = spec.partition("=")
        port_labels[net] = label

    mode = "lenient" if args.lenient else "strict"
    if args.hier_tree and args.flat:
        print("error: --hier-tree implies --hier, not --flat", file=sys.stderr)
        return 2
    hier = bool(args.hier or args.hier_tree)
    if len(paths) > 1:
        return _annotate_batch(args, pipeline, paths, port_labels, mode, hier)
    if args.stop_after or args.resume_from:
        staged = pipeline.run_staged(
            paths[0].read_text() if paths else None,
            port_labels=port_labels,
            name=paths[0].stem if paths else "",
            mode=mode,
            artifact_cache=args.artifact_cache,
            save_artifacts=args.save_artifacts,
            resume_from=args.resume_from,
            stop_after=args.stop_after,
            hier=hier,
            hier_tree=bool(args.hier_tree),
        )
        if not staged.complete:
            return _report_staged_stop(args, staged)
        result = pipeline.result_from_staged(staged)
    else:
        result = pipeline.run(
            paths[0].read_text(),
            port_labels=port_labels,
            name=paths[0].stem,
            mode=mode,
            artifact_cache=args.artifact_cache,
            save_artifacts=args.save_artifacts,
            hier=hier,
            hier_tree=bool(args.hier_tree),
        )
    source = paths[0] if paths else Path(args.resume_from)
    _report_result_health(source, result)
    _report_hier_summary(result)

    if args.profile:
        Path(args.profile).write_text(json.dumps(result.profile, indent=2) + "\n")
        print(f"wrote stage/template profile to {args.profile}", file=sys.stderr)

    if args.export_dir:
        from repro.core.export import (
            constraints_json,
            graph_dot,
            hierarchy_dot,
            hierarchy_json,
        )

        out = Path(args.export_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "constraints.json").write_text(
            constraints_json(result.constraints)
        )
        (out / "hierarchy.json").write_text(hierarchy_json(result.hierarchy))
        (out / "hierarchy.dot").write_text(hierarchy_dot(result.hierarchy))
        (out / "graph.dot").write_text(
            graph_dot(result.graph, result.annotation)
        )
        print(f"wrote constraints/hierarchy/graph exports to {out}", file=sys.stderr)

    if args.json:
        print(json.dumps(_result_record(result), indent=2))
        return 0

    print("per-device annotation:")
    for device, cls in sorted(result.annotation.element_classes.items()):
        print(f"  {device:<16} {cls}")
    print("\nhierarchy:")
    print(result.hierarchy.render())
    print("\nconstraints:")
    for constraint in result.constraints:
        print(
            f"  {constraint.kind.value:<16} {', '.join(constraint.members)}"
            f"  ({constraint.source})"
        )
    return 0


def _result_record(result) -> dict:
    """The ``--json`` record of one annotated deck."""
    return {
        "devices": result.annotation.element_classes,
        "nets": result.annotation.net_classes,
        "hierarchy": result.hierarchy.to_dict(),
        "hier": result.hier.as_dict() if result.hier else None,
        "timings": result.timings,
        "degraded": result.degraded,
        "diagnostics": [d.to_dict() for d in result.diagnostics],
    }


def _report_staged_stop(args: argparse.Namespace, staged) -> int:
    """Render a staged run that halted before ``hierarchy``.

    One line per produced artifact (stage, fingerprint), flagged
    with the cache-hit marker and the saved path when applicable.
    """
    last = staged.last_artifact()
    print(f"stopped after stage {last.stage.value!r}:")
    for name, artifact in staged.artifacts.items():
        hit = "  (cache hit)" if name in staged.cache_hits else ""
        saved = staged.saved.get(name)
        where = f"  -> {saved}" if saved else ""
        print(f"  {artifact.describe()}{hit}{where}")
    for diag in staged.diagnostics:
        print(diag.format(), file=sys.stderr)
    if args.profile:
        Path(args.profile).write_text(json.dumps(staged.profile, indent=2) + "\n")
        print(f"wrote stage profile to {args.profile}", file=sys.stderr)
    return 0


def _report_hier_summary(result) -> None:
    """One stderr line summarizing the ``--hier`` report, if any."""
    report = getattr(result, "hier", None)
    if report is None:
        return
    print(
        f"hier: {report.n_instances} instance(s) of "
        f"{report.n_unique_groups} (definition, multiplier) group(s); "
        f"{report.reused} CCC(s) matched from an earlier same-shape "
        f"CCC's search",
        file=sys.stderr,
    )


def _report_result_health(path: Path, result) -> None:
    """Surface lenient-mode diagnostics and degradation on stderr."""
    for diag in result.diagnostics:
        print(f"{path}: {diag.format()}", file=sys.stderr)
    if result.degraded:
        print(
            f"{path}: warning: annotation degraded — {result.degraded_reason}",
            file=sys.stderr,
        )


def _annotate_batch(
    args: argparse.Namespace,
    pipeline,
    paths: list[Path],
    port_labels: dict,
    mode: str,
    hier: bool = False,
) -> int:
    """Batch-annotate several decks through ``GanaPipeline.run_many``.

    In lenient mode the batch is fault-isolated: a deck that still
    fails (or blows ``--timeout``) yields a one-line failure summary on
    stderr and a non-zero exit, but every other deck is annotated.
    """
    results = pipeline.run_many(
        [path.read_text() for path in paths],
        names=[path.stem for path in paths],
        port_labels=port_labels,
        workers=args.workers,
        mode=mode,
        on_error="report" if mode == "lenient" else "raise",
        timeout=args.timeout,
        artifact_cache=args.artifact_cache,
        hier=hier,
    )
    if args.profile:
        # Failed items carry the partial pre-failure profile too
        # (FailureReport.profile); it is None only when the item's
        # worker died.
        payload = [
            {
                "netlist": str(path),
                "profile": result.profile,
            }
            for path, result in zip(paths, results)
        ]
        Path(args.profile).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote stage/template profiles to {args.profile}", file=sys.stderr)
    failures = 0
    for path, result in zip(paths, results):
        if not result.ok:
            failures += 1
            print(f"{path}: {result.summary()}", file=sys.stderr)
            for diag in result.diagnostics:
                print(f"{path}: {diag.format()}", file=sys.stderr)
        else:
            _report_result_health(path, result)
            _report_hier_summary(result)
    if args.json:
        payload = []
        for path, result in zip(paths, results):
            if result.ok:
                payload.append({"netlist": str(path), **_result_record(result)})
            else:
                payload.append(
                    {
                        "netlist": str(path),
                        "failed": True,
                        "stage": result.stage,
                        "error": result.error,
                        "diagnostics": [
                            d.to_dict() for d in result.diagnostics
                        ],
                    }
                )
        print(json.dumps(payload, indent=2))
        return 1 if failures else 0
    for path, result in zip(paths, results):
        if not result.ok:
            continue
        print(f"=== {path} ===")
        for device, cls in sorted(result.annotation.element_classes.items()):
            print(f"  {device:<16} {cls}")
        print(result.hierarchy.render())
    return 1 if failures else 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.datasets.synth import pretrain_annotator
    from repro.gcn.train import FaultTolerance

    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    fault = None
    if args.checkpoint_dir or args.max_divergence_retries is not None:
        defaults = FaultTolerance()
        fault = FaultTolerance(
            checkpoint_dir=args.checkpoint_dir,
            resume=bool(args.resume),
            max_divergence_retries=(
                args.max_divergence_retries
                if args.max_divergence_retries is not None
                else defaults.max_divergence_retries
            ),
        )
    annotator = pretrain_annotator(
        args.task,
        quick=args.quick,
        seed=args.seed,
        cache=False if args.no_cache else None,
        workers=args.workers,
        fault=fault,
    )
    annotator.model.save(args.out)
    print(f"saved {args.task} model ({annotator.model.n_parameters()} params) to {args.out}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runtime.cache import ModelCache

    cache = ModelCache()
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached model(s) from {cache.directory}")
        return 0
    entries = cache.entries()
    print(f"cache dir: {cache.directory}  ({len(entries)} model(s))")
    for path in entries:
        print(f"  {path.name}  {path.stat().st_size} bytes")
    return 0


def _cmd_primitives(args: argparse.Namespace) -> int:
    from repro.primitives.library import default_library, extended_library

    library = extended_library() if args.extended else default_library()
    print(f"{len(library)} primitives:")
    for template in library:
        constraints = ", ".join(
            c.kind.value for c in template.constraints
        ) or "-"
        print(
            f"  {template.name:<12} {template.n_elements} elements   "
            f"constraints: {constraints}"
        )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.datasets.synth import (
        generate_ota_bias_dataset,
        generate_rf_dataset,
    )
    from repro.spice.writer import write_circuit

    generator = (
        generate_ota_bias_dataset if args.task == "ota" else generate_rf_dataset
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for item in generator(args.count, seed=args.seed):
        (out_dir / f"{item.name}.sp").write_text(write_circuit(item.circuit))
        (out_dir / f"{item.name}.labels.json").write_text(
            json.dumps(item.device_labels, indent=2)
        )
    print(f"wrote {args.count} decks (+labels) to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GANA: GCN-based automated netlist annotation (DATE 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.core.stages import STAGE_ORDER

    stage_names = tuple(s.value for s in STAGE_ORDER)

    annotate = sub.add_parser("annotate", help="annotate SPICE netlist(s)")
    annotate.add_argument(
        "netlist",
        nargs="*",
        help="path(s) to SPICE deck(s); several decks batch-annotate in "
        "parallel (may be omitted with --resume-from)",
    )
    annotate.add_argument("--task", choices=("ota", "rf"), default="ota")
    annotate.add_argument("--model", help="trained model .npz (else quick-train)")
    annotate.add_argument(
        "--port",
        action="append",
        metavar="NET=LABEL",
        help="testbench port label, e.g. rfin=antenna or lo=oscillating",
    )
    annotate.add_argument("--json", action="store_true", help="JSON output")
    annotate.add_argument(
        "--export-dir",
        help="write ALIGN-style constraints.json, hierarchy.json/dot, graph.dot",
    )
    annotate.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the trained-model cache (always retrain)",
    )
    annotate.add_argument(
        "--stop-after",
        choices=stage_names,
        metavar="STAGE",
        help="halt after the named stage "
        f"({', '.join(stage_names)}); pairs with --save-artifacts",
    )
    annotate.add_argument(
        "--resume-from",
        metavar="ARTIFACT",
        help="resume from a saved stage artifact (.artifact.pkl file or a "
        "directory of them); the netlist argument may then be omitted",
    )
    annotate.add_argument(
        "--save-artifacts",
        metavar="DIR",
        help="write every stage's artifact under DIR for later --resume-from",
    )
    annotate.add_argument(
        "--artifact-cache",
        metavar="DIR",
        help="per-stage incremental recompute: stages whose inputs are "
        "unchanged load their artifact from DIR instead of re-running",
    )
    annotate.add_argument(
        "--workers",
        type=int,
        help="process-pool size for batch annotation (default: GANA_WORKERS or cpu count)",
    )
    elaboration = annotate.add_mutually_exclusive_group()
    elaboration.add_argument(
        "--hier",
        action="store_true",
        help="hierarchy-scoped annotation: also record the subckt "
        "instance tree and report on it (the annotation is the flat "
        "path's, byte for byte)",
    )
    elaboration.add_argument(
        "--flat",
        action="store_true",
        help="force the flat annotation path (default)",
    )
    annotate.add_argument(
        "--hier-tree",
        action="store_true",
        help="with --hier (implied): nest recognized blocks under their "
        "owning subckt instances in the hierarchy tree (one deck only)",
    )
    strictness = annotate.add_mutually_exclusive_group()
    strictness.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first malformed card (default)",
    )
    strictness.add_argument(
        "--lenient",
        action="store_true",
        help="recover from malformed cards, reporting them as diagnostics;"
        " in batch mode also isolate per-deck failures",
    )
    annotate.add_argument(
        "--timeout",
        type=float,
        help="per-deck wall-clock ceiling in seconds for batch annotation",
    )
    annotate.add_argument(
        "--profile",
        metavar="OUT.json",
        help="write a stage/per-template profile of the run as JSON "
        "(a list keyed by netlist in batch mode)",
    )
    annotate.set_defaults(func=_cmd_annotate)

    train = sub.add_parser("train", help="train a recognition model")
    train.add_argument("--task", choices=("ota", "rf"), default="ota")
    train.add_argument("--out", required=True, help="output .npz path")
    train.add_argument("--quick", action="store_true", help="small/fast training")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the trained-model cache (always retrain)",
    )
    train.add_argument(
        "--workers",
        type=int,
        help="process-pool size for dataset generation (default: GANA_WORKERS or cpu count)",
    )
    train.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="write per-epoch training checkpoints to DIR (a killed run "
        "can resume with --resume)",
    )
    train.add_argument(
        "--resume",
        action="store_true",
        help="resume training from the newest checkpoint in "
        "--checkpoint-dir (corrupt/stale checkpoints are skipped with "
        "a warning)",
    )
    train.add_argument(
        "--max-divergence-retries",
        type=int,
        metavar="N",
        help="rollback budget for NaN/exploding-gradient recovery "
        "(default: 2; exhaustion aborts with a typed error)",
    )
    train.set_defaults(func=_cmd_train)

    cache = sub.add_parser("cache", help="inspect or clear the trained-model cache")
    cache.add_argument("--clear", action="store_true", help="delete all entries")
    cache.set_defaults(func=_cmd_cache)

    primitives = sub.add_parser("primitives", help="list the template library")
    primitives.add_argument(
        "--extended", action="store_true", help="include INV/BUF"
    )
    primitives.set_defaults(func=_cmd_primitives)

    datasets = sub.add_parser("datasets", help="write generated decks to disk")
    datasets.add_argument("--task", choices=("ota", "rf"), default="ota")
    datasets.add_argument("-n", "--count", type=int, default=10)
    datasets.add_argument("--out-dir", default="generated_decks")
    datasets.add_argument("--seed", default="cli")
    datasets.set_defaults(func=_cmd_datasets)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.exceptions import GanaError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GanaError as exc:
        # One line, with the offending line number and hint when the
        # error carries them (SpiceSyntaxError does; see exceptions.py).
        where = ""
        line = getattr(exc, "line", None)
        if line is not None:
            where = f" at line {line}"
        hint = getattr(exc, "hint", None)
        suffix = f" (hint: {hint})" if hint else ""
        message = getattr(exc, "message", None) or str(exc)
        print(
            f"error: {type(exc).__name__}{where}: {message}{suffix}",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
