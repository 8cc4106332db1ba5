"""What the traced run times, and how its spans become per-layer metrics.

The layers are the program's modules on the annotation path: ``spice``,
``graph``, ``gcn``, ``primitives``, ``core`` and ``runtime``.  Each
target below names a public function or method one of them exposes;
the span name says which metric its self time feeds.
"""

from __future__ import annotations

import bisect
import gc
import pickle
import sys

from spans import Span, Target
from stats import self_times


def _devices_out(result, args, kwargs) -> int:
    reduced, _report = result
    return len(reduced.devices)


def _vertices(result, args, kwargs) -> int:
    return result.n_vertices


def _found(result, args, kwargs) -> int:
    return 1 if result else 0


def _ipc_bytes(result, args, kwargs):
    """Pickled size of the jobs sent to and the results sent back from
    the pool, measured after the op so pickling is not timed."""
    items = args[1] if len(args) > 1 else kwargs["items"]
    return lambda: len(pickle.dumps(list(items))) + len(pickle.dumps(result))


def _evaluating(args, kwargs) -> bool:
    training = kwargs["training"] if "training" in kwargs else args[2]
    return not training


TARGETS = (
    Target("spice.parse", "repro.spice.parser:parse_netlist"),
    Target("spice.flatten", "repro.spice.flatten:flatten"),
    Target("spice.flatten", "repro.spice.flatten:flatten_hierarchical"),
    Target("spice.preprocess", "repro.spice.preprocess:preprocess", value=_devices_out),
    Target("graph.build", "repro.graph.bipartite:CircuitGraph.from_circuit", value=_vertices),
    Target("graph.ccc", "repro.graph.ccc:channel_connected_components"),
    Target("gcn.sample", "repro.gcn.samples:GraphSample.from_graph"),
    Target("gcn.infer", "repro.gcn.model:GCNModel.predict_proba"),
    Target("gcn.infer", "repro.gcn.model:GCNModel.predict_proba_batch"),
    Target("gcn.pack", "repro.gcn.batch:pack_samples"),
    Target("primitives.match", "repro.primitives.matcher:annotate_components"),
    Target("primitives.vf2", "repro.primitives.matcher:find_primitive_matches", value=_found),
    Target("core.post1", "repro.core.postprocess:postprocess_ccc"),
    Target("core.post2", "repro.core.postprocess:apply_port_rules"),
    Target("core.hierarchy", "repro.core.pipeline:build_hierarchy"),
    Target("core.stages", "repro.core.stages:StagedRunner.execute"),
    Target("core.fingerprint", "repro.core.stages:content_fingerprint"),
    *(
        Target("core.hier", f"repro.core.hier_annotate:HierMatchCache.{method}")
        for method in ("__init__", "subgraph_key", "load", "store", "finalize")
    ),
    Target("core.hier", "repro.core.hier_annotate:annotate_definitions"),
    Target("runtime.map", "repro.runtime.parallel:parallel_map", value=_ipc_bytes),
    # What a pool worker runs per task; only its busy time is used.
    Target("runtime.task", "repro.core.pipeline:_run_pipeline_chunk"),
    Target("runtime.task", "repro.core.pipeline:_run_pipeline_job"),
)

#: Training internals, installed on ``train`` only.  Inference runs the
#: same layers, but there they stay inside ``gcn.infer``.
TRAINING_TARGETS = (
    *(
        Target(span, f"repro.gcn.layers:{cls}.{method}")
        for span, classes in (
            ("gcn.cheb", ("ChebConv",)),
            ("gcn.dense", ("Dense",)),
            ("gcn.norm", ("BatchNorm",)),
            ("gcn.pool", ("GraphPool", "GraphUnpool")),
        )
        for cls in classes
        for method in ("forward", "backward")
    ),
    Target("gcn.loss", "repro.gcn.loss:batched_cross_entropy"),
    *(
        Target("gcn.optim", f"repro.gcn.optim:{cls}.step")
        for cls in ("Optimizer", "Adam", "SGD")
    ),
    # Validation forwards count whole: nested layer spans are dropped.
    Target("gcn.eval", "repro.gcn.model:GCNModel.forward_packed", when=_evaluating, opaque=True),
)

#: Per-layer time metric -> the spans whose self time it sums.
SECONDS = {
    "spice.parse_s": "spice.parse",
    "spice.flatten_s": "spice.flatten",
    "spice.preprocess_s": "spice.preprocess",
    "graph.build_s": "graph.build",
    "graph.ccc_s": "graph.ccc",
    "gcn.sample_s": "gcn.sample",
    "gcn.infer_s": "gcn.infer",
    "gcn.pack_s": "gcn.pack",
    "gcn.cheb_s": "gcn.cheb",
    "gcn.dense_s": "gcn.dense",
    "gcn.norm_s": "gcn.norm",
    "gcn.pool_s": "gcn.pool",
    "gcn.loss_s": "gcn.loss",
    "gcn.optim_s": "gcn.optim",
    "gcn.eval_s": "gcn.eval",
    "primitives.match_s": "primitives.match",
    "primitives.vf2_s": "primitives.vf2",
    "core.post1_s": "core.post1",
    "core.post2_s": "core.post2",
    "core.hierarchy_s": "core.hierarchy",
    "core.stages_s": "core.stages",
    "core.fingerprint_s": "core.fingerprint",
    "core.hier_s": "core.hier",
    "runtime.map_s": "runtime.map",
}

#: The program's process-global memos, as (module, name).
MEMOS = (
    ("repro.graph.laplacian", "_LMAX_MEMO"),
    ("repro.primitives.library", "_TEMPLATE_FP_MEMO"),
    ("repro.primitives.index", "_PROFILE_MEMO"),
    ("repro.spice.flatten", "_DEF_FP_MEMO"),
    ("repro.core.stages", "_ANNOTATOR_FP_MEMO"),
    ("repro.spice.netlist", "_POWER_NET_MEMO"),
    ("repro.core.hier_annotate", "_PRED_PROFILE_MEMO"),
    ("repro.core.hier_annotate", "_DEF_ANN_MEMO"),
)


def memo_entries() -> dict[str, int]:
    """Entry count of each memo in this process, read from outside.
    A memo whose module is not loaded, or that no longer exists,
    reads as zero."""
    # Identity-keyed memos drop entries when their keys are collected;
    # collect first so the count does not depend on collector timing.
    gc.collect()
    out = {}
    for module_name, name in MEMOS:
        memo = getattr(sys.modules.get(module_name), name, None)
        out[name] = len(memo) if memo is not None else 0
    return out


def assign_ops(spans: list[Span], windows: list[tuple[float, float, int]]) -> list[int | None]:
    """Op id of each span: its own when the op loop set one, else the
    op whose window (start, end, op) holds the span's start -- how
    spans from pool workers find their op."""
    starts = [w[0] for w in windows]
    out = []
    for span in spans:
        if span.op is not None:
            out.append(span.op)
            continue
        k = bisect.bisect_right(starts, span.start) - 1
        inside = k >= 0 and span.start <= windows[k][1]
        out.append(windows[k][2] if inside else None)
    return out


def aggregate(processes: list[list[Span]], windows: list[tuple[float, float, int]],
              scale: dict[int, float], workers: int) -> dict[str, float]:
    """Per-op layer metrics from the spans of every process.

    ``processes[0]`` is the process that ran the op loop; the rest are
    pool workers.  ``windows`` lists each measured op as (start, end,
    op); ``scale[op]`` is that op's host-normalization factor.  Times
    are normalized self seconds per op; counts are per op.
    """
    n_ops = len(windows)
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    values: dict[str, float] = {}
    busy = 0.0
    map_wall = 0.0
    for p, spans in enumerate(processes):
        ops = assign_ops(spans, windows)
        own = self_times([(s.parent, s.start, s.end) for s in spans])
        for span, op, self_s in zip(spans, ops, own):
            if op is None or op not in scale:
                continue
            seconds[span.name] = seconds.get(span.name, 0.0) + self_s * scale[op]
            counts[span.name] = counts.get(span.name, 0) + 1
            if isinstance(span.value, (int, float)):
                values[span.name] = values.get(span.name, 0) + span.value
            if p > 0 and span.parent == -1:
                busy += span.end - span.start
            if p == 0 and span.name == "runtime.map":
                map_wall += span.end - span.start
    per_op = max(n_ops, 1)
    out = {metric: seconds.get(name, 0.0) / per_op for metric, name in SECONDS.items()}
    launches = counts.get("primitives.vf2", 0)
    out.update({
        "spice.devices_out": values.get("spice.preprocess", 0) / per_op,
        "graph.vertices": values.get("graph.build", 0) / per_op,
        "primitives.launches": launches / per_op,
        "primitives.yield": values.get("primitives.vf2", 0) / launches if launches else 0.0,
        "core.fingerprint_calls": counts.get("core.fingerprint", 0) / per_op,
        "runtime.ipc_bytes": values.get("runtime.map", 0) / per_op,
        "runtime.worker_idle_share": 1 - busy / (workers * map_wall) if map_wall else 0.0,
    })
    return out
