"""Differential oracle registry.

Each oracle takes one generated deck and runs it through a *pair* of
execution paths that the repo promises are equivalent, raising
:class:`DivergenceError` on the first observable difference:

====================  =====================================================
oracle                paired paths
====================  =====================================================
parse_modes           strict parse/flatten vs lenient on clean decks
                      (identical flat circuit); strict-fatal vs
                      lenient-recovered on dirty decks
elaboration           ``flatten`` vs ``flatten_hierarchical`` flat circuit
include_roundtrip     ``.include``-split files vs self-contained text
indexed_matching      ``find_primitive_matches(indexed=True)`` vs the
                      naive ``indexed=False`` reference, per template;
                      per CCC, ``annotate_components`` vs naive
                      ``annotate_primitives`` on the CCC subgraph
packed_gcn            block isolation: ``GcnAnnotator.annotate_batch``
                      on a two-graph pack vs ``annotate`` (a pack of one);
                      the union sample of three generated graphs of
                      different sizes vs the graphs' own samples packed,
                      bit for bit
hier_vs_flat          ``run(hier=True)`` vs the flat run
warm_cache            warm :class:`ArtifactCache` re-run (all stages
                      cache-hit) vs the cold run
warm_shapes           ``run()`` on the campaign's pipeline, whose
                      library's shape table the earlier decks warmed,
                      vs the same templates in a new library
metamorphic           a random transform from
                      :mod:`repro.testing.metamorphic` + its invariant
====================  =====================================================

Function-level imports that an oracle dereferences at call time
(``find_primitive_matches`` in particular) are module attributes on
purpose: a test can monkeypatch
``repro.testing.oracles.find_primitive_matches`` to inject a fault and
watch the fuzzer catch and shrink it.
"""

from __future__ import annotations

import dataclasses
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.stages import pipeline_result_fingerprint
from repro.exceptions import GanaError, ModelConfigError
from repro.gcn.batch import pack_samples
from repro.gcn.samples import GraphSample
from repro.graph.bipartite import CircuitGraph
from repro.graph.ccc import channel_connected_components
from repro.primitives.index import TargetContext
from repro.primitives.matcher import (
    annotate_components,
    annotate_primitives,
    find_primitive_matches,
)
from repro.spice.flatten import flatten, flatten_hierarchical
from repro.spice.parser import parse_netlist
from repro.testing.generator import GenConfig, GeneratedDeck, generate_deck
from repro.testing.metamorphic import (
    TRANSFORMS,
    InvariantViolation,
    apply_transform,
    check_invariant,
)


class DivergenceError(AssertionError):
    """Two supposedly equivalent execution paths disagreed."""

    def __init__(self, oracle: str, detail: str):
        super().__init__(f"[{oracle}] {detail}")
        self.oracle = oracle
        self.detail = detail


@dataclass
class OracleContext:
    """Shared (expensive) state for one fuzz campaign.

    The pipeline is built lazily so oracles that never annotate
    (parse/flatten/matching) stay model-free, and it is shared across
    iterations so the quick-trained annotator is paid for once.
    """

    seed: int = 0
    _pipeline: object = field(default=None, repr=False)

    @property
    def pipeline(self):
        if self._pipeline is None:
            from repro.core.pipeline import GanaPipeline

            self._pipeline = GanaPipeline.pretrained(
                "ota", quick=True, seed=0, train_size=150
            )
        return self._pipeline

    def rng(self, deck: GeneratedDeck, salt: str) -> random.Random:
        """Deterministic per-deck/per-oracle randomness."""
        return random.Random(f"{self.seed}:{deck.seed}:{salt}")


@dataclass(frozen=True)
class Oracle:
    """One registered differential check."""

    name: str
    description: str
    fn: Callable[[GeneratedDeck, OracleContext], None]
    #: Whether the check needs a trained annotator (model training /
    #: loading is the expensive part of a campaign).
    needs_pipeline: bool = False


ORACLES: dict[str, Oracle] = {}


def _oracle(description: str, needs_pipeline: bool = False):
    def register(fn):
        name = fn.__name__.removeprefix("check_")
        ORACLES[name] = Oracle(
            name=name,
            description=description,
            fn=fn,
            needs_pipeline=needs_pipeline,
        )
        return fn

    return register


def run_oracle(name: str, deck: GeneratedDeck, ctx: OracleContext) -> None:
    """Run one registered oracle; raises :class:`DivergenceError`."""
    ORACLES[name].fn(deck, ctx)


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def _diverge(oracle: str, detail: str) -> None:
    raise DivergenceError(oracle, detail)


def _circuit_repr(circuit) -> list[str]:
    return [repr(d) for d in circuit.devices]


def _flat_graph(deck: GeneratedDeck) -> CircuitGraph:
    netlist = parse_netlist(deck.text, mode=deck.mode)
    diags = [] if deck.mode == "lenient" else None
    return CircuitGraph.from_circuit(flatten(netlist, diagnostics=diags))


def _match_key(match) -> tuple:
    return (match.primitive, match.element_map, match.net_map)


# ---------------------------------------------------------------------------
# Parse / elaboration oracles (no model needed)
# ---------------------------------------------------------------------------


@_oracle(
    "strict vs lenient parse+flatten agree on clean decks; "
    "dirt is strict-fatal, lenient-recovered"
)
def check_parse_modes(deck: GeneratedDeck, ctx: OracleContext) -> None:
    if deck.mode == "strict":
        strict = flatten(parse_netlist(deck.text, mode="strict"))
        diags = []
        lenient_netlist = parse_netlist(deck.text, mode="lenient")
        lenient = flatten(lenient_netlist, diagnostics=diags)
        if _circuit_repr(strict) != _circuit_repr(lenient):
            _diverge(
                "parse_modes",
                "strict and lenient flat circuits differ on a clean deck",
            )
        if diags or lenient_netlist.diagnostics:
            _diverge(
                "parse_modes",
                f"lenient mode reported diagnostics on a clean deck: "
                f"{[d.message for d in diags + list(lenient_netlist.diagnostics)]}",
            )
        return
    # Dirty deck: the strict path must refuse it somewhere in
    # parse→flatten, the lenient path must absorb it with diagnostics.
    try:
        flatten(parse_netlist(deck.text, mode="strict"))
    except GanaError:
        pass
    else:
        _diverge("parse_modes", "strict mode accepted a dirty deck")
    diags = []
    netlist = parse_netlist(deck.text, mode="lenient")
    flatten(netlist, diagnostics=diags)
    if not (diags or netlist.diagnostics):
        _diverge(
            "parse_modes",
            "lenient mode recovered a dirty deck without diagnostics",
        )


@_oracle("flatten vs flatten_hierarchical produce the same flat circuit")
def check_elaboration(deck: GeneratedDeck, ctx: OracleContext) -> None:
    netlist = parse_netlist(deck.text, mode=deck.mode)
    diags = [] if deck.mode == "lenient" else None
    flat = flatten(netlist, diagnostics=diags)
    netlist2 = parse_netlist(deck.text, mode=deck.mode)
    diags2 = [] if deck.mode == "lenient" else None
    flat_h, tree = flatten_hierarchical(netlist2, diagnostics=diags2)
    if _circuit_repr(flat) != _circuit_repr(flat_h):
        _diverge(
            "elaboration",
            "flatten and flatten_hierarchical flat circuits differ",
        )
    known = {inst.path for inst in tree.instances}
    missing = {
        d.name.rsplit("/", 1)[0]
        for d in flat.devices
        if "/" in d.name
        and not any(d.name.startswith(p + "/") for p in known)
    }
    if missing:
        _diverge(
            "elaboration",
            f"DesignTree is missing instance paths: {sorted(missing)}",
        )


@_oracle(".include-split files expand to the self-contained deck")
def check_include_roundtrip(deck: GeneratedDeck, ctx: OracleContext) -> None:
    if not deck.files:
        return
    with tempfile.TemporaryDirectory(prefix="fuzz-inc-") as tmp:
        root = Path(tmp)
        for name, content in deck.files.items():
            (root / name).write_text(content)
        split = parse_netlist(
            deck.files["main.sp"], include_dir=root, mode=deck.mode
        )
        joined = parse_netlist(deck.text, mode=deck.mode)
        diags_s = [] if deck.mode == "lenient" else None
        diags_j = [] if deck.mode == "lenient" else None
        flat_s = flatten(split, diagnostics=diags_s)
        flat_j = flatten(joined, diagnostics=diags_j)
    if _circuit_repr(flat_s) != _circuit_repr(flat_j):
        _diverge(
            "include_roundtrip",
            ".include expansion and self-contained text flatten differently",
        )


@_oracle("indexed VF2 matching equals the naive indexed=False reference")
def check_indexed_matching(deck: GeneratedDeck, ctx: OracleContext) -> None:
    from repro.primitives.library import extended_library

    graph = _flat_graph(deck)
    library = extended_library()
    context = TargetContext.build(graph)
    for template in library.templates:
        naive = find_primitive_matches(template, graph, indexed=False)
        fast = find_primitive_matches(
            template, graph, context=context, indexed=True
        )
        if [_match_key(m) for m in naive] != [_match_key(m) for m in fast]:
            _diverge(
                "indexed_matching",
                f"template {template.name}: indexed path returned "
                f"{len(fast)} matches vs naive {len(naive)} "
                "(or same count, different content/order)",
            )
    # The hot path: per-CCC matching on the deck's own graph, claiming
    # included, against the naive reference on each CCC's subgraph.
    partition = channel_connected_components(graph)
    naive = [
        annotate_primitives(
            graph.subgraph_of_elements(members), library, indexed=False
        )
        for members in partition.components
    ]
    scoped = annotate_components(graph, partition, library)
    for cid, want in enumerate(naive):
        got = scoped[cid]
        if got.matches != want.matches or got.unclaimed != want.unclaimed:
            _diverge(
                "indexed_matching",
                f"CCC {cid}: annotate_components claimed "
                f"{len(got.matches)} matches, {len(got.unclaimed)} "
                f"unclaimed vs naive {len(want.matches)}, "
                f"{len(want.unclaimed)} (or same counts, different "
                "content/order)",
            )


# ---------------------------------------------------------------------------
# Pipeline oracles (need the trained annotator)
# ---------------------------------------------------------------------------


#: Companion decks of the union check: one smaller and one larger than
#: a typical campaign deck, so the union mixes graph sizes.
_UNION_COMPANIONS = (
    GenConfig(min_blocks=1, max_blocks=1, max_glue=1, max_subckts=0),
    GenConfig(min_blocks=5, max_blocks=8, max_glue=3),
)


@_oracle(
    "a graph's GCN rows in a two-graph pack equal its pack of one, and a "
    "union sample equals its graphs' own samples packed",
    needs_pipeline=True,
)
def check_packed_gcn(deck: GeneratedDeck, ctx: OracleContext) -> None:
    graph = _flat_graph(deck)
    annotator = ctx.pipeline.annotator
    rng = ctx.rng(deck, "packed_gcn")
    small, large = (
        _flat_graph(generate_deck(rng.randrange(2**31), config))
        for config in _UNION_COMPANIONS
    )
    _check_union(annotator, [large, graph, small])
    solo = annotator.annotate(graph)
    packed = annotator.annotate_batch([graph, graph])
    for i, ann in enumerate(packed):
        if not np.array_equal(ann.vertex_classes, solo.vertex_classes):
            _diverge(
                "packed_gcn",
                f"packed sample {i}: vertex classes differ from the pack of one",
            )
        if not np.allclose(
            ann.probabilities, solo.probabilities, rtol=1e-9, atol=1e-12
        ):
            worst = float(
                np.max(np.abs(ann.probabilities - solo.probabilities))
            )
            _diverge(
                "packed_gcn",
                f"packed sample {i}: probabilities drifted (max |Δ|={worst:g})",
            )


def _check_union(annotator, graphs: list[CircuitGraph]) -> None:
    """``annotate_batch``'s union sample against ``pack_samples`` of
    each graph's own sample: structure and probabilities, bit for bit.
    A union one of whose graphs coarsens out before the model's depth
    must fail as the packing fails."""
    model = annotator.model
    levels = model.config.levels_needed
    own = [GraphSample.from_graph(g, {}, levels=levels) for g in graphs]
    union = pack_samples([GraphSample.from_graphs(graphs, levels=levels)])
    packed = pack_samples(own)
    if len(union.offsets) != len(packed.offsets):
        _diverge(
            "packed_gcn",
            f"union has {len(union.offsets)} levels, "
            f"packing {len(packed.offsets)}",
        )
    arrays = [("features", union.features, packed.features)]
    for level, want in enumerate(packed.pyramid.laplacians):
        got = union.pyramid.laplacians[level]
        arrays.append(
            (f"level {level} offsets", union.offsets[level],
             packed.offsets[level])
        )
        for name in ("indptr", "indices", "data"):
            arrays.append(
                (f"level {level} Laplacian {name}", getattr(got, name),
                 getattr(want, name))
            )
    for level, want in enumerate(packed.pyramid.assignments):
        got = union.pyramid.assignments[level]
        arrays.append((f"level {level} assignment", got, want))
    for what, got, want in arrays:
        if got.dtype != want.dtype or got.tobytes() != want.tobytes():
            _diverge(
                "packed_gcn", f"union sample's {what} differs from packing"
            )
    try:
        want = model.predict_proba_batch(own)
    except ModelConfigError:
        want = None
    try:
        got = [a.probabilities for a in annotator.annotate_batch(graphs)]
    except ModelConfigError:
        got = None
    if (got is None) != (want is None):
        _diverge(
            "packed_gcn",
            "union and packing disagree on whether the model can run",
        )
    for i, (a, b) in enumerate(zip(got or [], want or [])):
        if a.tobytes() != b.tobytes():
            _diverge(
                "packed_gcn",
                f"union graph {i} ({graphs[i].n_vertices} vertices): "
                "probabilities differ from packing",
            )


@_oracle("hierarchy-scoped annotation is byte-identical to the flat path", needs_pipeline=True)
def check_hier_vs_flat(deck: GeneratedDeck, ctx: OracleContext) -> None:
    pipeline = ctx.pipeline
    flat = pipeline.run(deck.text, mode=deck.mode)
    hier = pipeline.run(deck.text, mode=deck.mode, hier=True)
    got = pipeline_result_fingerprint(hier)
    want = pipeline_result_fingerprint(flat)
    if got != want:
        _diverge(
            "hier_vs_flat",
            f"result fingerprints differ: hier {got[:12]} vs flat {want[:12]}",
        )


@_oracle("warm artifact-cache re-run hits every stage and matches cold", needs_pipeline=True)
def check_warm_cache(deck: GeneratedDeck, ctx: OracleContext) -> None:
    pipeline = ctx.pipeline
    with tempfile.TemporaryDirectory(prefix="fuzz-cache-") as tmp:
        cold_staged = pipeline.run_staged(
            deck.text, mode=deck.mode, artifact_cache=tmp
        )
        cold = pipeline.result_from_staged(cold_staged)
        warm_staged = pipeline.run_staged(
            deck.text, mode=deck.mode, artifact_cache=tmp
        )
        warm = pipeline.result_from_staged(warm_staged)
    missed = [
        s.value
        for s in warm_staged.artifacts
        if s not in warm_staged.cache_hits
    ]
    # The gcn stage (and everything downstream of it) deliberately
    # opts out of the content-addressed store when the pipeline holds
    # an injected fallback recognizer (no stable fingerprint) — mirror
    # that contract: parse/preprocess/graph must always hit warm; gcn+
    # only while gcn stays cacheable.
    gcn_cacheable = not (
        pipeline.fallback_recognizer is not None and pipeline.degrade
    )
    always_cached = {"parse", "preprocess", "graph"}
    missed = [
        s for s in missed if gcn_cacheable or s in always_cached
    ]
    if missed:
        _diverge(
            "warm_cache",
            f"warm run recomputed stages instead of cache-hitting: {missed}",
        )
    got = pipeline_result_fingerprint(warm)
    want = pipeline_result_fingerprint(cold)
    if got != want:
        _diverge(
            "warm_cache",
            f"warm result fingerprint {got[:12]} != cold {want[:12]}",
        )


@_oracle(
    "a library warmed by the campaign's earlier decks annotates like a fresh one",
    needs_pipeline=True,
)
def check_warm_shapes(deck: GeneratedDeck, ctx: OracleContext) -> None:
    from repro.primitives.library import PrimitiveLibrary

    pipeline = ctx.pipeline
    warm = pipeline.run(deck.text, mode=deck.mode)
    # The same templates in a new library: its shape table is empty.
    fresh = dataclasses.replace(
        pipeline, library=PrimitiveLibrary(list(pipeline.library.templates))
    ).run(deck.text, mode=deck.mode)
    got = pipeline_result_fingerprint(warm)
    want = pipeline_result_fingerprint(fresh)
    if got != want:
        _diverge(
            "warm_shapes",
            f"warm-library fingerprint {got[:12]} != fresh library {want[:12]}",
        )


@_oracle("a random metamorphic transform preserves its declared invariant", needs_pipeline=True)
def check_metamorphic(deck: GeneratedDeck, ctx: OracleContext) -> None:
    if deck.mode != "strict":
        return  # transforms re-serialize through the strict writer
    rng = ctx.rng(deck, "metamorphic")
    name = rng.choice(sorted(TRANSFORMS))
    transformed = apply_transform(name, deck.text, rng)
    if transformed.noop:
        return
    from repro.testing.metamorphic import Invariant

    pipeline = ctx.pipeline
    original = transformed_result = None
    if transformed.invariant in (
        Invariant.BYTE_IDENTICAL,
        Invariant.UP_TO_RENAME,
    ):
        original = pipeline.run(deck.text)
        transformed_result = pipeline.run(transformed.text)
    try:
        check_invariant(
            original, transformed_result, transformed, original_text=deck.text
        )
    except InvariantViolation as exc:
        _diverge("metamorphic", str(exc))
