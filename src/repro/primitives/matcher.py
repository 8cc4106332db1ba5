"""Primitive annotation: match the template library into a circuit
graph (Sec. IV-A).

For every library template the matcher runs VF2 against the target,
filters matches through the template's port-role predicates, collapses
automorphic duplicates (a differential pair matches twice under its own
symmetry), and resolves overlaps largest-template-first so that, e.g.,
a cascode current mirror is not also reported as two simple mirrors.

Two execution paths produce identical results (the property tests in
``tests/primitives/test_index.py`` assert exact equality):

* **indexed** (default) — per-template profiles and a shared per-target
  context (:mod:`repro.primitives.index`) amortize matcher setup, a
  kind-histogram test rejects impossible (template, target) pairs
  before any VF2 launch, and symmetry breaking skips automorphic
  duplicate branches;
* **naive** (``indexed=False``) — the original per-call construction,
  kept as the reference implementation and performance baseline.

:func:`annotate_components` scopes matching per channel-connected
component: one context per CCC *shape*, read in one pass out of the
deck's graph and only once some template needs a search, so repeated
sub-blocks (the channels of a phased array) are searched once per
call and only named per copy, with the library's order and template
profiles resolved once for all of them.  Every call
records what its matching cost, per template, into a
:class:`MatchStats`; the pipeline turns a run's stats into the
``per_template`` and ``counters`` sections of its profile.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any

from repro.core.constraints import Constraint
from repro.exceptions import BudgetExceeded
from repro.graph.bipartite import CircuitGraph
from repro.primitives.index import (
    TargetContext,
    TemplateProfile,
    canonical_image,
    member_shape,
    template_profile,
)
from repro.primitives.isomorphism import Isomorphism, VF2Matcher
from repro.primitives.library import (
    PrimitiveLibrary,
    PrimitiveTemplate,
    template_fingerprint,
)
from repro.runtime.resilience import Budget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.ccc import CCCPartition


@dataclass(frozen=True)
class PrimitiveMatch:
    """One recognized primitive instance in the target circuit."""

    primitive: str
    element_map: tuple[tuple[str, str], ...]  # template device → target device
    net_map: tuple[tuple[str, str], ...]  # template net → target net
    constraints: tuple[Constraint, ...]  # already renamed to target devices

    @property
    def elements(self) -> frozenset[str]:
        """Target device names claimed by this match."""
        return frozenset(name for _, name in self.element_map)

    @property
    def net_dict(self) -> dict[str, str]:
        return dict(self.net_map)

    def describe(self) -> str:
        devices = ", ".join(sorted(self.elements))
        return f"{self.primitive}({devices})"


def find_primitive_matches(
    template: PrimitiveTemplate,
    target: CircuitGraph,
    target_index=None,
    budget: Budget | None = None,
    *,
    profile: TemplateProfile | None = None,
    context: TargetContext | None = None,
    indexed: bool = True,
) -> list[PrimitiveMatch]:
    """All predicate-respecting, deduplicated matches of one template.

    ``target`` names the matches: its ``elements`` and ``nets``, in the
    numbering of the graph being searched.  ``target_index`` (a
    :class:`repro.primitives.signatures.TargetIndex`) shares the
    signature tables across templates of one circuit.  ``budget``
    bounds the underlying VF2 search; on exhaustion the raised
    :class:`~repro.exceptions.BudgetExceeded` carries the deduplicated
    matches translated so far as ``exc.partial``.

    ``indexed`` selects the hot path: the template's memoized
    :func:`~repro.primitives.index.template_profile` (or an explicit
    ``profile``) plus a shared ``context`` for the target's structure
    (built from ``target`` when not given), with symmetry breaking on.
    A target with no host for one of the template's elements or
    internal nets is answered before any matcher is constructed.  A
    completed search records its canonical images in
    ``context.searches``, where a later target of the same shape finds
    them (see :func:`annotate_components`).  ``indexed=False`` is the
    naive reference path — per-call setup, enumerate-all-then-
    deduplicate, nothing recorded — guaranteed to return the same
    matches.
    """
    # The profile also carries the automorphism group used to
    # canonicalize matches, so both paths resolve it (memoized).
    profile = profile or template_profile(template)
    if indexed:
        context = context or TargetContext.build(target)
        if not context.index.by_exact.keys() >= profile.exact_keys:
            context.searches[profile] = []  # some exact bucket is empty
            return []
        matcher = VF2Matcher(
            template.pattern, target, profile=profile, target_context=context
        )
    else:
        matcher = VF2Matcher(
            template.pattern,
            target,
            target_index=target_index,
            symmetry_break=False,
        )
    try:
        images = _images(profile, matcher.find_all(budget=budget))
    except BudgetExceeded as exc:
        exc.partial = _translate(
            profile, target, _images(profile, exc.partial or [])
        )
        raise
    if indexed:
        context.searches[profile] = images
    return _translate(profile, target, images)


def _images(
    profile: TemplateProfile, isos: list[Isomorphism]
) -> list[tuple[int, ...]]:
    """Each raw mapping's target-vertex tuple (``image[pattern_vertex]``),
    rewritten to its orbit-canonical representative under the profile's
    automorphism group, so the reported match does not depend on which
    orbit member the search happened to reach first — the naive and
    symmetry-broken paths report byte-identical matches."""
    automorphisms = profile.automorphisms
    # A complete mapping, sorted by pattern vertex: position = pv.
    images = [tuple(tv for _, tv in iso.mapping) for iso in isos]
    if automorphisms:
        images = [canonical_image(image, automorphisms) for image in images]
    return images


def _translate(
    profile: TemplateProfile, target, images: list[tuple[int, ...]]
) -> list[PrimitiveMatch]:
    """Named, deduplicated matches of canonical images.

    Port predicates are orbit invariants (semantic automorphisms
    preserve port predicate profiles), so they are checked on the
    canonical image, against ``target``'s net names; then duplicates on
    the same target elements (e.g. a DP arm swap) are dropped, and only
    the survivors are named and given their constraints.
    """
    n_el = profile.n_elements
    t_elements, t_nets = target.elements, target.nets
    t_n_el = len(t_elements)
    port_checks = profile.port_checks.items()
    seen: set[frozenset[int]] = set()
    matches: list[PrimitiveMatch] = []
    for image in images:
        if not all(
            predicate(t_nets[image[pv] - t_n_el])
            for pv, predicates in port_checks
            for predicate in predicates
        ):
            continue
        key = frozenset(image[:n_el])
        if key in seen:
            continue  # the devices of an earlier survivor
        seen.add(key)
        element_map = sorted(
            zip(
                profile.element_names,
                [t_elements[tv].name for tv in image[:n_el]],
            )
        )
        net_map = sorted(
            zip(profile.net_names, [t_nets[tv - t_n_el] for tv in image[n_el:]])
        )
        constraints = ()
        if profile.constraints:
            rename = dict(element_map)
            constraints = tuple(c.renamed(rename) for c in profile.constraints)
        matches.append(
            PrimitiveMatch(
                primitive=profile.name,
                element_map=tuple(element_map),
                net_map=tuple(net_map),
                constraints=constraints,
            )
        )
    # Canonical order: the search enumerates candidate pools (hash
    # sets) in an order that depends on which path built them, and
    # downstream overlap resolution claims devices in match order —
    # sort so both paths hand identical lists to the claimer.
    matches.sort(key=lambda m: (m.element_map, m.net_map))
    return matches


@dataclass
class AnnotationResult:
    """Outcome of annotating a circuit with the primitive library."""

    matches: list[PrimitiveMatch] = field(default_factory=list)
    unclaimed: list[str] = field(default_factory=list)  # device names

    @property
    def claimed(self) -> set[str]:
        out: set[str] = set()
        for match in self.matches:
            out |= match.elements
        return out

    def constraints(self) -> list[Constraint]:
        out: list[Constraint] = []
        for match in self.matches:
            out.extend(match.constraints)
        return out

    def by_primitive(self) -> dict[str, list[PrimitiveMatch]]:
        grouped: dict[str, list[PrimitiveMatch]] = {}
        for match in self.matches:
            grouped.setdefault(match.primitive, []).append(match)
        return grouped


@dataclass
class TemplateStats:
    """Accumulated matching statistics for one primitive template."""

    launches: int = 0
    matches: int = 0
    seconds: float = 0.0
    # Kind-histogram and claimed-device rejections (no VF2 launch).
    skips: int = 0
    # Answered by the search of an earlier same-shape CCC (no launch).
    shared: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "launches": self.launches,
            "matches": self.matches,
            "seconds": round(self.seconds, 6),
            "skips": self.skips,
            "shared": self.shared,
        }


@dataclass
class MatchStats:
    """What Postprocessing I's matching cost, per template, over a run.

    :func:`annotate_components` adds to it on every call: per template,
    the VF2 launches, matches found, seconds, skips (rejected without a
    launch) and shared answers (the search of an earlier CCC of the
    same shape in the same call); the ``ccc_matched`` counter, and
    ``match_cache_hits`` once a memo answered a template.  Without a
    memo, every CCC launches, shares or skips each template once.
    """

    templates: dict[str, TemplateStats] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """``per_template`` (most expensive first) and ``counters``."""
        return {
            "per_template": {
                name: stats.as_dict()
                for name, stats in sorted(
                    self.templates.items(),
                    key=lambda item: item[1].seconds,
                    reverse=True,
                )
            },
            "counters": dict(self.counters),
        }


class _Tally:
    """Per-plan-position event counts of one annotation call.

    List increments are the cheapest record a launch, a shared answer or
    a skip can leave; :meth:`merge_into` folds them into a
    :class:`MatchStats` by template name once the call ends.
    """

    __slots__ = (
        "launches", "matches", "seconds", "skips", "shared", "memo_hits"
    )

    def __init__(self, n: int):
        self.launches = [0] * n
        self.matches = [0] * n
        self.seconds = [0.0] * n
        self.skips = [0] * n
        self.shared = [0] * n
        self.memo_hits = 0

    def merge_into(self, stats: MatchStats, plan: list[tuple], cccs: int) -> None:
        for position, (template, _, _) in enumerate(plan):
            launches = self.launches[position]
            skips = self.skips[position]
            shared = self.shared[position]
            if not (launches or skips or shared):
                continue  # memo hits only: no per-template entry
            entry = stats.templates.get(template.name)
            if entry is None:
                entry = stats.templates[template.name] = TemplateStats()
            entry.launches += launches
            entry.matches += self.matches[position]
            entry.seconds += self.seconds[position]
            entry.skips += skips
            entry.shared += shared
        counters = stats.counters
        for key, n in (
            ("ccc_matched", cccs),
            ("match_cache_hits", self.memo_hits),
        ):
            if n:
                counters[key] = counters.get(key, 0) + n


def annotate_primitives(
    target: CircuitGraph,
    library: PrimitiveLibrary,
    budget: Budget | None = None,
    *,
    indexed: bool = True,
) -> AnnotationResult:
    """Recognize every primitive in ``target``.

    Each device is claimed for at most one primitive, visiting
    templates largest-first.

    ``budget`` is shared across all templates, bounding the *total*
    matching work for the circuit; on exhaustion the raised
    :class:`~repro.exceptions.BudgetExceeded` carries the partial
    :class:`AnnotationResult` (matches accepted before the cutoff, plus
    the partial matches of the interrupted template) as ``exc.partial``.

    On the indexed path one :class:`TargetContext`, built at the first
    template that needs a search, serves every template, and a
    template whose element-kind histogram cannot be covered by the
    target's is skipped without launching VF2 — on small CCCs this
    rejects most of the library in O(1) each — and so is a template the
    still-unclaimed devices cannot host.
    """
    plan = _library_plan(library, keyed=False)
    return _annotate(
        target,
        plan,
        partial(TargetContext.build, target),
        indexed=indexed,
        budget=budget,
        tally=_Tally(len(plan)),
        match_memo=None,
    )


def _library_plan(library: PrimitiveLibrary, keyed: bool) -> list[tuple]:
    """``(template, profile, fingerprint)`` per template, largest-first.

    Computed once per annotation call and shared by every target it
    matches; the fingerprint (``None`` unless ``keyed``) is only needed
    to key a match memo.
    """
    return [
        (
            template,
            template_profile(template),
            template_fingerprint(template) if keyed else None,
        )
        for template in library.by_size_desc()
    ]


def _annotate(
    target,
    plan: list[tuple],
    context_of,
    *,
    indexed: bool,
    budget: Budget | None,
    tally: _Tally,
    match_memo: dict[str, list[PrimitiveMatch]] | None,
) -> AnnotationResult:
    """Largest-first matching and claiming over one target.

    ``target`` supplies the devices (``.elements``) and, once
    ``context_of()`` has returned, the net names (``.nets``) that name
    its matches.  ``context_of()`` returns its :class:`TargetContext`,
    called at the first template that needs a search, so a target
    answered by the memo or by the kind histogram builds nothing.  A
    template the context has already searched (for an earlier target
    of the same shape) is named from that search's images instead of
    searching again.  The naive path uses the context's signature index
    only, and its contexts record no searches.  ``tally`` counts every
    launch, shared answer, skip and memo hit by plan position.

    On the indexed memo-less claiming path a template is also skipped
    when the devices still unclaimed cannot host its kind histogram —
    ``accept`` would reject every match it found — and matching stops
    once every device is claimed; ``tally`` counts both as skips.
    With a memo, raw lists must stay complete (library-change reuse
    and hier replay depend on them), so every template the memo lacks
    is searched.
    """
    result = AnnotationResult()
    claimed: set[str] = set()
    elements = target.elements
    # Kind histogram of the unclaimed devices, built at the first kind
    # test.  An accepted match claims exactly its template's histogram;
    # only the claim-aware path subtracts it, elsewhere this stays the
    # target's histogram.
    free = None
    claim_aware = indexed and match_memo is None
    launches, found, seconds, skips, shared = (
        tally.launches, tally.matches, tally.seconds, tally.skips, tally.shared
    )
    hits = 0
    clock = time.perf_counter

    def accept(matches: list[PrimitiveMatch], kinds=None) -> None:
        for match in matches:
            names = match.elements
            if names & claimed:
                continue
            result.matches.append(match)
            claimed.update(names)
            if claim_aware and kinds is not None:
                free.subtract(kinds)

    def finish() -> AnnotationResult:
        tally.memo_hits += hits
        result.unclaimed = [
            dev.name for dev in elements if dev.name not in claimed
        ]
        return result

    context = None
    try:
        for position, (template, profile, fingerprint) in enumerate(plan):
            # Memo first: a fully warm memo answers every template
            # without ever paying for the target context below.
            if match_memo is not None:
                cached = match_memo.get(fingerprint)
                if cached is not None:
                    hits += 1
                    if cached:
                        accept(cached)
                    continue
            if claim_aware and len(claimed) == len(elements):
                for rest in range(position, len(plan)):
                    skips[rest] += 1
                break
            if indexed and free is None:
                free = Counter(dev.kind.value for dev in elements)
            if indexed and not _kinds_coverable(profile.kind_counts, free):
                skips[position] += 1
                if match_memo is not None:
                    # A kind-rejected template's raw match list is
                    # the empty list — memoize it so warm runs skip
                    # the histogram test (and the context) too.
                    match_memo[fingerprint] = []
                continue
            if context is None:
                context = context_of()
            started = clock()
            images = context.searches.get(profile)
            if images is None:
                matches = find_primitive_matches(
                    template,
                    target,
                    None if indexed else context.index,
                    budget=budget,
                    profile=profile,
                    context=context if indexed else None,
                    indexed=indexed,
                )
                launches[position] += 1
            else:
                matches = _translate(profile, target, images)
                shared[position] += 1
            seconds[position] += clock() - started
            found[position] += len(matches)
            if match_memo is not None:
                match_memo[fingerprint] = list(matches)
            accept(matches, profile.kind_counts)
    except BudgetExceeded as exc:
        accept(exc.partial or [])
        exc.partial = finish()
        raise
    return finish()


def _kinds_coverable(needed: Counter, available: Counter) -> bool:
    """Can devices with kind histogram ``available`` host a template
    needing ``needed``?

    A monomorphism maps elements injectively onto same-kind elements,
    so a template needing more devices of some kind than the target
    owns can never match.  O(#kinds in template).
    """
    for kind, count in needed.items():
        if available.get(kind, 0) < count:
            return False
    return True


@dataclass
class _Members:
    """The member devices of one CCC, in element order (all a
    ``match_cache`` reads of it), and its net names in local order,
    filled in with its shape's context."""

    elements: list
    nets: list = field(default_factory=list)


def _shape_context(
    shapes: dict[tuple, TargetContext],
    graph: CircuitGraph,
    members: list[int],
    target: _Members,
) -> TargetContext:
    """The context ``target``'s shape has in this call, built by the
    first CCC of that shape; fills in ``target.nets``."""
    key, target.nets = member_shape(graph, members)
    context = shapes.get(key)
    if context is None:
        context = shapes[key] = TargetContext.build(graph, members)
    return context


def annotate_components(
    graph: CircuitGraph,
    partition: "CCCPartition",
    library: PrimitiveLibrary,
    budget: Budget | None = None,
    stats: MatchStats | None = None,
    indexed: bool = True,
    match_cache=None,
) -> dict[int, AnnotationResult]:
    """Per-CCC primitive annotation: component id → its matches.

    Matching is scoped to each channel-connected component's induced
    subgraph (the unit Postprocessing I reasons about), which both
    bounds every VF2 launch to a handful of vertices and lets the
    kind-histogram test reject most templates per component outright.
    The library's order, profiles and (with a cache) fingerprints are
    resolved once per call.  On the indexed path each component that
    needs a search is keyed by its
    :func:`~repro.primitives.index.member_shape` once some template
    needs one; components of one shape share one
    :class:`TargetContext`, built in one pass over the first one's
    members' edges in ``graph``, and each template's canonical images
    on it, so a repeated channel is searched once per call.  Each
    component still checks port predicates on its own net names, and
    dedups, names, sorts and claims its own matches, so results are
    those of matching it alone.  The table lives only as long as the
    call; a search cut short by ``budget`` records nothing.  No
    subgraph is built.  ``indexed=False`` matches the naive reference
    path against ``graph.subgraph_of_elements(members)``, sharing
    nothing.

    ``stats`` (a :class:`MatchStats`) receives the call's per-template
    launches, shared answers, matches, seconds and skips and its
    counters, also when a budget cuts the call short; without one they
    are dropped.

    ``match_cache`` (a
    :class:`repro.core.stages.PrimitiveMatchCache`-shaped object) makes
    matching incremental across runs: each component's
    ``{template_fingerprint: [PrimitiveMatch, ...]}`` dict of *raw*
    per-template match lists is loaded by a content key of its member
    devices (``subgraph_key``, ``load`` and ``store`` only read
    ``.elements``), templates already present skip VF2 (their matches
    feed straight into overlap resolution, which stays order- and
    claim-identical), and any newly computed lists are stored back —
    but only when the component finished cleanly (a budget blow-up must
    not persist a partial memo).  Raw match lists are independent of
    library composition — claiming happens afterwards — which is what
    makes them safely reusable across library changes.
    """
    plan = _library_plan(library, keyed=match_cache is not None)
    tally = _Tally(len(plan))
    results: dict[int, AnnotationResult] = {}
    shapes: dict[tuple, TargetContext] = {}
    cid = -1
    try:
        for cid, members in enumerate(partition.components):
            members = sorted(members)
            if indexed:
                target = _Members([graph.elements[i] for i in members])
                context_of = partial(
                    _shape_context, shapes, graph, members, target
                )
            else:
                target = graph.subgraph_of_elements(members)
                context_of = partial(TargetContext.build, target)
            memo = None
            cache_key = None
            known = 0
            if match_cache is not None:
                cache_key = match_cache.subgraph_key(target)
                memo = match_cache.load(cache_key)
                known = len(memo)
            results[cid] = _annotate(
                target,
                plan,
                context_of,
                indexed=indexed,
                budget=budget,
                tally=tally,
                match_memo=memo,
            )
            if match_cache is not None and len(memo) > known:
                match_cache.store(cache_key, memo)
    finally:
        if stats is not None:
            # Every component entered counts, the one a budget cut
            # short included.
            tally.merge_into(stats, plan, cccs=cid + 1)
    return results
