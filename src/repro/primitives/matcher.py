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
sub-blocks (the channels of a phased array) are searched once and only
named per copy, with the library's order and template profiles
resolved once for all of them.  The library keeps its shapes' contexts
and searches in a bounded :class:`ShapeTable`, so a shape searched for
one deck is not searched again for a later deck matched with the same
library in the same process (a warm pipeline, or a warm pool worker).
Every call records what its matching cost, per template, into a
:class:`MatchStats`; the pipeline turns a run's stats into the
``per_template`` and ``counters`` sections of its profile.
"""

from __future__ import annotations

import time
from collections import Counter, OrderedDict
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
from repro.primitives.library import PrimitiveLibrary, PrimitiveTemplate
from repro.runtime.cache import Memo
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
    deduplicate, recording its images only in a ``context`` the caller
    passes — guaranteed to return the same matches.

    This is :func:`find_primitive_images` plus the naming of its
    images.
    """
    # The profile also carries the automorphism group used to
    # canonicalize matches, so both paths resolve it (memoized).
    profile = profile or template_profile(template)
    try:
        images = find_primitive_images(
            template, target, target_index, budget,
            profile=profile, context=context, indexed=indexed,
        )
    except BudgetExceeded as exc:
        exc.partial = _translate(profile, target, exc.partial or [])
        raise
    return _translate(profile, target, images)


def find_primitive_images(
    template: PrimitiveTemplate,
    target: CircuitGraph,
    target_index=None,
    budget: Budget | None = None,
    *,
    profile: TemplateProfile,
    context: TargetContext | None = None,
    indexed: bool = True,
) -> list[tuple[int, ...]]:
    """The search of :func:`find_primitive_matches`, without naming.

    Returns the canonical, pre-predicate images (target-vertex tuples
    in pattern-vertex order) that :func:`_claims` names, and records
    them in ``context.searches`` as described there; on budget
    exhaustion ``exc.partial`` holds the images found so far.
    Largest-first matching names each launch's images once, as it
    claims them.
    """
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
        exc.partial = _images(profile, exc.partial or [])
        raise
    if context is not None:
        context.searches[profile] = images
    return images


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
    """Named, deduplicated matches of canonical images, in canonical
    order (:func:`_claims` without the claimed elements)."""
    return [match for match, _elements in _claims(profile, target, images)]


def _claims(
    profile: TemplateProfile, target, images: list[tuple[int, ...]]
) -> list[tuple[PrimitiveMatch, tuple[int, ...]]]:
    """Named, deduplicated matches of canonical images, each with the
    target element indices it claims.

    Port predicates are orbit invariants (semantic automorphisms
    preserve port predicate profiles), so they are checked on the
    canonical image, against ``target``'s net names; then duplicates on
    the same target elements (e.g. a DP arm swap) are dropped, and only
    the survivors are named — their element and net pairs listed in
    the template's name order, read off the profile — and given their
    constraints.
    """
    n_el = profile.n_elements
    t_elements, t_nets = target.elements, target.nets
    t_n_el = len(t_elements)
    port_checks = profile.port_checks.items()
    named_elements, named_nets = profile.named_elements, profile.named_nets
    seen: set[frozenset[int]] = set()
    claims: list[tuple[PrimitiveMatch, tuple[int, ...]]] = []
    for image in images:
        if not all(
            predicate(t_nets[image[pv] - t_n_el])
            for pv, predicates in port_checks
            for predicate in predicates
        ):
            continue
        elements = image[:n_el]
        key = frozenset(elements)
        if key in seen:
            continue  # the devices of an earlier survivor
        seen.add(key)
        element_map = tuple(
            (name, t_elements[image[pv]].name) for name, pv in named_elements
        )
        net_map = tuple(
            (name, t_nets[image[pv] - t_n_el]) for name, pv in named_nets
        )
        constraints = ()
        if profile.constraints:
            rename = dict(element_map)
            constraints = tuple(c.renamed(rename) for c in profile.constraints)
        match = PrimitiveMatch(
            primitive=profile.name,
            element_map=element_map,
            net_map=net_map,
            constraints=constraints,
        )
        claims.append((match, elements))
    # Canonical order: the search enumerates candidate pools (hash
    # sets) in an order that depends on which path built them, and
    # downstream overlap resolution claims devices in match order —
    # sort so both paths hand identical lists to the claimer.
    claims.sort(key=lambda claim: (claim[0].element_map, claim[0].net_map))
    return claims


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
    # Answered from the library's shape table: the search of an earlier
    # same-shape CCC, of this deck or of an earlier one (no launch).
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
    launch) and shared answers (answered from the library's shape
    table: the search of an earlier CCC of the same shape, in this call
    or in an earlier call with the same library); the ``ccc_matched``
    counter, and ``ccc_shared``: the CCCs whose shape's context came
    from the table rather than being built for them.  Every CCC a call
    finishes launches, shares or skips each template once.  A warm
    table turns launches into shared answers, so the counts describe
    what a run searched, not what its deck contains.
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
        "launches", "matches", "seconds", "skips", "shared", "ccc_shared",
    )

    def __init__(self, n: int):
        self.launches = [0] * n
        self.matches = [0] * n
        self.seconds = [0.0] * n
        self.skips = [0] * n
        self.shared = [0] * n
        self.ccc_shared = 0

    def merge_into(self, stats: MatchStats, plan: list[tuple], cccs: int) -> None:
        for position, (template, _) in enumerate(plan):
            launches = self.launches[position]
            skips = self.skips[position]
            shared = self.shared[position]
            if not (launches or skips or shared):
                continue  # no CCC reached it: no per-template entry
            entry = stats.templates.get(template.name)
            if entry is None:
                entry = stats.templates[template.name] = TemplateStats()
            entry.launches += launches
            entry.matches += self.matches[position]
            entry.seconds += self.seconds[position]
            entry.skips += skips
            entry.shared += shared
        counters = stats.counters
        for key, n in (("ccc_matched", cccs), ("ccc_shared", self.ccc_shared)):
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
    plan = _library_plan(library)
    return _annotate(
        target,
        plan,
        partial(TargetContext.build, target),
        indexed=indexed,
        budget=budget,
        tally=_Tally(len(plan)),
    )


def _library_plan(library: PrimitiveLibrary) -> list[tuple]:
    """``(template, profile)`` per template, largest-first.

    Computed once per annotation call and shared by every target it
    matches.
    """
    return [
        (template, template_profile(template))
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
) -> AnnotationResult:
    """Largest-first matching and claiming over one target.

    ``target`` supplies the devices (``.elements``) and, once
    ``context_of()`` has returned, the net names (``.nets``) that name
    its matches.  ``context_of()`` returns its :class:`TargetContext`,
    called at the first template that needs a search, so a target
    answered by the kind histogram builds nothing.  A template the
    context has already searched (for an earlier target of the same
    shape) is named from that search's images instead of searching
    again, and one whose images are empty is not named at all.  A
    launch records its images in the context too (the naive path in
    its own target's context, which nothing shares), and the target's
    matches are named from them.  ``tally`` counts every launch, shared
    answer and skip by plan position.

    Matches claim the target's devices by their indices in
    ``target.elements``, read off each match's image.  On the indexed
    path a template is skipped when the devices still unclaimed cannot
    host its kind histogram — ``accept`` would reject every match it
    found — and matching stops once every device is claimed; ``tally``
    counts both as skips.
    """
    result = AnnotationResult()
    elements = target.elements
    claimed = [False] * len(elements)
    n_unclaimed = len(elements)
    # Kind histogram of the unclaimed devices (indexed path only).  An
    # accepted match claims exactly its template's histogram, so
    # accepting subtracts it.
    free = Counter(dev.kind.value for dev in elements) if indexed else None
    launches, found, seconds, skips, shared = (
        tally.launches, tally.matches, tally.seconds, tally.skips, tally.shared
    )
    clock = time.perf_counter

    def accept(claims, kinds=None) -> None:
        nonlocal n_unclaimed
        for match, local in claims:
            if any(claimed[i] for i in local):
                continue
            result.matches.append(match)
            for i in local:
                claimed[i] = True
            n_unclaimed -= len(local)
            if indexed and kinds is not None:
                free.subtract(kinds)

    def finish() -> AnnotationResult:
        result.unclaimed = [
            dev.name for dev, taken in zip(elements, claimed) if not taken
        ]
        return result

    context = None
    try:
        for position, (template, profile) in enumerate(plan):
            if indexed and not n_unclaimed:
                for rest in range(position, len(plan)):
                    skips[rest] += 1
                break
            if indexed and not _kinds_coverable(profile.kind_counts, free):
                skips[position] += 1
                continue
            if context is None:
                context = context_of()
            started = clock()
            images = context.searches.get(profile)
            if images is None:
                images = find_primitive_images(
                    template,
                    target,
                    None if indexed else context.index,
                    budget=budget,
                    profile=profile,
                    context=context,
                    indexed=indexed,
                )
                launches[position] += 1
            else:
                shared[position] += 1
            claims = _claims(profile, target, images) if images else []
            seconds[position] += clock() - started
            found[position] += len(claims)
            accept(claims, profile.kind_counts)
    except BudgetExceeded as exc:
        # The cut search's partial images, named and claimed.
        accept(_claims(profile, target, exc.partial or []))
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
    """The member devices of one CCC, in element order, and its net
    names in local order, filled in with its shape's context."""

    elements: list
    nets: list = field(default_factory=list)


#: Bound on one library's :class:`ShapeTable`: the summed
#: :attr:`TargetContext.weight` (vertices plus stored image entries) of
#: the shapes it keeps.  A kept vertex costs about 1.2 KB and an image
#: entry about 16 bytes, so a full table holds at most about 25 MB;
#: perfbench's fleet decks, 54 shapes over 1,280 decks, weigh about
#: 2,400, and a 40-pair shared-tail bank (3,160 DP-N images) alone
#: outweighs the bound.
SHAPE_TABLE_BOUND = 20_000


class ShapeTable:
    """The CCC shapes a library has matched: :func:`member_shape` key →
    :class:`TargetContext` with its completed searches, least recently
    used first.

    A context holds no name (:meth:`TargetContext.forget_names`) and
    its searches are canonical, pre-predicate images, so it serves any
    later CCC of its shape, in any deck.  :meth:`keep` holds the summed
    weight within :data:`SHAPE_TABLE_BOUND`, evicting the least
    recently used shapes; a shape heavier than the whole bound is not
    kept.
    """

    def __init__(self) -> None:
        self.entries: OrderedDict[tuple, tuple[TargetContext, int]] = (
            OrderedDict()
        )
        self.weight = 0

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: tuple) -> TargetContext | None:
        entry = self.entries.get(key)
        return entry[0] if entry is not None else None

    def keep(self, key: tuple, context: TargetContext) -> None:
        """Keep ``context`` as the most recently used shape, weighed
        with every search it holds now."""
        _, old = self.entries.pop(key, (None, 0))
        self.weight -= old
        weight = context.weight
        if weight > SHAPE_TABLE_BOUND:
            return
        # Weight first: a timeout raised between the two statements
        # (SIGALRM, :func:`repro.runtime.resilience.time_limit`) leaves
        # the table over-counted, never over its bound.
        self.weight += weight
        self.entries[key] = (context, weight)
        while self.weight > SHAPE_TABLE_BOUND:
            _, (_, dropped) = self.entries.popitem(last=False)
            self.weight -= dropped


#: Each library's shape table, owned through the library's identity: a
#: new library starts empty, and pickling a library pickles no table.
_SHAPE_TABLES = Memo()


def shape_table(library: PrimitiveLibrary) -> ShapeTable:
    """The :class:`ShapeTable` ``library`` matches with."""
    return _SHAPE_TABLES.get_or_build(library, lambda _: ShapeTable())


def _shape_context(
    table: ShapeTable,
    used: dict[tuple, TargetContext],
    tally: _Tally,
    graph: CircuitGraph,
    members: list[int],
    target: _Members,
) -> TargetContext:
    """The context of ``target``'s shape: this call's, the library's
    table's, or, for the first CCC of a shape the table does not hold,
    a new one (``tally`` counts every other CCC as ``ccc_shared``).
    Records the shape in ``used`` and fills in ``target.nets``."""
    key, target.nets = member_shape(graph, members)
    context = used.get(key) or table.get(key)
    if context is None:
        context = TargetContext.build(graph, members).forget_names()
    else:
        tally.ccc_shared += 1
    used[key] = context
    return context


def annotate_components(
    graph: CircuitGraph,
    partition: "CCCPartition",
    library: PrimitiveLibrary,
    budget: Budget | None = None,
    stats: MatchStats | None = None,
    indexed: bool = True,
) -> dict[int, AnnotationResult]:
    """Per-CCC primitive annotation: component id → its matches.

    Matching is scoped to each channel-connected component's induced
    subgraph (the unit Postprocessing I reasons about), which both
    bounds every VF2 launch to a handful of vertices and lets the
    kind-histogram test reject most templates per component outright.
    The library's order and profiles are resolved once per call.  On
    the indexed path each component that needs a search is keyed by
    its :func:`~repro.primitives.index.member_shape` once some
    template needs one; components of one shape share one
    :class:`TargetContext`, built in one pass over the first one's
    members' edges in ``graph``, and each template's canonical images
    on it.  The library's :class:`ShapeTable` keeps them past the
    call, so a shape is searched once per library and process, not
    once per deck: a warm pipeline or pool worker names a repeated
    shape from the table.  Each component still checks port predicates
    on its own net names, and dedups, names, sorts and claims its own
    matches, so results are those of matching it alone, whatever the
    table holds.  A search cut short by ``budget`` records nothing.
    No subgraph is built.  ``indexed=False`` matches the naive
    reference path against ``graph.subgraph_of_elements(members)``,
    sharing nothing.

    ``stats`` (a :class:`MatchStats`) receives the call's per-template
    launches, shared answers, matches, seconds and skips and its
    counters, also when a budget cuts the call short; without one they
    are dropped.  A run with an artifact cache matches exactly like
    one without.
    """
    plan = _library_plan(library)
    tally = _Tally(len(plan))
    results: dict[int, AnnotationResult] = {}
    table = shape_table(library)
    used: dict[tuple, TargetContext] = {}
    cid = -1
    try:
        for cid, members in enumerate(partition.components):
            members = sorted(members)
            if indexed:
                target = _Members([graph.elements[i] for i in members])
                context_of = partial(
                    _shape_context, table, used, tally, graph, members, target
                )
            else:
                target = graph.subgraph_of_elements(members)
                context_of = partial(TargetContext.build, target)
            results[cid] = _annotate(
                target,
                plan,
                context_of,
                indexed=indexed,
                budget=budget,
                tally=tally,
            )
    finally:
        # What the call searched is kept, also when a budget cut it
        # short: only completed searches were recorded.
        for key, context in used.items():
            table.keep(key, context)
        if stats is not None:
            # Every component entered counts, the one a budget cut
            # short included.
            tally.merge_into(stats, plan, cccs=cid + 1)
    return results
