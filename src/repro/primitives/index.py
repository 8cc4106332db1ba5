"""Signature index for primitive matching (the annotation hot path).

Profiling showed the old matcher spending ~70 % of Postprocessing I
*setting up* VF2 — recomputing each template's signatures, adjacency,
and matching order for every (template × channel-connected component)
pair — rather than searching.  This module hoists everything that is a
pure function of one side of the match:

* :class:`TemplateProfile` — per-template invariants (adjacency,
  matching order, internal-net flags, SubGemini signatures, element
  kind histogram) plus the template's automorphism group, computed
  **once per library load** and memoized via
  :class:`repro.runtime.cache.Memo`;
* :class:`TargetContext` — per-circuit invariants (adjacency +
  :class:`~repro.primitives.signatures.TargetIndex` signature tables),
  computed **once per circuit** (or per CCC shape, in one pass over its
  members' edges) and shared across all templates, together with each
  template's raw search result.  The tables depend only on the
  target's :func:`member_shape`, never on a name, so channel-connected
  components of one shape share one context — within a deck and, once
  the library's shape table keeps it, across decks
  (:mod:`repro.primitives.matcher`).

VF2 then only launches from (template-root, target-vertex) pairs whose
signatures are compatible (the root row of the compatibility filter),
and the automorphism group drives two further accelerations:

* **symmetry breaking** — the search keeps only the lexicographically
  minimal member of each automorphism orbit (in matching-order space),
  so a differential pair is found once, not once per arm swap;
* **canonical matches** — every surviving mapping is rewritten to its
  orbit's canonical representative, making the reported match
  independent of search order and of whether symmetry breaking ran.

Automorphisms here are *semantic*: they must preserve vertex kinds,
edge labels, boundary/internal status, the port-role predicate of
every port, and the template's constraint set — so permuting a match
through one can never change which matches are accepted or what
constraints they imply.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.graph.bipartite import CircuitGraph
from repro.primitives.isomorphism import (
    PatternGraph,
    VF2Matcher,
    _Adjacency,
)
from repro.primitives.signatures import (
    Signature,
    TargetIndex,
    frozen_signatures,
    vertex_signatures,
)
from repro.runtime.cache import Memo

#: Process-wide memo: one profile per PrimitiveTemplate object.
_PROFILE_MEMO = Memo()


@dataclass(eq=False)
class TemplateProfile:
    """Everything about one template that every match launch reuses.

    Hashed and compared by identity: a profile keys its template's
    entry in :attr:`TargetContext.searches`."""

    template: object  # PrimitiveTemplate (untyped to avoid an import cycle)
    pattern: PatternGraph
    adjacency: _Adjacency
    order: list[int]
    internal_net: list[bool]
    signatures: list[Signature]
    frozen: list[tuple]
    kind_counts: Counter
    n_elements: int
    #: Per-depth search plan (see ``VF2Matcher._build_depth_plan``):
    #: for each position in ``order``, the already-mapped pattern
    #: neighbors, their required (neighbor, label) edges, the
    #: look-ahead need, and whether the vertex is a boundary net.
    depth_plan: list
    #: ``(device name, element vertex)`` in name order: the order of a
    #: match's ``element_map`` pairs.
    named_elements: tuple[tuple[str, int], ...]
    #: ``(net name, net vertex)`` in name order, likewise for
    #: ``net_map``.
    named_nets: tuple[tuple[str, int], ...]
    #: Pattern net *vertex* → resolved port-predicate callables, only
    #: for ports that carry predicates (all other nets pass trivially).
    port_checks: dict[int, tuple]
    #: Non-identity semantic automorphisms, each a full vertex
    #: permutation ``sigma[pattern_vertex] -> pattern_vertex``.
    automorphisms: tuple[tuple[int, ...], ...]
    #: ``(kind, frozen signature)`` bucket key of every element and
    #: internal net: a target missing one of them cannot host a match.
    exact_keys: frozenset[tuple]
    #: The template's constraints, their source already set to it.
    constraints: tuple

    @property
    def name(self) -> str:
        return self.template.name


@dataclass
class TargetContext:
    """Per-target tables shared by every template of one matching pass.

    ``searches`` maps a :class:`TemplateProfile` to the canonical,
    pre-predicate images (``image[pattern_vertex] -> target vertex``)
    of its completed search here.  Nothing a search reads is a name —
    the adjacency's ``elements`` and ``nets`` are those of the target
    it was built from, and :meth:`forget_names` drops them — so a
    context and its searches serve every target of the same
    :func:`member_shape`.
    """

    adjacency: _Adjacency
    index: TargetIndex
    searches: dict = field(default_factory=dict)

    @classmethod
    def build(cls, graph: CircuitGraph, members=None) -> "TargetContext":
        """The tables of ``graph``, or of the subgraph its ``members``
        (ascending element indices) induce, numbered exactly as
        ``graph.subgraph_of_elements(members)`` would number them —
        built in one pass over the members' edges, with no subgraph."""
        adjacency = _Adjacency(graph, members)
        return cls(adjacency=adjacency, index=TargetIndex.build(adjacency))

    def forget_names(self) -> "TargetContext":
        """Drop the devices and net names of the target this context
        was built from, so keeping it holds nothing of that deck."""
        self.adjacency.elements = self.adjacency.nets = None
        return self

    @property
    def weight(self) -> int:
        """What keeping this context holds: its vertices plus one entry
        per vertex of every stored image."""
        return self.adjacency.n + sum(
            len(images) * len(images[0])
            for images in self.searches.values()
            if images
        )


def member_shape(graph: CircuitGraph, members) -> tuple[tuple, list[str]]:
    """The shape key of the subgraph ``members`` induce, and its net
    names in local order.

    The key holds each member's kind and its incident ``(local net,
    edge label)`` list, in member order, with nets numbered by first
    appearance: exactly what :class:`_Adjacency` and
    :class:`~repro.primitives.signatures.TargetIndex` are built from,
    and no name.  Two member lists with one key get identical tables,
    so every search returns the same images on both.
    """
    edge_lists = graph.element_edge_lists()
    graph_nets = graph.nets
    elements = graph.elements
    local: dict[int, int] = {}
    nets: list[str] = []
    key = []
    for i in members:
        incident = []
        for edge in edge_lists[i]:
            v = local.get(edge.net)
            if v is None:
                v = local[edge.net] = len(nets)
                nets.append(graph_nets[edge.net])
            incident.append((v, edge.label))
        key.append((elements[i].kind, tuple(incident)))
    return tuple(key), nets


def template_profile(template) -> TemplateProfile:
    """The (memoized) matching profile of a library template.

    The first call per template object pays for signature computation
    and the automorphism search; every later call — every circuit, every
    CCC — is a dictionary hit.
    """
    return _PROFILE_MEMO.get_or_build(template, _build_profile)


def _build_profile(template) -> TemplateProfile:
    from repro.primitives.library import PORT_PREDICATES

    pattern: PatternGraph = template.pattern
    graph = pattern.graph
    base = VF2Matcher(pattern, graph, use_prefilter=False, symmetry_break=False)
    signatures = vertex_signatures(graph)
    frozen = frozen_signatures(signatures)
    checks: dict[int, list] = {}
    for port, predicate in template.port_roles:
        pv = graph.n_elements + graph.net_index[port]
        checks.setdefault(pv, []).append(PORT_PREDICATES[predicate])
    return TemplateProfile(
        template=template,
        pattern=pattern,
        adjacency=base.p,
        order=base.order,
        internal_net=base.internal_net,
        signatures=signatures,
        frozen=frozen,
        kind_counts=Counter(base.p.kind[: graph.n_elements]),
        n_elements=graph.n_elements,
        depth_plan=base.depth_plan,
        named_elements=tuple(
            sorted((el.name, pv) for pv, el in enumerate(graph.elements))
        ),
        named_nets=tuple(
            sorted(
                (net, graph.n_elements + j) for j, net in enumerate(graph.nets)
            )
        ),
        port_checks={pv: tuple(fns) for pv, fns in checks.items()},
        automorphisms=_semantic_automorphisms(template, base),
        exact_keys=frozenset(
            (base.p.kind[pv], frozen[pv])
            for pv in range(graph.n_vertices)
            if pv < graph.n_elements or base.internal_net[pv]
        ),
        constraints=tuple(
            c.with_source(template.name) for c in template.constraints
        ),
    )


def _port_predicate_profiles(template) -> dict[str, tuple[str, ...]]:
    """Port name → sorted predicate names (empty tuple when none)."""
    profiles: dict[str, list[str]] = {}
    for port, predicate in template.port_roles:
        profiles.setdefault(port, []).append(predicate)
    return {port: tuple(sorted(preds)) for port, preds in profiles.items()}


def _constraint_key(constraints) -> Counter:
    """Order-insensitive fingerprint of a constraint set."""
    return Counter(
        (c.kind, frozenset(c.members), frozenset(c.attributes), c.source)
        for c in constraints
    )


def _semantic_automorphisms(
    template, matcher: VF2Matcher
) -> tuple[tuple[int, ...], ...]:
    """All non-identity automorphisms safe for symmetry breaking.

    A raw graph automorphism (found by matching the pattern onto its
    own graph: injective + all vertices covered ⇒ bijective, and equal
    edge counts make it label-preserving both ways) qualifies only if
    it also fixes the matching *semantics*: boundary nets stay boundary
    (internal stay internal — implied by bijectivity), permuted ports
    carry identical predicate profiles, and renaming the template's
    devices through it leaves the constraint set unchanged.
    """
    pattern = matcher.pattern
    graph = pattern.graph
    n = graph.n_vertices
    n_el = graph.n_elements
    predicate_profiles = _port_predicate_profiles(template)
    constraint_key = _constraint_key(template.constraints)

    automorphisms: list[tuple[int, ...]] = []
    for iso in matcher.find_all():
        mapping = iso.as_dict
        if len(mapping) != n:
            continue  # not a full-vertex bijection
        sigma = tuple(mapping[v] for v in range(n))
        if all(sigma[v] == v for v in range(n)):
            continue  # identity
        # Boundary nets must map onto boundary nets with the same
        # port-predicate profile.
        ok = True
        for local in pattern.boundary_nets:
            image = sigma[n_el + local] - n_el
            if image not in pattern.boundary_nets:
                ok = False
                break
            src = graph.nets[local]
            dst = graph.nets[image]
            if predicate_profiles.get(src, ()) != predicate_profiles.get(
                dst, ()
            ):
                ok = False
                break
        if not ok:
            continue
        # Constraints must be invariant under the induced device rename.
        rename = {
            graph.elements[v].name: graph.elements[sigma[v]].name
            for v in range(n_el)
        }
        renamed = Counter(
            (
                kind,
                frozenset(rename.get(m, m) for m in members),
                attrs,
                source,
            )
            for (kind, members, attrs, source) in constraint_key
        )
        if renamed != constraint_key:
            continue
        automorphisms.append(sigma)
    return tuple(automorphisms)


def canonical_mapping(
    mapping: dict[int, int], automorphisms: tuple[tuple[int, ...], ...]
) -> dict[int, int]:
    """Orbit-canonical form of a complete match mapping.

    Among ``{mapping ∘ sigma}`` over the automorphism group (plus the
    identity), return the variant whose target-vertex tuple — read in
    pattern-vertex order — is lexicographically smallest.  Both the
    naive and the indexed search paths canonicalize, so they report
    byte-identical matches regardless of which orbit member each
    happened to find.
    """
    if not automorphisms:
        return mapping
    image = tuple(mapping[p] for p in range(len(mapping)))
    return dict(enumerate(canonical_image(image, automorphisms)))


def canonical_image(
    image: tuple[int, ...], automorphisms: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    """:func:`canonical_mapping` on a mapping's target-vertex tuple
    (``image[pattern_vertex]``)."""
    best = image
    for sigma in automorphisms:
        candidate = tuple([image[p] for p in sigma])
        if candidate < best:
            best = candidate
    return best
