"""VF2 subgraph isomorphism for labeled bipartite circuit graphs
(Sec. IV-A).

Finds all monomorphisms of a small pattern graph (a primitive template)
into a target circuit graph, subject to the semantic feasibility the
paper relies on:

* element vertices map only to element vertices of the same
  :class:`~repro.spice.netlist.DeviceKind`;
* net vertices map only to net vertices;
* every pattern edge must exist in the target with an **identical
  3-bit label**;
* *internal* pattern nets (those not in the template's port list) must
  have the same degree in the target — nothing else may touch them —
  while port nets may fan out arbitrarily;
* element vertices always require an exact degree match (their edges
  are fully determined by their terminals).

The implementation follows Cordella et al.'s VF2: grow a partial
mapping through candidate pairs drawn from the frontier, pruned by a
consistency check and a one-look-ahead count.  For a pattern of O(1)
size and degree the work per accepted vertex is O(1), giving the O(n)
total the paper argues; ``benchmarks/bench_vf2_scaling.py`` measures
exactly this.

The O(n) argument holds for well-formed primitives, but VF2 is
worst-case exponential (Sec. II-E), and a production service cannot
let an adversarial or degenerate deck hang a worker.  ``find_all`` and
:func:`find_subgraph_isomorphisms` therefore accept an optional
:class:`~repro.runtime.resilience.Budget`: each search-tree node costs
one step, and exhausting the budget raises
:class:`~repro.exceptions.BudgetExceeded` with the matches found so
far attached as ``exc.partial``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import BudgetExceeded
from repro.graph.bipartite import CircuitGraph
from repro.runtime.resilience import Budget


@dataclass
class PatternGraph:
    """A primitive template prepared for matching.

    ``graph`` is the template's bipartite graph; ``boundary_nets`` are
    the local net indices allowed to fan out beyond the match (template
    ports).  All other net vertices are internal and matched exactly.
    """

    graph: CircuitGraph
    boundary_nets: frozenset[int]

    @classmethod
    def from_graph(cls, graph: CircuitGraph) -> "PatternGraph":
        boundary = frozenset(
            graph.net_index[p] for p in graph.circuit.ports if p in graph.net_index
        )
        return cls(graph=graph, boundary_nets=boundary)

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices


@dataclass(frozen=True)
class Isomorphism:
    """One match: pattern global-vertex index → target global-vertex index."""

    mapping: tuple[tuple[int, int], ...]

    @property
    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)


class _Adjacency:
    """Labeled adjacency, vertex kinds and names of a graph, or of the
    subgraph induced by some of its elements.

    One pass over the incident edges of ``members`` (ascending element
    indices; all elements by default).  Elements keep member order and
    nets are numbered by first appearance, so a member subset gets the
    vertex numbering — and every neighbor dict and set its insertion
    order — of ``graph.subgraph_of_elements(members)``, without
    building that graph.  VF2's discovery order depends on both.
    """

    def __init__(self, graph: CircuitGraph, members=None):
        edge_lists = graph.element_edge_lists()
        graph_nets = graph.nets
        if members is None:
            members = range(graph.n_elements)
            self.nets = list(graph_nets)
            local = {net: net for net in range(len(graph_nets))}
        else:
            self.nets, local = [], {}
        self.elements = [graph.elements[i] for i in members]
        n_el = self.n_elements = len(self.elements)
        neighbors: list[dict[int, int]] = [{} for _ in range(n_el)]
        net_neighbors: list[dict[int, int]] = [{} for _ in self.nets]
        for u, i in enumerate(members):
            nbrs = neighbors[u]
            for edge in edge_lists[i]:
                v = local.get(edge.net)
                if v is None:
                    v = local[edge.net] = len(self.nets)
                    self.nets.append(graph_nets[edge.net])
                    net_neighbors.append({})
                nbrs[n_el + v] = edge.label
                net_neighbors[v][u] = edge.label
        self.neighbors = neighbors + net_neighbors
        self.n = len(self.neighbors)
        self.degree = [len(nbrs) for nbrs in self.neighbors]
        # Key sets of the neighbor dicts, for candidate-pool
        # intersections without per-search-node set() construction.
        self.neighbor_sets = [set(nbrs) for nbrs in self.neighbors]
        # Vertex kind token: the DeviceKind value for elements, "net"
        # for nets (strings hash in C, enum members do not).
        self.kind = [dev.kind.value for dev in self.elements]
        self.kind += ["net"] * len(self.nets)


class VF2Matcher:
    """All subgraph monomorphisms of a pattern into a target.

    ``use_prefilter`` enables the SubGemini-style signature filter
    (:mod:`repro.primitives.signatures`): a sound pruning of candidate
    pairs before and during the search.

    Hot-path reuse (see :mod:`repro.primitives.index`): ``profile`` — a
    :class:`~repro.primitives.index.TemplateProfile` — supplies the
    pattern-side precomputation (adjacency, matching order, signatures,
    automorphisms), and ``target_context`` — a
    :class:`~repro.primitives.index.TargetContext` — the target-side
    tables (``target`` is then unused), so constructing a matcher for
    the Nth template against the Mth component costs only the
    (pattern × target) compatibility filter.  With a profile present,
    symmetry breaking prunes every search branch that is not the
    lexicographically minimal member of its automorphism orbit; pass
    ``symmetry_break=False`` to force the naive
    enumerate-then-deduplicate behaviour.
    """

    def __init__(
        self,
        pattern: PatternGraph,
        target: CircuitGraph,
        use_prefilter: bool = True,
        target_index=None,
        profile=None,
        target_context=None,
        symmetry_break: bool | None = None,
    ):
        self.pattern = pattern
        if profile is not None:
            self.p = profile.adjacency
            self.order = profile.order
            self.internal_net = profile.internal_net
        else:
            self.p = _Adjacency(pattern.graph)
            # Pattern vertex order: BFS from the highest-degree element
            # so each new vertex (after the first) touches the mapped
            # core — the "next candidate pair P(s)" discipline of VF2.
            self.order = self._matching_order()
            n_el = pattern.graph.n_elements
            self.internal_net = [
                (v >= n_el) and ((v - n_el) not in pattern.boundary_nets)
                for v in range(self.p.n)
            ]
        self.p_n_el = pattern.graph.n_elements
        self.depth_plan = (
            profile.depth_plan
            if profile is not None
            else self._build_depth_plan()
        )
        if target_context is not None:
            self.t = target_context.adjacency
            target_index = target_context.index
        else:
            self.t = _Adjacency(target)
        self.prefilter = None
        if use_prefilter:
            from repro.primitives.signatures import TargetIndex, build_filter

            self.prefilter = build_filter(
                pattern,
                target,
                target_index or TargetIndex.build(self.t),
                pattern_signatures=(
                    (profile.signatures, profile.frozen)
                    if profile is not None
                    else None
                ),
            )
        if symmetry_break is None:
            symmetry_break = profile is not None
        self.automorphisms = (
            profile.automorphisms
            if (symmetry_break and profile is not None)
            else ()
        )

    def _matching_order(self) -> list[int]:
        n = self.p.n
        if n == 0:
            return []
        start = max(range(n), key=lambda v: self.p.degree[v])
        seen = [False] * n
        order = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in sorted(
                    self.p.neighbors[u], key=lambda w: -self.p.degree[w]
                ):
                    if not seen[v]:
                        seen[v] = True
                        order.append(v)
                        nxt.append(v)
            frontier = nxt
        # Disconnected template vertices (shouldn't happen for real
        # primitives) go last.
        for v in range(n):
            if not seen[v]:
                order.append(v)
        return order

    def _build_depth_plan(
        self,
    ) -> list[tuple[list[int], list[tuple[int, int]], int, bool]]:
        """Pattern-side search data, fixed per depth by the static order.

        At depth ``d`` the mapped core is exactly ``order[:d]``, so for
        ``pv = order[d]`` we can precompute once per pattern: which of
        its neighbors are already mapped, the ``(neighbor, label)``
        edges the candidate must reproduce, how many neighbors are
        still unmapped (the look-ahead need), and whether ``pv`` is a
        boundary net (exempt from the reverse-consistency check).
        """
        pos = {v: i for i, v in enumerate(self.order)}
        n_el = self.p_n_el
        plan: list[tuple[list[int], list[tuple[int, int]], int, bool]] = []
        for d, pv in enumerate(self.order):
            nbrs = self.p.neighbors[pv]
            mapped = [pn for pn in nbrs if pos[pn] < d]
            edges = [(pn, nbrs[pn]) for pn in mapped]
            boundary = pv >= n_el and not self.internal_net[pv]
            plan.append((mapped, edges, len(nbrs) - len(mapped), boundary))
        return plan

    # -- feasibility ----------------------------------------------------

    def _semantic_ok(self, pv: int, tv: int) -> bool:
        if self.prefilter is not None:
            # Prefilter membership already implies the kind and degree
            # conditions below: exact-signature buckets (elements,
            # internal nets) force an identical incident-edge multiset,
            # and boundary cover sets force kind "net" with degree ≥.
            return tv in self.prefilter.allowed[pv]
        if self.p.kind[pv] != self.t.kind[tv]:
            return False
        p_deg, t_deg = self.p.degree[pv], self.t.degree[tv]
        if pv < self.p_n_el:
            return p_deg == t_deg  # element terminals are fully specified
        if self.internal_net[pv]:
            return p_deg == t_deg  # internal nets: nothing else touches
        return t_deg >= p_deg  # boundary nets may fan out

    # -- search -----------------------------------------------------------
    # Consistency and one-look-ahead live inline in _search, driven by
    # the per-depth plan: every already-mapped pattern neighbor must be
    # a target neighbor with the identical label; mapped target
    # neighbors with no pattern edge are only acceptable through a
    # boundary net on either endpoint; and the candidate must offer at
    # least as many unmapped neighbors as the pattern vertex needs.
    # Mapped target neighbors are found by intersecting with the
    # O(1)-size core, not by walking tv's neighbor list (power rails
    # have O(n) neighbors).

    def find_all(
        self, limit: int | None = None, budget: Budget | None = None
    ) -> list[Isomorphism]:
        """Enumerate matches (optionally stopping after ``limit``).

        ``budget`` bounds the search: one step per search-tree node.
        On exhaustion, :class:`~repro.exceptions.BudgetExceeded` is
        raised with the matches found so far as ``exc.partial``.
        """
        self._results: list[Isomorphism] = []
        if self.prefilter is not None and not self.prefilter.is_feasible:
            return self._results  # some pattern vertex has no host at all
        self._limit = limit
        self._budget = budget
        self._core_p: dict[int, int] = {}
        self._core_t: dict[int, int] = {}
        try:
            self._search(0)
        except BudgetExceeded as exc:
            if exc.partial is None:
                exc.partial = list(self._results)
            raise
        return self._results

    def exists(self) -> bool:
        """True when at least one match exists (early exit)."""
        return bool(self.find_all(limit=1))

    def _search(self, depth: int) -> None:
        if self._budget is not None:
            self._budget.tick(what="VF2 subgraph search")
        if self._limit is not None and len(self._results) >= self._limit:
            return
        if depth == len(self.order):
            self._results.append(
                Isomorphism(mapping=tuple(sorted(self._core_p.items())))
            )
            return
        pv = self.order[depth]
        mapped_nbrs, edges, p_need, pv_boundary = self.depth_plan[depth]
        core_p, core_t = self._core_p, self._core_t
        t = self.t
        t_nbrs, t_sets, t_deg = t.neighbors, t.neighbor_sets, t.degree
        prefiltered = self.prefilter is not None

        # Candidate pool: target images of already-mapped pattern
        # neighbors (frontier discipline), intersected smallest-first
        # so a mapped power rail (O(n) neighbors) doesn't blow it up;
        # for the first vertex, the prefilter's allowed set (or a kind
        # scan).  The shared sets are never mutated (x & y allocates).
        if mapped_nbrs:
            if len(mapped_nbrs) == 1:
                pool = t_sets[core_p[mapped_nbrs[0]]]
            else:
                targets = [core_p[pn] for pn in mapped_nbrs]
                base = min(targets, key=lambda tn: len(t_sets[tn]))
                pool = t_sets[base]
                for tn in targets:
                    if tn is not base:
                        pool = pool & t_sets[tn]
            if prefiltered:
                pool = pool & self.prefilter.allowed[pv]
        elif prefiltered:
            pool = self.prefilter.allowed[pv]
        else:
            p_kind = self.p.kind[pv]
            pool = [tv for tv in range(t.n) if t.kind[tv] == p_kind]

        p_nbrs_pv = self.p.neighbors[pv]
        internal_net = self.internal_net
        n_el = self.p_n_el
        n_edges = len(edges)
        for tv in pool:
            if tv in core_t:
                continue
            # With a prefilter, pool membership already implies
            # semantic feasibility (kind + degree via signatures).
            if not prefiltered and not self._semantic_ok(pv, tv):
                continue
            t_nbrs_tv = t_nbrs[tv]
            ok = True
            for pn, label in edges:
                if t_nbrs_tv.get(core_p[pn]) != label:
                    ok = False
                    break
            if not ok:
                continue
            mapped_tns = core_t.keys() & t_sets[tv]
            if t_deg[tv] - len(mapped_tns) < p_need:
                continue
            # Reverse consistency: the forward loop accounts for
            # exactly n_edges of tv's mapped neighbors (injectivity),
            # so extras exist only when the counts differ.  An extra —
            # a mapped target neighbor with no pattern edge — is only
            # acceptable through a boundary net on either endpoint:
            # elements/internal nets of the pattern must not gain
            # edges among themselves.
            if len(mapped_tns) > n_edges and not pv_boundary:
                for tn in mapped_tns:
                    pn = core_t[tn]
                    if pn not in p_nbrs_pv and not (
                        pn >= n_el and not internal_net[pn]
                    ):
                        ok = False
                        break
                if not ok:
                    continue
            core_p[pv] = tv
            core_t[tv] = pv
            if not self.automorphisms or not self._symmetry_dominated(depth):
                self._search(depth + 1)
            del core_p[pv]
            del core_t[tv]

    def _symmetry_dominated(self, depth: int) -> bool:
        """True when an automorphic image of the current partial mapping
        is lexicographically smaller (in matching-order space).

        If so, every completion of this branch has a completion in the
        smaller-image branch (automorphisms map matches to matches and
        preserve semantics — see :mod:`repro.primitives.index`), so the
        branch can be pruned without losing any orbit.  The orbit's
        lex-minimal member dominates nothing and always survives.
        """
        order = self.order
        core_p = self._core_p
        for sigma in self.automorphisms:
            for i in range(depth + 1):
                a = core_p[order[i]]
                b = core_p.get(sigma[order[i]])
                if b is None or b > a:
                    break  # incomparable / image larger: sigma is fine
                if b < a:
                    return True
        return False


def find_subgraph_isomorphisms(
    pattern: PatternGraph,
    target: CircuitGraph,
    limit: int | None = None,
    budget: Budget | None = None,
) -> list[Isomorphism]:
    """Convenience wrapper around :class:`VF2Matcher`.

    ``budget`` (a :class:`~repro.runtime.resilience.Budget`) bounds the
    search in steps and/or wall-clock; exhaustion raises
    :class:`~repro.exceptions.BudgetExceeded` carrying partial results.
    """
    return VF2Matcher(pattern, target).find_all(limit=limit, budget=budget)
