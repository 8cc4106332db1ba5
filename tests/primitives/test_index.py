"""Property tests: the signature-indexed matcher is exact.

The indexed hot path (template profiles, shared target context,
symmetry breaking, per-depth search plans — ``primitives/index.py``)
must return the *exact same* matches as the naive full-setup VF2 path
for every template of the library on every example netlist.  These
tests assert list equality, not set equality: downstream overlap
resolution claims devices in match order, so order preservation is
part of the bit-identical-annotations contract.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.stages import PrimitiveMatchCache
from repro.datasets.systems import phased_array_hier
from repro.exceptions import BudgetExceeded
from repro.graph.bipartite import CircuitGraph
from repro.graph.ccc import channel_connected_components
from repro.primitives.index import (
    TargetContext,
    canonical_mapping,
    member_shape,
    template_profile,
)
from repro.primitives.library import default_library
from repro.primitives.matcher import (
    MatchStats,
    annotate_components,
    annotate_primitives,
    find_primitive_matches,
)
from repro.runtime.cache import ArtifactCache
from repro.runtime.resilience import Budget
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist
from tests.conftest import CANONICAL_GRAPH_NAMES, build_canonical_graphs

LIBRARY = default_library()

# The shared canonical menagerie (tests/conftest.py) — built once at
# module import; the session fixture is not usable at collect time.
GRAPHS = build_canonical_graphs()


@pytest.mark.parametrize("graph_name", sorted(CANONICAL_GRAPH_NAMES))
class TestIndexedEqualsNaive:
    def test_every_template_matches_identically(self, graph_name):
        graph = GRAPHS[graph_name]
        context = TargetContext.build(graph)
        for template in LIBRARY.templates:
            naive = find_primitive_matches(template, graph, indexed=False)
            indexed = find_primitive_matches(
                template, graph, context=context, indexed=True
            )
            assert indexed == naive, template.name

    def test_annotation_identical(self, graph_name):
        graph = GRAPHS[graph_name]
        naive = annotate_primitives(graph, LIBRARY, indexed=False)
        indexed = annotate_primitives(graph, LIBRARY, indexed=True)
        assert indexed.matches == naive.matches
        assert indexed.unclaimed == naive.unclaimed


class TestComponentScopedAnnotation:
    def test_matches_per_component_subgraph(self):
        graph = GRAPHS["phased_array_2ch"]
        partition = channel_connected_components(graph)
        scoped = annotate_components(graph, partition, LIBRARY)
        assert set(scoped) == set(range(partition.n_components))
        for cid, members in enumerate(partition.components):
            subgraph = graph.subgraph_of_elements(members)
            direct = annotate_primitives(subgraph, LIBRARY, indexed=False)
            assert scoped[cid].matches == direct.matches

    def test_every_match_stays_inside_its_component(self):
        graph = GRAPHS["switched_cap_filter"]
        partition = channel_connected_components(graph)
        scoped = annotate_components(graph, partition, LIBRARY)
        for cid, result in scoped.items():
            member_names = {
                graph.elements[v].name for v in partition.components[cid]
            }
            for match in result.matches:
                assert match.elements <= member_names


@pytest.mark.parametrize("graph_name", sorted(CANONICAL_GRAPH_NAMES))
class TestComponentContext:
    """The one-pass per-CCC state is exactly the state of the subgraph
    it replaces: VF2's discovery order — and with it which of two
    same-device isomorphisms survives deduplication — depends on the
    vertex numbering and on every insertion order."""

    def test_equals_subgraph_context(self, graph_name):
        graph = GRAPHS[graph_name]
        for members in channel_connected_components(graph).components:
            members = sorted(members)
            subgraph = graph.subgraph_of_elements(members)
            got = TargetContext.build(graph, members)
            want = TargetContext.build(subgraph)
            adjacency, reference = got.adjacency, want.adjacency
            assert adjacency.elements == reference.elements == subgraph.elements
            assert adjacency.nets == reference.nets == subgraph.nets
            neighbors = [list(n.items()) for n in adjacency.neighbors]
            assert neighbors == [
                list(n.items()) for n in reference.neighbors
            ]
            assert neighbors == subgraph.neighbors()
            assert [list(s) for s in adjacency.neighbor_sets] == [
                list(s) for s in reference.neighbor_sets
            ]
            assert adjacency.degree == reference.degree
            assert adjacency.kind == reference.kind
            index, reference_index = got.index, want.index
            assert index.signatures == reference_index.signatures
            assert index.frozen == reference_index.frozen
            assert list(index.by_kind.items()) == list(
                reference_index.by_kind.items()
            )
            assert list(index.by_exact.items()) == list(
                reference_index.by_exact.items()
            )

    def test_components_equal_naive_subgraph_annotation(
        self, graph_name, tmp_path
    ):
        """Claim-aware launches and lazy contexts change no result:
        memo-less, with a cold match cache (complete raw lists) and
        with the warm one, every CCC's annotation equals the naive
        reference on its subgraph."""
        graph = GRAPHS[graph_name]
        partition = channel_connected_components(graph)
        naive = [
            annotate_primitives(
                graph.subgraph_of_elements(members), LIBRARY, indexed=False
            )
            for members in partition.components
        ]
        cache = PrimitiveMatchCache(ArtifactCache(tmp_path))
        for match_cache in (None, cache, cache):
            scoped = annotate_components(
                graph, partition, LIBRARY, match_cache=match_cache
            )
            for cid, direct in enumerate(naive):
                assert scoped[cid].matches == direct.matches
                assert scoped[cid].unclaimed == direct.unclaimed


#: Two same-shape CCCs: three NMOS on one tail net plus the tail NMOS,
#: drain resistors to ``vdd!``.  The second copy names its devices in
#: reverse card order, so DP-N's overlapping pairs sort — and claim —
#: in a different structural order in each copy.
REVERSED_COPY_DECK = """* two diff-pair banks, the second named in reverse
ma0 da0 ga0 ta gnd! nmos
ma1 da1 ga1 ta gnd! nmos
ma2 da2 ga2 ta gnd! nmos
ma3 ta ba gnd! gnd! nmos
ra0 da0 vdd! 1k
ra1 da1 vdd! 1k
ra2 da2 vdd! 1k
mz3 dz0 gz0 tz gnd! nmos
mz2 dz1 gz1 tz gnd! nmos
mz1 dz2 gz2 tz gnd! nmos
mz0 tz bz gnd! gnd! nmos
rz2 dz0 vdd! 1k
rz1 dz1 vdd! 1k
rz0 dz2 vdd! 1k
.end
"""

#: Two same-shape CCCs whose PMOS source is a rail in one (``vdd!``)
#: and a signal net in the other (``vx``): only ``mp1`` passes
#: CS-Amp-P's ``power`` port predicate.
RAIL_DECK = """* one shape, one rail
mp1 d1 g1 vdd! vdd! pmos
r1 d1 gnd! 1k
mp2 d2 g2 vx vx pmos
r2 d2 gnd! 1k
.end
"""


def _deck_graph(netlist) -> CircuitGraph:
    if isinstance(netlist, str):
        netlist = parse_netlist(netlist)
    return CircuitGraph.from_circuit(flatten(netlist))


def _searches(graph: CircuitGraph) -> int:
    """VF2 searches one memo-less ``annotate_components`` call runs."""
    stats = MatchStats()
    annotate_components(
        graph, channel_connected_components(graph), LIBRARY, stats=stats
    )
    return sum(entry.launches for entry in stats.templates.values())


class TestShapeSharing:
    """CCCs of one shape share one context and each template's
    canonical, pre-predicate images within one call; every CCC still
    names, predicate-checks, sorts and claims its own matches, so each
    equals the naive reference on its own subgraph."""

    @staticmethod
    def _annotate_two_copies(deck: str):
        graph = _deck_graph(deck)
        partition = channel_connected_components(graph)
        first, second = (sorted(c) for c in partition.components)
        assert member_shape(graph, first)[0] == member_shape(graph, second)[0]
        stats = MatchStats()
        scoped = annotate_components(graph, partition, LIBRARY, stats=stats)
        assert any(entry.shared for entry in stats.templates.values())
        for cid, members in enumerate(partition.components):
            naive = annotate_primitives(
                graph.subgraph_of_elements(members), LIBRARY, indexed=False
            )
            assert scoped[cid].matches == naive.matches, cid
            assert scoped[cid].unclaimed == naive.unclaimed, cid
        return scoped

    def test_reverse_named_copy_sorts_and_claims_by_its_own_names(self):
        scoped = self._annotate_two_copies(REVERSED_COPY_DECK)
        claimed = [
            [m.describe() for m in scoped[cid].matches if m.primitive == "DP-N"]
            for cid in (0, 1)
        ]
        assert claimed == [["DP-N(ma0, ma1)"], ["DP-N(mz1, mz2)"]]

    def test_port_predicates_read_each_copys_own_nets(self):
        scoped = self._annotate_two_copies(RAIL_DECK)
        assert [m.describe() for m in scoped[0].matches] == ["CS-Amp-P(mp1)"]
        assert scoped[1].matches == []

    def test_repeated_channels_are_searched_once_per_call(self):
        """Sixteen identical channels cost at most twice the searches
        of two: the copies past each shape's first are named, not
        searched."""
        small, large = (
            _deck_graph(phased_array_hier(n_channels=n)[0]) for n in (2, 16)
        )
        assert _searches(large) <= 2 * _searches(small)

    def test_budget_cut_search_records_nothing_and_names_the_target(self):
        """A search cut short by its budget leaves the shared context
        without an entry, and its partial matches carry the names of
        the target it ran for, not those of the shape's first CCC."""
        graph = _deck_graph(REVERSED_COPY_DECK)
        first, second = (
            sorted(c) for c in channel_connected_components(graph).components
        )
        context = TargetContext.build(graph, first)
        target = SimpleNamespace(
            elements=[graph.elements[i] for i in second],
            nets=member_shape(graph, second)[1],
        )
        template = LIBRARY.get("DP-N")
        with pytest.raises(BudgetExceeded) as info:
            find_primitive_matches(
                template,
                target,
                budget=Budget(max_steps=12),
                context=context,
            )
        assert not context.searches
        partial = info.value.partial
        assert partial
        second_names = {graph.elements[i].name for i in second}
        assert all(match.elements <= second_names for match in partial)
        full = find_primitive_matches(template, target, context=context)
        assert list(context.searches) == [template_profile(template)]
        assert full == find_primitive_matches(
            template, graph.subgraph_of_elements(second), indexed=False
        )


class TestTemplateProfiles:
    def test_memoized_per_template_object(self):
        template = LIBRARY.templates[0]
        assert template_profile(template) is template_profile(template)

    def test_profile_invariants(self):
        for template in LIBRARY.templates:
            profile = template_profile(template)
            graph = template.graph
            assert profile.n_elements == graph.n_elements
            assert len(profile.order) == graph.n_vertices
            assert sorted(profile.order) == list(range(graph.n_vertices))
            assert len(profile.depth_plan) == graph.n_vertices
            assert profile.element_names == tuple(
                el.name for el in graph.elements
            )
            # Automorphisms are bijections fixing element/net split.
            for sigma in profile.automorphisms:
                assert sorted(sigma) == list(range(graph.n_vertices))
                assert all(
                    (v < graph.n_elements) == (sigma[v] < graph.n_elements)
                    for v in range(graph.n_vertices)
                )

    def test_differential_pair_has_arm_swap_symmetry(self):
        dp = LIBRARY.get("DP-N")
        assert template_profile(dp).automorphisms


class TestCanonicalMapping:
    def test_identity_when_no_automorphisms(self):
        mapping = {0: 5, 1: 3, 2: 9}
        assert canonical_mapping(mapping, ()) == mapping

    def test_picks_lex_minimal_orbit_member(self):
        # One automorphism swapping pattern vertices 0 and 1.
        sigma = (1, 0, 2)
        mapping = {0: 7, 1: 4, 2: 2}
        canonical = canonical_mapping(mapping, (sigma,))
        assert canonical == {0: 4, 1: 7, 2: 2}
        # Canonicalizing is idempotent across the whole orbit.
        assert canonical_mapping(canonical, (sigma,)) == canonical
