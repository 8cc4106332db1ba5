"""Primitive annotation: matching, dedup, overlap resolution."""

import pytest

from repro.core.constraints import ConstraintKind
from repro.graph.bipartite import CircuitGraph
from repro.primitives import matcher
from repro.primitives.library import default_library, extended_library
from repro.primitives.matcher import annotate_primitives, find_primitive_matches
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist
from tests.conftest import EXAMPLES_DIR

LIB = default_library()


def _graph(deck: str) -> CircuitGraph:
    return CircuitGraph.from_circuit(flatten(parse_netlist(deck)))


class TestFindMatches:
    def test_dp_automorphism_deduplicated(self):
        deck = """
m1 d1 inp t gnd! nmos
m2 d2 inn t gnd! nmos
m3 t vb gnd! gnd! nmos
.end
"""
        matches = find_primitive_matches(LIB.get("DP-N"), _graph(deck))
        assert len(matches) == 1  # arm swap is the same match

    def test_match_carries_renamed_constraints(self):
        deck = """
m1 d1 inp t gnd! nmos
m2 d2 inn t gnd! nmos
m3 t vb gnd! gnd! nmos
.end
"""
        (match,) = find_primitive_matches(LIB.get("DP-N"), _graph(deck))
        sym = [c for c in match.constraints if c.kind is ConstraintKind.SYMMETRY]
        assert sym
        assert set(sym[0].members) == {"m1", "m2"}
        assert sym[0].source == "DP-N"

    def test_port_predicate_filters(self):
        # CM-N(2) requires the common source on a power net.
        floating = """
m1 ref ref srcnet gnd! nmos
m2 out ref srcnet gnd! nmos
.end
"""
        assert not find_primitive_matches(LIB.get("CM-N(2)"), _graph(floating))
        grounded = """
m1 ref ref gnd! gnd! nmos
m2 out ref gnd! gnd! nmos
.end
"""
        assert len(find_primitive_matches(LIB.get("CM-N(2)"), _graph(grounded))) == 1

    def test_element_map_names(self):
        deck = """
m1 ref ref gnd! gnd! nmos
m2 out ref gnd! gnd! nmos
.end
"""
        (match,) = find_primitive_matches(LIB.get("CM-N(2)"), _graph(deck))
        assert match.elements == {"m1", "m2"}
        assert match.net_dict["ref"] == "ref"
        assert match.net_dict["s"] == "gnd!"

    def test_cross_coupled_pair(self):
        deck = """
m1 d1 d2 t gnd! nmos
m2 d2 d1 t gnd! nmos
m3 t vb gnd! gnd! nmos
.end
"""
        matches = find_primitive_matches(LIB.get("CC-N"), _graph(deck))
        assert len(matches) == 1

    def test_lc_tank(self):
        deck = "l1 a b 1n\nc1 a b 1p\n.end\n"
        matches = find_primitive_matches(LIB.get("LC-TANK"), _graph(deck))
        assert len(matches) == 1


class TestNamingOnce:
    def test_annotating_names_each_launch_once(self, monkeypatch):
        """Largest-first matching names a launch's images once, as it
        claims them: on a new library nothing goes through the naming
        of :func:`find_primitive_matches`, which still names its own."""
        calls = []
        real = matcher._translate

        def counting(*args):
            calls.append(args[0].name)
            return real(*args)

        monkeypatch.setattr(matcher, "_translate", counting)
        graph = _graph((EXAMPLES_DIR / "ota_array.sp").read_text())
        result = annotate_primitives(graph, default_library())
        assert result.matches
        assert calls == []
        assert find_primitive_matches(LIB.get("DP-N"), graph)
        assert calls == ["DP-N"]


class TestOverlapResolution:
    CASCODE_DECK = """
m1 ref ref nc gnd! nmos
m2 nc nc gnd! gnd! nmos
m3 out ref no gnd! nmos
m4 no nc gnd! gnd! nmos
.end
"""

    def test_cascode_mirror_wins_over_parts(self):
        result = annotate_primitives(_graph(self.CASCODE_DECK), LIB)
        primitives = [m.primitive for m in result.matches]
        assert "CM-N(casc)" in primitives
        assert len(result.claimed) == 4
        assert not result.unclaimed

    def test_unclaimed_devices_listed(self):
        deck = "m1 out in gnd! gnd! nmos\nm2 x y z gnd! nmos\nr1 z q 1k\n.end\n"
        result = annotate_primitives(_graph(deck), LIB)
        claimed_plus_unclaimed = result.claimed | set(result.unclaimed)
        assert claimed_plus_unclaimed == {"m1", "m2", "r1"}

    def test_by_primitive_grouping(self):
        deck = """
m1 r1n r1n gnd! gnd! nmos
m2 o1 r1n gnd! gnd! nmos
m3 r2n r2n vdd! vdd! pmos
m4 o2 r2n vdd! vdd! pmos
.end
"""
        result = annotate_primitives(_graph(deck), LIB)
        grouped = result.by_primitive()
        assert len(grouped.get("CM-N(2)", [])) == 1
        assert len(grouped.get("CM-P(2)", [])) == 1

    def test_constraints_aggregated(self):
        deck = """
m1 d1 inp t gnd! nmos
m2 d2 inn t gnd! nmos
m3 t vb gnd! gnd! nmos
.end
"""
        result = annotate_primitives(_graph(deck), LIB)
        kinds = {c.kind for c in result.constraints()}
        assert ConstraintKind.SYMMETRY in kinds


class TestInvBufDistinction:
    def test_inverter_matches_inv_not_buf(self):
        lib = extended_library()
        deck = """
m1 out in gnd! gnd! nmos
m2 out in vdd! vdd! pmos
.end
"""
        result = annotate_primitives(_graph(deck), lib)
        assert [m.primitive for m in result.matches] == ["INV"]

    def test_source_follower_buffer_matches_buf_not_inv(self):
        lib = extended_library()
        deck = """
m1 vdd! in out gnd! nmos
m2 gnd! in out vdd! pmos
.end
"""
        result = annotate_primitives(_graph(deck), lib)
        assert [m.primitive for m in result.matches] == ["BUF"]


class TestOtaAnnotation:
    def test_fig3_ota_primitives(self, diff_ota_graph):
        result = annotate_primitives(diff_ota_graph, LIB)
        primitives = sorted(m.primitive for m in result.matches)
        # DP + per-device CS amps for the loads/tail/reference.
        assert "DP-N" in primitives
        assert not result.unclaimed
