"""Hierarchy flattening semantics."""

import pytest

from repro.exceptions import ElaborationError
from repro.spice.flatten import flatten, instance_path
from repro.spice.parser import parse_netlist
from tests.conftest import HIERARCHICAL_DECK


class TestFlatten:
    def test_two_level_expansion(self):
        flat = flatten(parse_netlist(HIERARCHICAL_DECK))
        names = sorted(d.name for d in flat.devices)
        assert names == [
            "rload",
            "xbuf/x1/mn",
            "xbuf/x1/mp",
            "xbuf/x2/mn",
            "xbuf/x2/mp",
        ]

    def test_port_connection(self):
        flat = flatten(parse_netlist(HIERARCHICAL_DECK))
        first = flat.device("xbuf/x1/mn")
        assert first.pin_map["g"] == "a"  # outer net through two levels
        second = flat.device("xbuf/x2/mn")
        assert second.pin_map["d"] == "b"

    def test_internal_net_prefixing(self):
        flat = flatten(parse_netlist(HIERARCHICAL_DECK))
        first = flat.device("xbuf/x1/mn")
        assert first.pin_map["d"] == "xbuf/mid"

    def test_global_nets_not_prefixed(self):
        flat = flatten(parse_netlist(HIERARCHICAL_DECK))
        assert flat.device("xbuf/x1/mn").pin_map["s"] == "gnd!"
        assert flat.device("xbuf/x1/mp").pin_map["s"] == "vdd!"

    def test_power_nets_global_by_convention(self):
        deck = """
.subckt cell a
r1 a vdd! 1k
.ends
x1 n cell
.end
"""
        flat = flatten(parse_netlist(deck))
        assert flat.device("x1/r1").pin_map["n"] == "vdd!"

    def test_missing_subckt_fails(self):
        with pytest.raises(ElaborationError):
            flatten(parse_netlist("x1 a b nosuch\n.end\n"))

    def test_port_arity_mismatch_fails(self):
        deck = ".subckt s a b\nr1 a b 1k\n.ends\nx1 n s\n.end\n"
        with pytest.raises(ElaborationError):
            flatten(parse_netlist(deck))

    def test_recursive_instantiation_fails(self):
        deck = """
.subckt loop a
x1 a loop
.ends
x0 n loop
.end
"""
        with pytest.raises(ElaborationError):
            flatten(parse_netlist(deck))

    def test_flat_result_has_no_instances(self):
        flat = flatten(parse_netlist(HIERARCHICAL_DECK))
        assert flat.is_flat()

    def test_top_ports_preserved(self):
        deck = ".subckt s a\nr1 a gnd! 1k\n.ends\nx1 n s\n.end\n"
        netlist = parse_netlist(deck)
        netlist.top.ports = ("n",)
        flat = flatten(netlist)
        assert flat.ports == ("n",)


class TestInstancePath:
    def test_path_split(self):
        assert instance_path("xf/xo/m1") == ("xf", "xo", "m1")

    def test_flat_name(self):
        assert instance_path("m1") == ("m1",)


class TestInstanceMultiplier:
    def test_mos_multiplier_scales(self):
        deck = """
.subckt cell a
m1 a a gnd! gnd! nmos w=1u m=2
.ends
x1 n cell m=3
.end
"""
        flat = flatten(parse_netlist(deck))
        assert flat.device("x1/m1").param("m") == pytest.approx(6.0)

    def test_capacitor_scales_up(self):
        deck = ".subckt cell a\nc1 a gnd! 1p\n.ends\nx1 n cell m=4\n.end\n"
        flat = flatten(parse_netlist(deck))
        assert flat.device("x1/c1").value == pytest.approx(4e-12)

    def test_resistor_scales_down(self):
        deck = ".subckt cell a\nr1 a gnd! 1k\n.ends\nx1 n cell m=4\n.end\n"
        flat = flatten(parse_netlist(deck))
        assert flat.device("x1/r1").value == pytest.approx(250.0)

    def test_nested_multipliers_compose(self):
        deck = """
.subckt inner a
m1 a a gnd! gnd! nmos
.ends
.subckt outer a
x1 a inner m=2
.ends
x0 n outer m=3
.end
"""
        flat = flatten(parse_netlist(deck))
        assert flat.device("x0/x1/m1").param("m") == pytest.approx(6.0)

    def test_no_multiplier_untouched(self):
        deck = ".subckt cell a\nr1 a gnd! 1k\n.ends\nx1 n cell\n.end\n"
        flat = flatten(parse_netlist(deck))
        assert flat.device("x1/r1").value == pytest.approx(1e3)


class TestDesignTree:
    """Hierarchy-preserving mode: same flat circuit + a DesignTree."""

    def _elaborate(self, deck=HIERARCHICAL_DECK):
        from repro.spice.flatten import flatten_hierarchical

        return flatten_hierarchical(parse_netlist(deck))

    def test_flat_circuit_identical_to_flatten(self):
        netlist = parse_netlist(HIERARCHICAL_DECK)
        plain = flatten(netlist)
        hier_flat, _tree = self._elaborate()
        assert [d.name for d in hier_flat.devices] == [
            d.name for d in plain.devices
        ]
        assert [d.pins for d in hier_flat.devices] == [
            d.pins for d in plain.devices
        ]
        assert hier_flat.ports == plain.ports

    def test_definitions_fingerprinted(self):
        _flat, tree = self._elaborate()
        assert set(tree.definitions) == {"inverter", "buffer"}
        inv = tree.definitions["inverter"]
        assert inv.ports == ("in", "out")
        assert inv.n_devices == 2
        assert inv.n_subinstances == 0
        assert len(inv.fingerprint) == 64
        buf = tree.definitions["buffer"]
        assert buf.n_subinstances == 2
        assert buf.fingerprint != inv.fingerprint

    def test_fingerprints_stable_across_parses(self):
        _f1, t1 = self._elaborate()
        _f2, t2 = self._elaborate()
        assert {k: d.fingerprint for k, d in t1.definitions.items()} == {
            k: d.fingerprint for k, d in t2.definitions.items()
        }

    def test_fingerprints_sensitive_and_transitive(self):
        edited = HIERARCHICAL_DECK.replace("w=1u", "w=9u")
        _f1, base = self._elaborate()
        _f2, changed = self._elaborate(edited)
        # Editing the inverter body changes the inverter fingerprint
        # AND (Merkle-style) the enclosing buffer's.
        assert (
            base.definitions["inverter"].fingerprint
            != changed.definitions["inverter"].fingerprint
        )
        assert (
            base.definitions["buffer"].fingerprint
            != changed.definitions["buffer"].fingerprint
        )

    def test_instance_table(self):
        _flat, tree = self._elaborate()
        by_path = {rec.path: rec for rec in tree.instances}
        assert set(by_path) == {"xbuf", "xbuf/x1", "xbuf/x2"}
        assert by_path["xbuf"].parent == ""
        assert by_path["xbuf/x1"].parent == "xbuf"
        assert by_path["xbuf/x1"].definition == "inverter"
        assert dict(by_path["xbuf/x1"].bindings) == {
            "in": "a",
            "out": "xbuf/mid",
        }
        assert dict(by_path["xbuf/x2"].bindings) == {
            "in": "xbuf/mid",
            "out": "b",
        }
        assert tree.n_unique() == 2  # inverter + buffer groups

    def test_multiplier_splits_groups(self):
        deck = """
.subckt cell a
r1 a gnd! 1k
.ends
x1 n1 cell
x2 n2 cell m=2
.end
"""
        flat, tree = self._elaborate(deck)
        assert {rec.multiplier for rec in tree.instances} == {1.0, 2.0}
        assert tree.n_unique() == 2
        assert flat.device("x2/r1").value == 500.0

    def test_lenient_skips_mirror_flat_circuit(self):
        from repro.spice.flatten import flatten_hierarchical

        deck = HIERARCHICAL_DECK.replace(
            ".end\n", "xbad z nosuch\n.end\n"
        )
        diags: list = []
        flat, tree = flatten_hierarchical(parse_netlist(deck), diags)
        assert diags, "the bad instance was diagnosed"
        assert "xbad" not in {rec.path for rec in tree.instances}
        assert sorted(d.name for d in flat.devices) == sorted(
            d.name for d in flatten(parse_netlist(HIERARCHICAL_DECK)).devices
        )


class TestFingerprintMemo:
    def test_distinct_objects_rehash(self):
        from repro.spice.flatten import definition_fingerprints

        a = definition_fingerprints(parse_netlist(HIERARCHICAL_DECK))
        b = definition_fingerprints(parse_netlist(HIERARCHICAL_DECK))
        assert a == b  # content equal even across distinct objects
