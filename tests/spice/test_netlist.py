"""Netlist data-model invariants."""

import pytest

from repro.spice.netlist import (
    Circuit,
    Device,
    TERMINALS,
    DeviceKind,
    is_ground_net,
    is_power_net,
    is_supply_net,
    make_mos,
    make_passive,
)


class TestNetNameConventions:
    @pytest.mark.parametrize("net", ["vdd", "vdd!", "VDD", "vcc", "avdd", "vdd2"])
    def test_supply_nets(self, net):
        assert is_supply_net(net)

    @pytest.mark.parametrize("net", ["gnd", "gnd!", "0", "vss", "agnd", "VSS"])
    def test_ground_nets(self, net):
        assert is_ground_net(net)

    @pytest.mark.parametrize("net", ["vin", "n1", "vout", "vbias", "tail"])
    def test_signal_nets(self, net):
        assert not is_power_net(net)

    def test_supply_is_not_ground(self):
        assert not is_ground_net("vdd!")
        assert not is_supply_net("gnd!")


class TestPowerNetMemo:
    """The is_power_net memo must not leak across rail conventions.

    The old ``functools.lru_cache`` was process-wide: a run under a
    monkeypatched ``SUPPLY_NET_RE`` left poisoned answers behind for
    every later run in the process.  The explicit memo is cleared at
    the start of each pipeline run via :func:`reset_power_net_memo`.
    """

    def test_reset_drops_stale_answers(self, monkeypatch):
        import re

        from repro.spice import netlist

        netlist.reset_power_net_memo()
        monkeypatch.setattr(
            netlist, "SUPPLY_NET_RE", re.compile(r"^railx$", re.IGNORECASE)
        )
        assert is_power_net("railx")  # memoized under the patched regex
        monkeypatch.undo()
        # Stale without the reset — this is the poisoned-cache hazard.
        assert netlist._POWER_NET_MEMO.get("railx") is True
        netlist.reset_power_net_memo()
        assert not is_power_net("railx")

    def test_back_to_back_runs_use_their_own_conventions(
        self, monkeypatch, quick_ota_annotator
    ):
        """Two pipeline runs, different conventions: no cross-talk.

        Run 1 treats ``railx`` as a supply (so devices tied to it read
        as rail-connected); run 2 uses stock conventions, where
        ``railx`` is an ordinary signal net.  With the old process-wide
        ``lru_cache`` run 2 inherited run 1's answer.
        """
        import re

        from repro.core.pipeline import GanaPipeline
        from repro.spice import netlist

        deck = """
        * deck whose rail name is convention-dependent
        m1 out in railx gnd! nmos w=1u l=100n
        m2 out in vdd! vdd! pmos w=2u l=100n
        c1 railx gnd! 1p
        .end
        """
        pipeline = GanaPipeline(annotator=quick_ota_annotator)

        monkeypatch.setattr(
            netlist,
            "SUPPLY_NET_RE",
            re.compile(r"^(vdd[!]?|railx)$", re.IGNORECASE),
        )
        first = pipeline.run(deck)
        # railx is a rail here, so c1 bridges two rails: a decap,
        # removed by preprocessing.
        assert "c1" in first.preprocess_report.removed_names

        monkeypatch.undo()
        second = pipeline.run(deck)
        # Under stock conventions railx is a signal net again, so c1
        # is an ordinary load capacitor and must survive.  The old
        # lru_cache leaked run 1's answer and removed it here too.
        assert not netlist.is_power_net("railx")
        assert "c1" not in second.preprocess_report.removed_names
        assert "c1" in {d.name for d in second.graph.elements}


class TestDevice:
    def test_mos_terminals_enforced(self):
        with pytest.raises(ValueError):
            Device(
                name="m1",
                kind=DeviceKind.NMOS,
                pins=(("p", "a"), ("n", "b")),
            )

    def test_passive_terminals_enforced(self):
        with pytest.raises(ValueError):
            Device(
                name="r1",
                kind=DeviceKind.RESISTOR,
                pins=(("d", "a"), ("g", "b"), ("s", "c"), ("b", "d")),
            )

    def test_param_lookup_case_insensitive(self):
        dev = make_mos("m1", DeviceKind.NMOS, "d", "g", "s", w=2e-6)
        assert dev.param("W") == pytest.approx(2e-6)
        assert dev.param("nf") is None
        assert dev.param("nf", 1.0) == 1.0

    def test_renamed_remaps_nets(self):
        dev = make_mos("m1", DeviceKind.NMOS, "d", "g", "s")
        renamed = dev.renamed("x/m1", {"d": "x/d", "g": "vb"})
        assert renamed.name == "x/m1"
        assert renamed.pin_map["d"] == "x/d"
        assert renamed.pin_map["g"] == "vb"
        assert renamed.pin_map["s"] == "s"

    def test_kind_predicates(self):
        assert DeviceKind.NMOS.is_transistor
        assert DeviceKind.CAPACITOR.is_passive
        assert DeviceKind.VSOURCE.is_source
        assert not DeviceKind.RESISTOR.is_transistor

    def test_kind_terminals(self):
        assert DeviceKind.PMOS.terminals == ("d", "g", "s", "b")
        assert all(kind.terminals == TERMINALS[kind] for kind in DeviceKind)

    def test_make_mos_default_body(self):
        n = make_mos("m1", DeviceKind.NMOS, "d", "g", "s")
        p = make_mos("m2", DeviceKind.PMOS, "d", "g", "s")
        assert n.pin_map["b"] == "gnd!"
        assert p.pin_map["b"] == "vdd!"

    def test_make_mos_rejects_passive_kind(self):
        with pytest.raises(ValueError):
            make_mos("r1", DeviceKind.RESISTOR, "a", "b", "c")

    def test_make_passive_rejects_mos_kind(self):
        with pytest.raises(ValueError):
            make_passive("m1", DeviceKind.NMOS, "a", "b", 1.0)


class TestCircuit:
    def _circuit(self) -> Circuit:
        c = Circuit(name="c", ports=("in", "out"))
        c.add(make_mos("m1", DeviceKind.NMOS, "out", "in", "gnd!"))
        c.add(make_passive("r1", DeviceKind.RESISTOR, "vdd!", "out", 1e3))
        return c

    def test_nets_first_seen_order(self):
        c = self._circuit()
        assert c.nets[:2] == ("in", "out")
        assert set(c.nets) == {"in", "out", "gnd!", "vdd!"}

    def test_device_lookup(self):
        c = self._circuit()
        assert c.device("m1").kind is DeviceKind.NMOS
        with pytest.raises(KeyError):
            c.device("nope")

    def test_count_and_transistors(self):
        c = self._circuit()
        assert c.count(DeviceKind.NMOS) == 1
        assert c.count(DeviceKind.RESISTOR) == 1
        assert [d.name for d in c.transistors()] == ["m1"]

    def test_is_flat(self):
        c = self._circuit()
        assert c.is_flat()
