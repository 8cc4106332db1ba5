"""The front end derives each per-device fact once.

These tests count work rather than time it: the top level elaborates
in place (no ``Device`` is constructed for a deck without instances),
parsing runs the number regex once per numeric token, and the
``DeviceKind`` predicates keep their meaning after becoming plain
member attributes.  Preprocess keys its parallel-merge groups on the
kind's value, the model and the raw pins, which must still tell every
distinct connection apart.
"""

from __future__ import annotations

import pytest

from repro.spice import units
from repro.spice.flatten import flatten, flatten_hierarchical
from repro.spice.netlist import Device, DeviceKind
from repro.spice.parser import parse_netlist
from repro.spice.preprocess import preprocess
from tests.conftest import DIFF_OTA_DECK, HIERARCHICAL_DECK


@pytest.fixture()
def constructed(monkeypatch) -> list[str]:
    """Names of the ``Device`` objects built while the test runs."""
    names: list[str] = []
    check = Device.__post_init__

    def counting(self):
        names.append(self.name)
        check(self)

    monkeypatch.setattr(Device, "__post_init__", counting)
    return names


@pytest.mark.parametrize(
    "elaborate",
    [flatten, lambda netlist: flatten_hierarchical(netlist)[0]],
    ids=["flatten", "flatten_hierarchical"],
)
def test_top_level_devices_are_not_copied(constructed, elaborate):
    netlist = parse_netlist(DIFF_OTA_DECK)
    constructed.clear()
    flat = elaborate(netlist)
    assert constructed == []
    assert len(flat.devices) == len(netlist.top.devices) == 6
    assert all(a is b for a, b in zip(flat.devices, netlist.top.devices))


def test_only_instance_bodies_are_constructed(constructed):
    netlist = parse_netlist(HIERARCHICAL_DECK)
    constructed.clear()
    flat = flatten(netlist)
    assert sorted(constructed) == ["xbuf/x1/mn", "xbuf/x1/mp", "xbuf/x2/mn", "xbuf/x2/mp"]
    (rload,) = [d for d in flat.devices if d.name == "rload"]
    assert rload is netlist.top.devices[0]


class _CountingPattern:
    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def match(self, text):
        self.calls += 1
        return self.pattern.match(text)


#: Eleven numeric tokens: six parameter values (one given as ``r=``),
#: four positional values and one ``dc`` value.
NUMERIC_DECK = """\
* one regex match per number
m1 d g s b nmos w=1u l=100n
m2 d g s b pmos w=2e-06 l=1e-07 m=2
r1 a b 1k
c1 a b 10p
l1 a b 1n
v1 a 0 dc 1.8
i1 a 0 10u
r2 a b r=5k
.end
"""


def test_each_number_is_matched_once(monkeypatch):
    counting = _CountingPattern(units._NUMBER_RE)
    monkeypatch.setattr(units, "_NUMBER_RE", counting)
    netlist = parse_netlist(NUMERIC_DECK)
    assert counting.calls == 11
    values = {d.name: (d.value, d.params) for d in netlist.top.devices}
    assert values["m2"] == (None, (("w", 2e-06), ("l", 1e-07), ("m", 2.0)))
    assert values["v1"] == (1.8, ())
    assert values["r2"] == (5000.0, (("r", 5000.0),))


TRANSISTORS = (DeviceKind.NMOS, DeviceKind.PMOS)
PASSIVES = (DeviceKind.RESISTOR, DeviceKind.CAPACITOR, DeviceKind.INDUCTOR)
SOURCES = (DeviceKind.VSOURCE, DeviceKind.ISOURCE)


@pytest.mark.parametrize("kind", list(DeviceKind), ids=lambda k: k.value)
def test_kind_predicates_match_their_definitions(kind):
    assert kind.is_transistor is (kind in TRANSISTORS)
    assert kind.is_passive is (kind in PASSIVES)
    assert kind.is_source is (kind in SOURCES)


def test_parallel_merge_needs_same_kind_model_and_pins():
    deck = """\
* only m1 and m2 are parallel
m1 d g s b nmos w=1u l=100n
m2 d g s b nmos w=1u l=100n
m3 d g s b nch w=1u l=100n
m4 d g b s nmos w=1u l=100n
m5 d g s b pmos w=1u l=100n
.end
"""
    reduced, report = preprocess(flatten(parse_netlist(deck)))
    assert [d.name for d in reduced.devices] == ["m1", "m3", "m4", "m5"]
    assert reduced.devices[0].param("m") == 2.0
    assert report.absorbed["m1"] == ["m1", "m2"]
