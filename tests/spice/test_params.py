"""``.param`` cards: assignments resolve in deck order.

Each assignment sees every one before it, later on the same card and
on later cards.  A forward reference stays unresolved, so the device
parameter that uses it is dropped.  Device cards see the final table,
wherever the ``.param`` card sits.
"""

from __future__ import annotations

from repro.spice.parser import parse_netlist

U = 1e-6  # the scale of the "u" suffix
DEVICE = "m1 d g s b nmos w={b} l=1u\n"


def _params(deck: str, mode: str = "strict"):
    netlist = parse_netlist(deck, mode=mode)
    (device,) = netlist.top.devices
    return device.params, netlist.diagnostics


def test_chain_on_one_card():
    params, _ = _params("* t\n.param a=2u b={a}\n" + DEVICE)
    assert params == (("w", 2 * U), ("l", U))


def test_chain_across_cards():
    params, _ = _params("* t\n.param a=2u\n.param b='a'\n" + DEVICE)
    assert params == (("w", 2 * U), ("l", U))


def test_bare_name_reference_on_one_card():
    params, _ = _params("* t\n.PARAM A=3u B = a\n" + DEVICE)
    assert params == (("w", 3 * U), ("l", U))


def test_forward_reference_stays_unresolved():
    params, _ = _params("* t\n.param b={a}\n.param a=2u\n" + DEVICE)
    assert params == (("l", U),)
    params, _ = _params("* t\n.param b={a} a=2u\n" + DEVICE)
    assert params == (("l", U),)


def test_device_sees_a_later_card():
    params, _ = _params("* t\n" + DEVICE + ".param b=2u\n")
    assert params == (("w", 2 * U), ("l", U))


def test_later_assignment_wins_for_devices_but_not_for_earlier_chains():
    deck = "* t\n.param a=1u b={a}\n.param a=5u\n" + DEVICE.replace("l=1u", "l={a}")
    params, _ = _params(deck)
    assert params == (("w", U), ("l", 5 * U))


def test_lenient_malformed_card_contributes_nothing():
    deck = "* t\n.param a=2u b=\n.param b={a}\n" + DEVICE
    params, diagnostics = _params(deck, mode="lenient")
    assert params == (("l", U),)
    assert [d.line for d in diagnostics] == [2]
