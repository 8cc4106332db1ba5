"""Process-global memos in one long-lived process.

Two hundred varied generated decks, flat and hierarchy-scoped, go
through one process.  Every memo must stay within its bound, and a
result must not depend on what earlier decks left in the memos: each
one equals the run of a fresh library, whose shape table is empty.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import stages
from repro.core.pipeline import GanaPipeline
from repro.core.stages import pipeline_result_fingerprint
from repro.primitives import index, library, matcher
from repro.primitives.library import PrimitiveLibrary
from repro.spice import netlist
from repro.spice.parser import parse_netlist
from repro.spice.writer import write_netlist
from repro.testing.generator import GenConfig, generate_deck
from tests.core.test_golden import golden_payload

#: Larger hierarchies than the generator default, so the 200 decks
#: carry more distinct net names than the power-net memo's cap.
CONFIG = GenConfig(max_subckts=4, max_instances=8)

#: Memos bounded by a size cap: (module, memo, cap).
SIZED = ((netlist, "_POWER_NET_MEMO", "_POWER_NET_MEMO_MAX"),)

#: Identity-keyed memos: one entry per live annotator, template or
#: library.
KEYED = (
    (stages, "_ANNOTATOR_FP_MEMO"),
    (library, "_TEMPLATE_FP_MEMO"),
    (index, "_PROFILE_MEMO"),
    (matcher, "_SHAPE_TABLES"),
)


class _Recording(dict):
    """A memo dict that also remembers every key ever stored in it."""

    def __init__(self):
        super().__init__()
        self.seen = set()

    def __setitem__(self, key, value):
        self.seen.add(key)
        super().__setitem__(key, value)


def _own_names(text: str, tag: int) -> str:
    """Tag the deck's top-level signal nets and instance names, so no
    two decks share a flattened net name."""
    deck = parse_netlist(text)
    rename = {
        net: f"{net}d{tag}"
        for net in deck.top.nets
        if not netlist.is_power_net(net) and net not in deck.globals_
    }
    deck.top.devices = [dev.renamed(dev.name, rename) for dev in deck.top.devices]
    deck.top.instances = [
        inst.renamed(f"{inst.name}d{tag}", rename) for inst in deck.top.instances
    ]
    return write_netlist(deck)


def _clear_all_memos() -> None:
    for module, name, _cap in SIZED:
        getattr(module, name).clear()
    for module, name in KEYED:
        getattr(module, name).clear()


def _assert_same_result(result, fresh, where) -> None:
    """``result`` equals ``fresh``, a run on an empty shape table: the
    goldens' float-free content (matching cannot move the GCN
    probabilities) and the hier report."""
    assert golden_payload(result) == golden_payload(fresh), where
    if fresh.hier is not None:
        # ``reused`` counts the CCCs the table answered: a warm table
        # answers every one a fresh table does, and maybe more.
        assert dataclasses.replace(result.hier, reused=fresh.hier.reused) == (
            fresh.hier
        ), where
        assert result.hier.reused >= fresh.hier.reused, where
    else:
        assert result.hier is None, where


@pytest.mark.slow
def test_memos_stay_bounded_and_never_change_a_result(
    quick_ota_annotator, monkeypatch
):
    for module, name, _cap in SIZED:
        monkeypatch.setattr(module, name, _Recording())
    pipeline = GanaPipeline(annotator=quick_ota_annotator)
    keyed_bound = None
    for seed in range(200):
        deck = generate_deck(seed, CONFIG)
        text = _own_names(deck.text, seed)
        for hier in (False, True):
            result = pipeline.run(text, mode=deck.mode, hier=hier)
            for module, name, cap in SIZED:
                assert len(getattr(module, name)) <= getattr(module, cap), name
            table = matcher.shape_table(pipeline.library)
            assert table.weight <= matcher.SHAPE_TABLE_BOUND
            # The same templates in a new library: an empty shape table.
            fresh = GanaPipeline(
                annotator=quick_ota_annotator,
                library=PrimitiveLibrary(list(pipeline.library.templates)),
            ).run(text, mode=deck.mode, hier=hier)
            _assert_same_result(result, fresh, (seed, hier))
            if seed % 20 == 0:
                _clear_all_memos()
                fresh = pipeline.run(text, mode=deck.mode, hier=hier)
                assert pipeline_result_fingerprint(
                    result
                ) == pipeline_result_fingerprint(fresh), (seed, hier)
                _assert_same_result(result, fresh, (seed, hier))
        sizes = {name: len(getattr(module, name)) for module, name in KEYED}
        if keyed_bound is None:
            keyed_bound = sizes
        for name, size in sizes.items():
            assert size <= keyed_bound[name], name
    # Without its cap, the power-net memo would have outgrown it.
    for module, name, cap in SIZED:
        assert len(getattr(module, name).seen) > getattr(module, cap), name
