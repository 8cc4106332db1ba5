"""The oracle registry and the model-free oracles on known decks."""

from __future__ import annotations

import pytest

from repro.testing.generator import GenConfig, generate_deck
from repro.testing.oracles import (
    ORACLES,
    DivergenceError,
    OracleContext,
    run_oracle,
)
from tests.conftest import (
    CURRENT_MIRROR_DECK,
    DIFF_OTA_DECK,
    HIERARCHICAL_DECK,
)
from tests.fuzz.conftest import as_deck

pytestmark = pytest.mark.fuzz

MODEL_FREE = sorted(n for n, o in ORACLES.items() if not o.needs_pipeline)
PIPELINE = sorted(n for n, o in ORACLES.items() if o.needs_pipeline)


class TestRegistry:
    def test_every_dual_path_is_covered(self):
        assert set(ORACLES) == {
            "parse_modes",
            "elaboration",
            "include_roundtrip",
            "indexed_matching",
            "packed_gcn",
            "hier_vs_flat",
            "warm_cache",
            "warm_shapes",
            "metamorphic",
        }

    def test_pipeline_flags(self):
        assert PIPELINE == sorted(
            [
                "packed_gcn",
                "hier_vs_flat",
                "warm_cache",
                "warm_shapes",
                "metamorphic",
            ]
        )

    def test_descriptions_are_set(self):
        for oracle in ORACLES.values():
            assert oracle.description
            assert oracle.name in ORACLES

    def test_unknown_oracle_raises(self):
        with pytest.raises(KeyError):
            run_oracle("nosuch", as_deck(DIFF_OTA_DECK), OracleContext())


class TestDivergenceError:
    def test_carries_oracle_and_detail(self):
        exc = DivergenceError("parse_modes", "they differ")
        assert exc.oracle == "parse_modes"
        assert exc.detail == "they differ"
        assert "[parse_modes] they differ" in str(exc)
        assert isinstance(exc, AssertionError)


class TestModelFreeOracles:
    @pytest.mark.parametrize("name", MODEL_FREE)
    @pytest.mark.parametrize(
        "text",
        [DIFF_OTA_DECK, CURRENT_MIRROR_DECK, HIERARCHICAL_DECK],
        ids=["diff_ota", "current_mirror", "hierarchical"],
    )
    def test_green_on_canonical_decks(self, name, text):
        run_oracle(name, as_deck(text), OracleContext())

    @pytest.mark.parametrize("name", MODEL_FREE)
    def test_green_on_dirty_generated_deck(self, name):
        deck = generate_deck(0, GenConfig(n_dirt=2, max_blocks=2))
        assert deck.mode == "lenient"
        run_oracle(name, deck, OracleContext())

    def test_parse_modes_flags_clean_deck_mislabelled_lenient(self):
        # A clean deck claiming to be dirty: strict accepts it, which
        # the dirty-deck branch of the oracle must report.
        with pytest.raises(DivergenceError, match="strict mode accepted"):
            run_oracle(
                "parse_modes",
                as_deck(DIFF_OTA_DECK, mode="lenient"),
                OracleContext(),
            )

    def test_include_roundtrip_skips_unsplit_decks(self):
        run_oracle("include_roundtrip", as_deck(DIFF_OTA_DECK), OracleContext())


class TestOracleContext:
    def test_rng_is_deterministic_per_deck_and_salt(self):
        deck = as_deck(DIFF_OTA_DECK, seed=11)
        ctx = OracleContext(seed=5)
        a = ctx.rng(deck, "metamorphic").random()
        b = ctx.rng(deck, "metamorphic").random()
        assert a == b
        assert a != ctx.rng(deck, "other-salt").random()
        assert a != OracleContext(seed=6).rng(deck, "metamorphic").random()
