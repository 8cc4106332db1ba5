"""Constraint model, class rules, symmetry-axis propagation."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core.constraints import (
    Constraint,
    ConstraintKind,
    ConstraintSet,
    merge_symmetry_axes,
    propagate,
    subblock_constraints,
)
from repro.exceptions import ConstraintError
from tests.conftest import EXAMPLES_DIR


def _sym(*members, source=""):
    return Constraint(ConstraintKind.SYMMETRY, tuple(members), source=source)


class TestConstraint:
    def test_requires_members(self):
        with pytest.raises(ConstraintError):
            Constraint(ConstraintKind.MATCHING, ())

    def test_rejects_duplicate_members(self):
        with pytest.raises(ConstraintError):
            Constraint(ConstraintKind.MATCHING, ("a", "a"))

    def test_renamed(self):
        c = Constraint(ConstraintKind.MATCHING, ("m1", "m2"))
        renamed = c.renamed({"m1": "x/m1"})
        assert renamed.members == ("x/m1", "m2")

    def test_with_source(self):
        c = _sym("a", "b").with_source("DP-N")
        assert c.source == "DP-N"

    def test_attribute_map(self):
        c = Constraint(
            ConstraintKind.PROXIMITY, ("lna0",),
            attributes=(("reference", "antenna"),),
        )
        assert c.attribute_map == {"reference": "antenna"}

    def test_equality_and_dedup(self):
        s = ConstraintSet()
        s.add(_sym("a", "b"))
        s.add(_sym("a", "b"))
        assert len(s) == 1


class TestSubblockRules:
    def test_ota_gets_symmetry(self):
        constraints = subblock_constraints("ota", "ota0")
        kinds = {c.kind for c in constraints}
        assert ConstraintKind.SYMMETRY in kinds

    def test_lna_gets_proximity_and_guard_ring(self):
        constraints = subblock_constraints("lna", "lna0")
        kinds = {c.kind for c in constraints}
        assert ConstraintKind.PROXIMITY in kinds
        assert ConstraintKind.GUARD_RING in kinds
        assert ConstraintKind.MIN_WIRELENGTH in kinds

    def test_proximity_references_antenna(self):
        constraints = subblock_constraints("lna", "lna0")
        prox = next(
            c for c in constraints if c.kind is ConstraintKind.PROXIMITY
        )
        assert prox.attribute_map["reference"] == "antenna"

    def test_unknown_class_gets_nothing(self):
        assert subblock_constraints("whatever", "x") == []

    def test_members_bind_block_name(self):
        constraints = subblock_constraints("osc", "osc3")
        assert all(c.members == ("osc3",) for c in constraints)


class TestConstraintSet:
    def test_of_kind(self):
        s = ConstraintSet()
        s.add(_sym("a", "b"))
        s.add(Constraint(ConstraintKind.MATCHING, ("a", "b")))
        assert len(s.of_kind(ConstraintKind.SYMMETRY)) == 1

    def test_involving(self):
        s = ConstraintSet()
        s.add(_sym("a", "b"))
        s.add(_sym("c", "d"))
        assert len(s.involving("a")) == 1
        assert len(s.involving("z")) == 0

    def test_iteration(self):
        s = ConstraintSet()
        s.extend([_sym("a", "b"), _sym("c", "d")])
        assert len(list(s)) == 2

    def test_unpickled_set_still_deduplicates(self):
        s = ConstraintSet()
        s.extend([_sym("a", "b"), _sym("c", "d")])
        twin = pickle.loads(pickle.dumps(s))
        assert "_seen" not in twin.__dict__
        assert twin == s
        twin.add(_sym("a", "b"))
        assert len(twin) == 2
        twin.add(_sym("e", "f"))
        assert len(twin) == 3

    def test_pickle_bytes_do_not_follow_the_hash_seed(self):
        """One deck's constraints pickle to the same bytes in processes
        with different string hashing."""
        src = Path(repro.__file__).resolve().parents[1]
        deck = EXAMPLES_DIR / "ota_array.sp"
        digests = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
            done = subprocess.run(
                [sys.executable, "-c", _PICKLE_CONSTRAINTS, str(deck)],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            digests.append(done.stdout.split()[-1])
        assert digests[0] == digests[1]


#: Prints the sha256 of ``pickle.dumps(result.constraints)`` of the
#: deck named by its argument.
_PICKLE_CONSTRAINTS = """
import hashlib, pickle, sys
from repro.core.pipeline import GanaPipeline
result = GanaPipeline.pretrained("ota").run(open(sys.argv[1]).read())
print(hashlib.sha256(pickle.dumps(result.constraints)).hexdigest())
"""


class TestSymmetryMerging:
    def test_disjoint_groups_stay_separate(self):
        s = ConstraintSet()
        s.extend([_sym("a", "b"), _sym("c", "d")])
        merged = merge_symmetry_axes(s)
        assert len(merged) == 2

    def test_overlapping_members_merge(self):
        """Fig. 1's CM + DP sharing devices combine to one axis."""
        s = ConstraintSet()
        s.extend([_sym("m1", "m2"), _sym("m2", "m3")])
        merged = merge_symmetry_axes(s)
        assert len(merged) == 1
        assert set(merged[0].members) == {"m1", "m2", "m3"}

    def test_same_source_merges(self):
        s = ConstraintSet()
        s.extend([_sym("a", "b", source="ota0"), _sym("c", "d", source="ota0")])
        merged = merge_symmetry_axes(s)
        assert len(merged) == 1

    def test_transitive_closure(self):
        s = ConstraintSet()
        s.extend([_sym("a", "b"), _sym("c", "d"), _sym("b", "c")])
        merged = merge_symmetry_axes(s)
        assert len(merged) == 1
        assert set(merged[0].members) == {"a", "b", "c", "d"}

    def test_propagate_keeps_other_kinds(self):
        s = ConstraintSet()
        s.add(Constraint(ConstraintKind.MATCHING, ("a", "b")))
        s.add(_sym("a", "b"))
        result = propagate(s)
        kinds = [c.kind for c in result]
        assert ConstraintKind.MATCHING in kinds
        assert ConstraintKind.SYMMETRY in kinds
