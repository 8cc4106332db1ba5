"""Layout constraints attached to recognized structures (Sec. III-C, IV-B).

Recognition "organically detects layout constraints": each primitive
template carries default constraints (a differential pair is symmetric
and matched; a current mirror is matched/common-centroid), and each
recognized sub-block class implies block-level constraints (an OTA is
symmetric about the differential-pair axis; RF blocks need guard rings
and short wires; an LNA must sit near the antenna).

Constraints are plain data: a kind, the device/block names it binds,
and free-form attributes.  :func:`propagate` implements the paper's
upward propagation — e.g. merging the symmetry axes of a DP and its
current-mirror load into one OTA-level axis (Sec. IV-B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.exceptions import ConstraintError


class ConstraintKind(enum.Enum):
    """The constraint vocabulary used across the package."""

    SYMMETRY = "symmetry"  # mirror placement about an axis
    MATCHING = "matching"  # identical device geometry/orientation
    COMMON_CENTROID = "common_centroid"  # interdigitated array placement
    PROXIMITY = "proximity"  # place close to a reference (e.g. antenna)
    GUARD_RING = "guard_ring"  # isolation ring around RF devices
    MIN_WIRELENGTH = "min_wirelength"  # parasitic-sensitive wiring
    SHIELDING = "shielding"  # sensitive-net shielding


@dataclass(frozen=True)
class Constraint:
    """A single layout constraint.

    ``members`` are device or block names, order-insensitive; for
    SYMMETRY the members pair off about the axis (odd counts put the
    last member on the axis itself).  ``attributes`` carries extras
    such as ``{"reference": "antenna"}`` for PROXIMITY.
    """

    kind: ConstraintKind
    members: tuple[str, ...]
    attributes: tuple[tuple[str, str], ...] = ()
    source: str = ""  # which primitive/sub-block produced it

    def __post_init__(self) -> None:
        if not self.members:
            raise ConstraintError(f"{self.kind.value} constraint with no members")
        if len(set(self.members)) != len(self.members):
            raise ConstraintError(
                f"{self.kind.value} constraint repeats members: {self.members}"
            )

    @property
    def attribute_map(self) -> dict[str, str]:
        return dict(self.attributes)

    def renamed(self, name_map: dict[str, str]) -> "Constraint":
        """Remap member names (template → matched device names)."""
        return Constraint(
            kind=self.kind,
            members=tuple(name_map.get(m, m) for m in self.members),
            attributes=self.attributes,
            source=self.source,
        )

    def with_source(self, source: str) -> "Constraint":
        return Constraint(
            kind=self.kind,
            members=self.members,
            attributes=self.attributes,
            source=source,
        )


#: Block-level constraints implied by each recognized sub-block class
#: (Sec. III-C).  Member placeholder "@block" is replaced by the block
#: instance name on annotation.
SUBBLOCK_CONSTRAINT_RULES: dict[str, tuple[tuple[ConstraintKind, dict[str, str]], ...]] = {
    "ota": (
        (ConstraintKind.SYMMETRY, {"axis": "differential_pair"}),
    ),
    "lna": (
        (ConstraintKind.PROXIMITY, {"reference": "antenna"}),
        (ConstraintKind.GUARD_RING, {}),
        (ConstraintKind.MIN_WIRELENGTH, {}),
    ),
    "mixer": (
        (ConstraintKind.GUARD_RING, {}),
        (ConstraintKind.MIN_WIRELENGTH, {}),
    ),
    "osc": (
        (ConstraintKind.SYMMETRY, {"axis": "cross_coupled_pair"}),
        (ConstraintKind.MIN_WIRELENGTH, {}),
    ),
    "bpf": (
        (ConstraintKind.SYMMETRY, {"axis": "cross_coupled_pair"}),
    ),
    "bias": (
        (ConstraintKind.MATCHING, {}),
    ),
}


def subblock_constraints(block_class: str, block_name: str) -> list[Constraint]:
    """Constraints implied by a recognized sub-block's class."""
    rules = SUBBLOCK_CONSTRAINT_RULES.get(block_class, ())
    return [
        Constraint(
            kind=kind,
            members=(block_name,),
            attributes=tuple(sorted(attrs.items())),
            source=f"class:{block_class}",
        )
        for kind, attrs in rules
    ]


@dataclass
class ConstraintSet:
    """Constraints collected over a hierarchy, with propagation.

    Insertion order is preserved; membership is tracked in a parallel
    set (``Constraint`` is frozen/hashable) so deduplication stays O(1)
    per add instead of rescanning the list — hierarchy assembly adds
    hundreds of constraints on large designs.
    """

    constraints: list[Constraint] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._seen = set(self.constraints)

    def __getstate__(self) -> dict:
        """Pickle the list alone: the membership set iterates in string
        hash order, so pickling it would give one result different
        bytes under different ``PYTHONHASHSEED``s."""
        state = self.__dict__.copy()
        state.pop("_seen", None)
        return state

    def _members(self) -> set[Constraint]:
        # Unpickled sets restore __dict__ without _seen; rebuild lazily.
        seen = self.__dict__.get("_seen")
        if seen is None:
            seen = self.__dict__["_seen"] = set(self.constraints)
        return seen

    def add(self, constraint: Constraint) -> None:
        seen = self._members()
        if constraint not in seen:
            seen.add(constraint)
            self.constraints.append(constraint)

    def extend(self, constraints: list[Constraint]) -> None:
        for constraint in constraints:
            self.add(constraint)

    def of_kind(self, kind: ConstraintKind) -> list[Constraint]:
        return [c for c in self.constraints if c.kind is kind]

    def involving(self, member: str) -> list[Constraint]:
        return [c for c in self.constraints if member in c.members]

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)


def merge_symmetry_axes(constraints: ConstraintSet) -> list[Constraint]:
    """Combine symmetry constraints that share members into common axes.

    "When propagated to the next level, these two may be combined to
    ensure a common symmetry axis for both structures" (Sec. IV-B):
    symmetry groups whose member sets intersect (or that were produced
    inside the same source block) merge into one constraint whose
    members are the union.
    """
    groups: list[tuple[set[str], set[str]]] = []  # (members, sources)
    for constraint in constraints.of_kind(ConstraintKind.SYMMETRY):
        members = set(constraint.members)
        sources = {constraint.source} if constraint.source else set()
        merged = False
        for group_members, group_sources in groups:
            if group_members & members or (sources and sources & group_sources):
                group_members |= members
                group_sources |= sources
                merged = True
                break
        if not merged:
            groups.append((members, sources))

    # Transitive closure: merging may create new intersections.
    changed = True
    while changed:
        changed = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                mi, si = groups[i]
                mj, sj = groups[j]
                if mi & mj or (si and si & sj):
                    groups[i] = (mi | mj, si | sj)
                    del groups[j]
                    changed = True
                    break
            if changed:
                break

    return [
        Constraint(
            kind=ConstraintKind.SYMMETRY,
            members=tuple(sorted(members)),
            source="+".join(sorted(sources)) if sources else "merged",
        )
        for members, sources in groups
    ]


def propagate(constraints: ConstraintSet) -> ConstraintSet:
    """One propagation pass: merge symmetry axes, keep everything else."""
    result = ConstraintSet()
    for constraint in constraints:
        if constraint.kind is not ConstraintKind.SYMMETRY:
            result.add(constraint)
    result.extend(merge_symmetry_axes(constraints))
    return result
