"""Maximum-desired-half machinery: the one cut routine every protocol calls.

A cut C splits each bundle S_j of a partition into S_j & C and S_j - C.  For
a subadditive agent, v(S_j & C) + v(S_j - C) >= v(S_j), so at least one side
of every bundle is worth at least half the bundle.  Collecting, per side, the
sub-bundles worth at least half their parent, the larger collection (the
maximum desired half) therefore always holds at least ceil(r/2) of the r
bundles -- the pigeonhole fact the protocols lean on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .core import ItemSet, Partition, SubadditivityViolation, SubadditivityWitness
from .valuations import ValuationOracle


@dataclass(frozen=True)
class CutResult:
    """The richer side of a cut: sub-bundles each worth >= half their parent.

    `side` is "cut" or "complement"; `satisfied` pairs each surviving
    sub-bundle with the index of its parent bundle.  Sub-bundles live in
    distinct parts on a single side, so they are pairwise disjoint.
    """

    side: str
    satisfied: tuple[tuple[int, ItemSet], ...]
    cut_count: int
    complement_count: int

    def __len__(self) -> int:
        return len(self.satisfied)

    def pieces(self) -> tuple[ItemSet, ...]:
        return tuple(piece for _, piece in self.satisfied)


def desired_pieces(v: ValuationOracle, parts, cut: ItemSet) -> list[tuple[int, ItemSet]]:
    """Sub-bundles part & cut worth at least half their parent part.

    `parts` is any sequence of pairwise disjoint item sets (it need not cover
    the ground set -- the per-part halving argument is local to each part).
    """
    out = []
    for j, part in enumerate(parts):
        piece = part & cut
        if 2 * v.value(piece) >= v.value(part):
            out.append((j, piece))
    return out


def desired_half(v: ValuationOracle, p: Partition, cut: ItemSet) -> list[tuple[int, ItemSet]]:
    """Cut-side desired sub-bundles of a covering partition (see desired_pieces)."""
    if p.ground.mask != (1 << p.ground.m) - 1:
        raise ValueError("partition must cover the full ground set")
    return desired_pieces(v, p.parts, cut)


def max_desired_half(v: ValuationOracle, parts, cut: ItemSet, context: str = "") -> CutResult:
    """The larger of the two desired-half collections; ties go to the cut side.

    `parts` is a `Partition` or any sequence of pairwise disjoint item sets;
    one pass values each part and both of its sides.  A part with neither side
    worth half of it breaks subadditivity, and raises `SubadditivityViolation`
    with that part's two sides as the witness (`context` names the step).  So
    the result always carries at least ceil(r/2) of the r parts.  With one
    part, the result is the side of it worth half, the inside when both are.
    """
    on_cut: list[tuple[int, ItemSet]] = []
    on_complement: list[tuple[int, ItemSet]] = []
    for j, part in enumerate(parts):
        inside = part & cut
        outside = part - cut
        target = v.value(part)
        vi, vo = v.value(inside), v.value(outside)
        if 2 * vi >= target:
            on_cut.append((j, inside))
        if 2 * vo >= target:
            on_complement.append((j, outside))
        elif 2 * vi < target:
            raise SubadditivityViolation(
                SubadditivityWitness(inside, outside, vi, vo, target), context
            )
    if len(on_cut) >= len(on_complement):
        return CutResult("cut", tuple(on_cut), len(on_cut), len(on_complement))
    return CutResult("complement", tuple(on_complement), len(on_cut), len(on_complement))


def minimum_guaranteed(r: int) -> int:
    """ceil(r/2): how many sub-bundles a maximum desired half must contain."""
    return ceil(r / 2)
