"""Exact maximin-share computation, the one pruned search, and verification.

`search` is the package's pruned depth-first search of items into bins.  It
skips subtrees by a monotone bound and a count rule, and visits one
assignment per orbit of interchangeable bins (Margot, "Symmetry in integer
linear programming", 2010; Ostrowski et al., "Orbital branching", 2011).
`oracle` runs it with one bin per agent.

`mms_value` maximizes, over all partitions of the ground set into at most d
parts, the minimum part value: `search` on d interchangeable bins, scored on
the oracle's integer view (`ValuationOracle.int_view`: v(S) times a common
denominator).  On one class of bins the orbit rule leaves exactly the
restricted-growth strings, each set partition under its lexicographically
smallest labelling, so the result is the lexicographically first optimal
assignment.  Budgets refuse instead of approximating.  A second, independent
engine (`mms_value_rgs`) enumerates restricted-growth strings on the
`Fraction` values with no pruning; the two must agree, and tests hold them
to that.

Verification works with raw values throughout: an allocation meets a
guarantee (alpha, P) when v_i(A_i) >= alpha_i * min-part-value(v_i, P_i) for
every agent.  Nothing is rescaled to make maximin shares equal 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Allocation,
    BudgetExceeded,
    Instance,
    ItemSet,
    Partition,
    demand_vector,
    threshold_vector,
    validate_allocation,
)
from .valuations import MaskMemo, ValuationOracle

# Default cap on the raw assignment space d^m; covers every partition search
# up to 14 items with 5 parts, and smaller combinations such as 6^6.
DEFAULT_MMS_STATES = 5**14


@dataclass(frozen=True)
class MmsResult:
    value: Fraction
    witness: Partition


def min_value(v: ValuationOracle, p: Partition) -> Fraction:
    """Minimum part value of `v` over the partition `p` (covering v's ground)."""
    if p.ground.m != v.m or p.ground.mask != (1 << v.m) - 1:
        raise ValueError("partition must cover the oracle's full ground set")
    view = v.int_view()
    return Fraction(min(view.value(part.mask) for part in p.parts), view.denom)


def _check_budget(m: int, d: int, max_states: int) -> None:
    if d**m > max_states:
        raise BudgetExceeded(
            f"partition search space {d}^{m} exceeds the budget of {max_states} states"
        )


def search(scores: list[MaskMemo], bits: list[int], floor, stop: bool, prev: list[int]):
    """Depth first over the assignments of the items `bits` to the bins.

    A leaf scores the minimum over bins b of scores[b][bundle b].  Leaves come
    in lexicographic order of the assignment vector (item 0 most significant,
    bin 0 first).  Each leaf that strictly beats the floor (None: any leaf
    does) becomes the new floor; with `stop` the search ends there.  A subtree
    is skipped when some bin scores at most the floor even with every
    unassigned item (scores are monotone), or when more bins do than items
    remain (each needs one more).  Bins b and prev[b] (-1: none) are
    interchangeable, and an empty bin b may take an item only once prev[b] is
    nonempty, so only the lexicographically first assignment of each orbit is
    visited.  A node where u of a class's c bins are open stands for the
    prod c!/(c-u)! members of its orbit; each leaf, and each skipped subtree's
    n^(m-k) leaves, count that many into `visited`.  Returns (best,
    best_masks, visited, nodes entered); best_masks is None when no leaf beat
    the initial floor.
    """
    n, m = len(scores), len(bits)
    rests = [sum(bits[k:]) for k in range(m + 1)]  # items k..m-1
    # opening bin b multiplies the orbit by the number of its class's bins from b on
    grow = [1] * n
    for b in range(n - 1, -1, -1):
        if prev[b] >= 0:
            grow[prev[b]] = grow[b] + 1
    masks = [0] * n
    best, best_masks = floor, None
    visited = nodes = 0

    def enter(k: int, orbit: int) -> bool:
        nonlocal best, best_masks, visited, nodes
        nodes += 1
        if k == m:
            visited += orbit
            score = min([s[x] for s, x in zip(scores, masks)])
            if best is None or score > best:
                best, best_masks = score, tuple(masks)
                return stop
            return False
        if best is not None:
            rest = rests[k]
            if min([s[x | rest] for s, x in zip(scores, masks)]) <= best or (
                m - k < n and sum([s[x] <= best for s, x in zip(scores, masks)]) > m - k
            ):
                visited += orbit * n ** (m - k)
                return False
        bit = bits[k]
        for b in range(n):
            x = masks[b]
            if x or prev[b] < 0 or masks[prev[b]]:
                masks[b] = x | bit
                if enter(k + 1, orbit if x else orbit * grow[b]):
                    return True
                masks[b] = x
        return False

    enter(0, 1)
    del enter  # break the closure's cycle through itself, so the memos are freed now
    return best, best_masks, visited, nodes


def mms_value(
    v: ValuationOracle, ground: ItemSet, d: int, max_states: int = DEFAULT_MMS_STATES
) -> MmsResult:
    """Exact max-min value of `v` over partitions of `ground` into <= d parts.

    Returns the best achievable minimum together with a witness partition into
    exactly d parts (padded with empty parts when fewer suffice).  Ties are
    broken toward the lexicographically smallest assignment of items to parts,
    so the result is deterministic.
    """
    if d < 1:
        raise ValueError("the number of parts must be positive")
    if ground.m != v.m:
        raise ValueError("ground set and oracle cover different item counts")
    items = ground.items()
    m = len(items)
    if d == 1:
        return MmsResult(v.value(ground), Partition((ground,), ground))
    if d > m:
        # every partition has an empty part, so the max-min is 0
        parts = [ItemSet.of(ground.m, [g]) for g in items]
        parts += [ItemSet.empty(ground.m)] * (d - m)
        return MmsResult(Fraction(0), Partition(tuple(parts), ground))
    _check_budget(m, d, max_states)

    view = v.int_view()
    best, masks, _, _ = search(
        [MaskMemo(view.value)] * d, [1 << g for g in items], None, False, list(range(-1, d - 1))
    )
    parts = tuple(ItemSet(mask, ground.m) for mask in masks)
    return MmsResult(Fraction(best, view.denom), Partition(parts, ground))


def mms_value_rgs(v: ValuationOracle, ground: ItemSet, d: int) -> MmsResult:
    """Independent max-min engine: restricted-growth-string enumeration.

    Walks every set partition of the ground items into at most d blocks, each
    exactly once (blocks ordered by first element), with no pruning.  Slower
    than `mms_value` but structurally unrelated, which is the point: the two
    engines cross-check each other.
    """
    if d < 1:
        raise ValueError("the number of parts must be positive")
    items = ground.items()
    m = len(items)
    if m == 0:
        parts = tuple(ItemSet.empty(ground.m) for _ in range(d))
        return MmsResult(Fraction(0), Partition(parts, ground))

    value_of = v.value_mask
    best: Fraction | None = None
    best_masks: tuple[int, ...] | None = None
    masks = [0] * d
    masks[0] = 1 << items[0]

    def walk(i: int, used: int) -> None:
        nonlocal best, best_masks
        if i == m:
            if used < d:
                value = Fraction(0)
            else:
                value = min(value_of(mask) for mask in masks[:used])
            if best is None or value > best:
                best = value
                best_masks = tuple(masks[:used]) + (0,) * (d - used)
            return
        bit = 1 << items[i]
        top = min(used + 1, d)
        for j in range(top):
            masks[j] |= bit
            walk(i + 1, max(used, j + 1))
            masks[j] ^= bit

    walk(1, 1)
    del walk  # break the closure's cycle through itself, so the memo is freed now
    assert best is not None and best_masks is not None
    parts = tuple(ItemSet(mask, ground.m) for mask in best_masks)
    return MmsResult(best, Partition(parts, ground))


@dataclass(frozen=True)
class VerifyResult:
    """Per-agent margins v_i(A_i) - alpha_i * threshold_base_i; ok iff all >= 0."""

    ok: bool
    margins: tuple[Fraction, ...]

    def __bool__(self) -> bool:
        return self.ok

    def first_violation(self) -> int | None:
        for i, margin in enumerate(self.margins):
            if margin < 0:
                return i
        return None


def verify_alpha_mms_P(
    allocation: Allocation, inst: Instance, alpha, partitions
) -> VerifyResult:
    """Check v_i(A_i) >= alpha_i * (min part value of agent i's partition P_i)."""
    alpha = threshold_vector(alpha)
    problem = validate_allocation(allocation, inst)
    if problem is not None:
        raise ValueError(f"malformed allocation: {problem}")
    if len(partitions) != inst.n or len(alpha) != inst.n:
        raise ValueError("need one partition and one threshold per agent")
    margins = []
    for i, (v, a_i, p_i) in enumerate(zip(inst.agents, alpha, partitions)):
        margins.append(v.value(allocation[i]) - a_i * min_value(v, p_i))
    margins = tuple(margins)
    return VerifyResult(all(margin >= 0 for margin in margins), margins)


def verify_alpha_mms_d(
    allocation: Allocation,
    inst: Instance,
    alpha,
    d,
    max_states: int = DEFAULT_MMS_STATES,
) -> VerifyResult:
    """Check v_i(A_i) >= alpha_i * mu_i^{d_i}(M), with each mu computed exactly."""
    alpha = threshold_vector(alpha)
    d = demand_vector(d)
    problem = validate_allocation(allocation, inst)
    if problem is not None:
        raise ValueError(f"malformed allocation: {problem}")
    if len(d) != inst.n or len(alpha) != inst.n:
        raise ValueError("need one demand and one threshold per agent")
    ground = inst.ground()
    margins = []
    for i, (v, a_i, d_i) in enumerate(zip(inst.agents, alpha, d)):
        mu = mms_value(v, ground, d_i, max_states=max_states).value
        margins.append(v.value(allocation[i]) - a_i * mu)
    margins = tuple(margins)
    return VerifyResult(all(margin >= 0 for margin in margins), margins)
