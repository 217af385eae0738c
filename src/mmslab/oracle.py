"""Independent brute-force ground truth for allocation guarantees.

These searches certify the protocols and the impossibility instances at desk
scale: they enumerate every allocation, exactly, or refuse.  With monotone
valuations, discarding an item never helps any agent, so the search assigns
every item to some agent (n^m assignments); the pruning-disabled variant
keeps the discard branch ((n+1)^m) and must agree -- tests hold both
implementations to that.

`exists_alpha_mms` and `best_alpha` share one walk on that n^m space
(`_leaves`): depth first over the items, in the lexicographic order of the
assignment vector, updating the agents' bundle masks in place.  It visits
every leaf, so `visited` counts the whole space a "not_exists" or a best
ratio rests on.  Each agent's bundle is scored on its integer view, memoized
for the one search: against its threshold rounded up to the view's scale,
or as its ratio to mu_i brought to one common denominator, so that ratios
compare as integers.  The `prune=False` variant keeps plain `Fraction`
arithmetic over `itertools.product`, as the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import inf, lcm

from .core import (
    Allocation,
    BudgetExceeded,
    Instance,
    ItemSet,
    demand_vector,
    threshold_vector,
)
from .mms import DEFAULT_MMS_STATES, mms_value
from .valuations import MaskMemo


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the exact searches; exceeding one refuses, never truncates."""

    max_assignments: int = 10_000_000
    mms_states: int = DEFAULT_MMS_STATES


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class ExistsResult:
    """Outcome of an existence search over all allocations.

    status: "exists" (witness attached), "not_exists" (full space visited),
    or "refused" (budget).  `space` is the enumerated assignment space,
    `pruned` the size of the discard branch removed by monotone dominance.
    """

    status: str
    witness: Allocation | None
    visited: int
    space: int
    pruned: int
    mu: tuple[Fraction, ...] | None
    reason: str = ""

    @property
    def exists(self) -> bool:
        return self.status == "exists"


@dataclass(frozen=True)
class BestAlphaResult:
    """Exact maximum over allocations of min_i v_i(A_i) / mu_i^{d_i}.

    `value` is None when every agent has mu = 0 (every allocation satisfies
    every threshold vacuously, so the ratio is unbounded).
    """

    status: str  # "ok" | "refused"
    value: Fraction | None
    witness: Allocation | None
    visited: int
    space: int
    mu: tuple[Fraction, ...] | None
    reason: str = ""


def _mu_vector(inst: Instance, d, budget: SearchBudget):
    ground = inst.ground()
    return tuple(
        mms_value(v, ground, d_i, max_states=budget.mms_states).value
        for v, d_i in zip(inst.agents, d)
    )


def _leaves(masks: list[int], scores: list[MaskMemo], m: int):
    """Walk every assignment of items 0..m-1 to the agents, depth first.

    Leaves come in lexicographic order of the assignment vector (item 0 is
    the most significant digit, agent 0 first), the order of
    `itertools.product`.  `masks[i]`, agent i's bundle, is updated in place,
    two or four agents per step; each leaf yields min_i scores[i][masks[i]].
    """
    n = len(masks)
    last = n - 1
    full = (1 << m) - 1
    masks[:] = [full] + [0] * last
    vals = [score[mask] for score, mask in zip(scores, masks)]
    digits = [0] * m
    while True:
        yield min(vals)
        g = m - 1
        while g >= 0 and digits[g] == last:
            g -= 1
        if g < 0:
            return
        if g < m - 1:
            # items g+1.. wrap around from the last agent to agent 0
            wrap = full ^ ((2 << g) - 1)
            masks[last] ^= wrap
            masks[0] |= wrap
            digits[g + 1 :] = [0] * (m - 1 - g)
            vals[last] = scores[last][masks[last]]
            vals[0] = scores[0][masks[0]]
        a = digits[g]
        bit = 1 << g
        digits[g] = a + 1
        masks[a] ^= bit
        masks[a + 1] |= bit
        vals[a] = scores[a][masks[a]]
        vals[a + 1] = scores[a + 1][masks[a + 1]]


def _assignment_masks(assignment, n: int) -> list[int]:
    masks = [0] * n
    for g, a in enumerate(assignment):
        if a < n:
            masks[a] |= 1 << g
    return masks


def exists_alpha_mms(
    inst: Instance,
    alpha,
    d,
    budget: SearchBudget = DEFAULT_BUDGET,
    prune: bool = True,
) -> ExistsResult:
    """Decide whether some allocation gives every agent i at least alpha_i * mu_i^{d_i}.

    Exact: the witness re-verifies, and "not_exists" is backed by a full
    enumeration.  The empty allocation is tried first (it settles all-zero
    thresholds immediately); assignments are then enumerated in lexicographic
    agent-index order, so the witness is deterministic.  With `prune` the
    discard branch is dropped, which is lossless for monotone valuations.
    """
    alpha = threshold_vector(alpha)
    d = demand_vector(d)
    n, m = inst.n, inst.m
    if len(alpha) != n or len(d) != n:
        raise ValueError("need one threshold and one demand per agent")
    try:
        mu = _mu_vector(inst, d, budget)
    except BudgetExceeded as exc:
        return ExistsResult("refused", None, 0, 0, 0, None, str(exc))
    thresholds = [a * u for a, u in zip(alpha, mu)]

    base = n if prune else n + 1
    space = base**m
    pruned = (n + 1) ** m - space if prune else 0
    if space > budget.max_assignments:
        return ExistsResult(
            "refused", None, 0, space, pruned, mu,
            f"assignment space {base}^{m} exceeds budget {budget.max_assignments}",
        )

    empty = Allocation(tuple(ItemSet.empty(m) for _ in range(n)))
    visited = 1
    if all(t <= 0 for t in thresholds):
        return ExistsResult("exists", empty, visited, space, pruned, mu)

    if prune:
        masks = [0] * n
        meets = []
        for v, t in zip(inst.agents, thresholds):
            view = v.int_view()
            meets.append(MaskMemo(lambda mask, f=view.value, x=view.at_least(t): f(mask) >= x))
        for ok in _leaves(masks, meets, m):
            visited += 1
            if ok:
                bundles = tuple(ItemSet(mask, m) for mask in masks)
                return ExistsResult("exists", Allocation(bundles), visited, space, pruned, mu)
        return ExistsResult("not_exists", None, visited, space, pruned, mu)

    values = [v.value_mask for v in inst.agents]
    for assignment in product(range(base), repeat=m):
        visited += 1
        masks = _assignment_masks(assignment, n)
        if all(values[i](masks[i]) >= thresholds[i] for i in range(n)):
            bundles = tuple(ItemSet(mask, m) for mask in masks)
            return ExistsResult("exists", Allocation(bundles), visited, space, pruned, mu)
    return ExistsResult("not_exists", None, visited, space, pruned, mu)


def best_alpha(
    inst: Instance,
    d,
    budget: SearchBudget = DEFAULT_BUDGET,
    prune: bool = True,
) -> BestAlphaResult:
    """Exact max over allocations of the worst ratio v_i(A_i) / mu_i^{d_i}.

    Agents with mu_i = 0 are always satisfied and drop out of the min.  Ties
    are broken toward the lexicographically smallest assignment.
    """
    d = demand_vector(d)
    n, m = inst.n, inst.m
    if len(d) != n:
        raise ValueError("need one demand per agent")
    try:
        mu = _mu_vector(inst, d, budget)
    except BudgetExceeded as exc:
        return BestAlphaResult("refused", None, None, 0, 0, None, str(exc))

    base = n if prune else n + 1
    space = base**m
    if space > budget.max_assignments:
        return BestAlphaResult(
            "refused", None, None, 0, space, mu,
            f"assignment space {base}^{m} exceeds budget {budget.max_assignments}",
        )

    active = [i for i in range(n) if mu[i] != 0]
    if not active:
        empty = Allocation(tuple(ItemSet.empty(m) for _ in range(n)))
        return BestAlphaResult("ok", None, empty, 1, space, mu)

    if prune:
        return _best_alpha_walk(inst, mu, active, space)

    values = [v.value_mask for v in inst.agents]
    best: Fraction | None = None
    best_assignment = None
    visited = 0
    for assignment in product(range(base), repeat=m):
        visited += 1
        masks = _assignment_masks(assignment, n)
        ratio = min(values[i](masks[i]) / mu[i] for i in active)
        if best is None or ratio > best:
            best = ratio
            best_assignment = masks
    bundles = tuple(ItemSet(mask, m) for mask in best_assignment)
    return BestAlphaResult("ok", best, Allocation(bundles), visited, space, mu)


def _best_alpha_walk(inst: Instance, mu, active: list[int], space: int) -> BestAlphaResult:
    """The `prune` path of `best_alpha`: the same leaves, on integer views.

    Agent i's ratio is view_i(A_i) / (denom_i * mu_i).  Writing
    denom_i * mu_i = p_i / q_i and L = lcm of the p_i, the ratio equals
    view_i(A_i) * q_i * (L / p_i) / L, so every ratio is compared as an
    integer over the one denominator L.
    """
    n, m = inst.n, inst.m
    views = [v.int_view() for v in inst.agents]
    scales = {i: views[i].denom * mu[i] for i in active}
    common = lcm(*(x.numerator for x in scales.values()))
    scores = []
    for i, view in enumerate(views):
        if i in scales:
            c = scales[i].denominator * (common // scales[i].numerator)
            scores.append(MaskMemo(lambda mask, f=view.value, c=c: f(mask) * c))
        else:  # mu_i = 0: agent i never binds
            scores.append(MaskMemo(lambda mask: inf))
    masks = [0] * n
    best = None
    best_masks: tuple[int, ...] = ()
    visited = 0
    for score in _leaves(masks, scores, m):
        visited += 1
        if best is None or score > best:
            best = score
            best_masks = tuple(masks)
    bundles = tuple(ItemSet(mask, m) for mask in best_masks)
    return BestAlphaResult(
        "ok", Fraction(best, common), Allocation(bundles), visited, space, mu
    )
