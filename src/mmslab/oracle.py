"""Independent brute-force ground truth for allocation guarantees.

These searches certify the protocols and the impossibility instances at desk
scale: they enumerate every allocation, exactly, or refuse.  With monotone
valuations, discarding an item never helps any agent, so the search assigns
every item to some agent (n^m assignments); the pruning-disabled variant
keeps the discard branch ((n+1)^m) and must agree -- tests hold both
implementations to that.

With `prune`, `exists_alpha_mms` and `best_alpha` run `mms.search` with one
bin per agent.  Each bundle is scored on the agent's integer view, memoized
for the one search: 1 or 0 as it meets the threshold rounded up to the
view's scale, or its ratio to mu_i brought to one common denominator, so
that ratios compare as integers.  Agents are interchangeable, and share one
memo, when their oracles compare equal and they have the same threshold
(existence) or the same mu (best ratio).  Status, value and witness are
those of the plain lexicographic enumeration.  `visited` counts leaves as
that enumeration does: every leaf of a "not_exists" or best-ratio search,
each orbit and skipped subtree in full; for an "exists" witness, its rank
in the lexicographic order, plus 1 for the empty allocation tried first.
`nodes` counts the nodes the search entered.  Each oracle's mu is computed
once and remembered on the oracle.  The `prune=False` variant keeps plain
`Fraction` arithmetic over `itertools.product`, as the independent
reference.
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
from .mms import DEFAULT_MMS_STATES, _check_budget, mms_value, search
from .valuations import MaskMemo


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the exact searches; exceeding one refuses, never truncates."""

    max_assignments: int = 10_000_000
    mms_states: int = DEFAULT_MMS_STATES


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True, slots=True)
class ExistsResult:
    """Outcome of an existence search over all allocations.

    status: "exists" (witness attached), "not_exists" (full space visited),
    or "refused" (budget).  `space` is the enumerated assignment space,
    `pruned` the size of the discard branch removed by monotone dominance.
    `visited` counts the assignments accounted for, as the plain enumeration
    would (see the module docstring); `nodes` the nodes `mms.search` entered
    (0 when it did not run).
    """

    status: str
    witness: Allocation | None
    visited: int
    space: int
    pruned: int
    mu: tuple[Fraction, ...] | None
    reason: str = ""
    nodes: int = 0

    @property
    def exists(self) -> bool:
        return self.status == "exists"


@dataclass(frozen=True, slots=True)
class BestAlphaResult:
    """Exact maximum over allocations of min_i v_i(A_i) / mu_i^{d_i}.

    `value` is None when every agent has mu = 0 (every allocation satisfies
    every threshold vacuously, so the ratio is unbounded).  `visited` and
    `nodes` count as in `ExistsResult`.
    """

    status: str  # "ok" | "refused"
    value: Fraction | None
    witness: Allocation | None
    visited: int
    space: int
    mu: tuple[Fraction, ...] | None
    reason: str = ""
    nodes: int = 0


def _mu(v, d: int, budget: SearchBudget) -> Fraction:
    """mu_v^d of v's full ground set, computed once per oracle.

    A remembered value is handed out only after the same d^m budget check
    that `mms_value` makes, so a smaller budget still refuses.
    """
    if 1 < d <= v.m:
        _check_budget(v.m, d, budget.mms_states)
    value = v._mu_memo.get(d)
    if value is None:
        value = v._mu_memo[d] = mms_value(
            v, ItemSet.full(v.m), d, max_states=budget.mms_states
        ).value
    return value


def _mu_vector(inst: Instance, d, budget: SearchBudget):
    return tuple(_mu(v, d_i, budget) for v, d_i in zip(inst.agents, d))


def _orbits(agents, keys) -> list[int]:
    """prev[i]: the last agent before i that is interchangeable with i, or -1.

    Agents are interchangeable when their oracles compare equal and their
    keys (thresholds, or mu) are equal: swapping their bundles changes no
    score, so `search` may keep one assignment of each orbit.
    """
    return [
        next((j for j in range(i - 1, -1, -1) if keys[j] == key and agents[j] == v), -1)
        for i, (v, key) in enumerate(zip(agents, keys))
    ]


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
        prev = _orbits(inst.agents, thresholds)
        meets = []
        for v, t, p in zip(inst.agents, thresholds, prev):
            view = v.int_view()
            meets.append(meets[p] if p >= 0 else MaskMemo(
                lambda mask, f=view.value, x=view.at_least(t): f(mask) >= x))
        _, masks, leaves, nodes = search(meets, [1 << g for g in range(m)], 0, True, prev)
        if masks is None:
            visited += leaves
            return ExistsResult("not_exists", None, visited, space, pruned, mu, nodes=nodes)
        # the witness's rank among all n^m leaves, counted from 1
        visited += 1 + sum(a * n ** (m - 1 - g) for a, x in enumerate(masks)
                           for g in range(m) if x >> g & 1)
        bundles = tuple(ItemSet(mask, m) for mask in masks)
        return ExistsResult("exists", Allocation(bundles), visited, space, pruned, mu, nodes=nodes)

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
        # agent i's ratio is view_i(A_i) / (denom_i * mu_i).  Writing denom_i * mu_i
        # = p_i / q_i and L = lcm of the p_i, it equals view_i(A_i) * q_i * (L / p_i)
        # / L, so every ratio is compared as an integer over the one denominator L
        views = [v.int_view() for v in inst.agents]
        scales = [view.denom * u for view, u in zip(views, mu)]
        common = lcm(*(x.numerator for x in scales if x))
        prev = _orbits(inst.agents, mu)
        scores = []
        for view, x, p in zip(views, scales, prev):
            if p >= 0:
                scores.append(scores[p])
            elif x:
                c = x.denominator * (common // x.numerator)
                scores.append(MaskMemo(lambda mask, f=view.value, c=c: f(mask) * c))
            else:  # mu_i = 0: agent i never binds
                scores.append(MaskMemo(lambda mask: inf))
        best, masks, visited, nodes = search(scores, [1 << g for g in range(m)], None, False, prev)
        bundles = tuple(ItemSet(mask, m) for mask in masks)
        return BestAlphaResult(
            "ok", Fraction(best, common), Allocation(bundles), visited, space, mu, nodes=nodes
        )

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
