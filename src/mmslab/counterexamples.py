"""Constructors for every impossibility instance, plus structured checkers.

Each instance here caps the achievable guarantee for some demand vector, and
each cap is certified by machine search: raw brute force where the item count
allows it, and a structured (but still exhaustive, and machine-audited)
reduction for the 27-item grid where it does not.

`CATALOGUE` is the one table of builtin families and the claims they certify:
the CLI, the dispatcher and `counterexample_suite` all read it.

Exact rationals only.  Where a construction needs a strict gap around 1/2 we
use eps = 1/12: subadditivity inside a reference bundle needs
2 * (1/2 - eps) >= 1/2 + eps, i.e. eps <= 1/6, and 1/12 leaves slack.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import NamedTuple

from .core import MAX_ITEMS, Allocation, Instance, ItemSet, Partition, demand_vector, uniform
from .valuations import (
    AdditiveValuation,
    BundleMaxValuation,
    IntView,
    TableValuation,
    ValuationOracle,
)

GRID_EPS = Fraction(1, 12)
PROBE_EPS = Fraction(1, 100)
# shared values (Fractions are immutable), so that dense tables hold
# references rather than one new object per entry
_ZERO, _THIRD, _HALF, _TWO_THIRDS, _ONE = (
    Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)
)


def _nonempty(mask: int) -> int:
    return 1 if mask else 0


class OnesValuation(ValuationOracle):
    """v(S) = 1 for every nonempty S; the bluntest subadditive function."""

    def __init__(self, m: int):
        super().__init__(m, declared_class="subadditive")

    def _int_view(self) -> IntView:
        return IntView(1, _nonempty)

    def _key(self):
        return self.m


class HalfCapValuation(ValuationOracle):
    """Worth 1 on sets containing a full reference block, else 1/2 (0 on empty)."""

    def __init__(self, m: int, blocks):
        self.blocks = tuple(int(b) for b in blocks)
        for block in self.blocks:
            if not 0 < block < 1 << m:
                raise ValueError(f"half-cap block {block} is not a nonempty subset of {m} items")
        super().__init__(m, declared_class="subadditive")

    def _int_view(self) -> IntView:
        blocks = self.blocks

        def halves(mask: int) -> int:
            if mask == 0:
                return 0
            for block in blocks:
                if mask & block == block:
                    return 2
            return 1

        return IntView(2, halves)

    def _key(self):
        return (self.m, self.blocks)


class MaxBlockThirdsValuation(ValuationOracle):
    """v(S) = max_k |S & B_k| / 3 over fixed disjoint 3-item blocks."""

    def __init__(self, m: int, blocks):
        self.blocks = tuple(int(b) for b in blocks)
        if not self.blocks:
            raise ValueError("at least one block required")
        union = 0
        for block in self.blocks:
            if block < 0 or block >> m or block.bit_count() != 3:
                raise ValueError(f"block {block} is not a set of 3 items among 0..{m - 1}")
            if union & block:
                raise ValueError(f"block {block} overlaps an earlier block")
            union |= block
        super().__init__(m, declared_class="subadditive")

    def _int_view(self) -> IntView:
        blocks = self.blocks
        return IntView(3, lambda mask: max([(mask & block).bit_count() for block in blocks]))

    def _key(self):
        return (self.m, self.blocks)


def half_cap_blocks(d) -> list[list[int]]:
    """Block masks B_{i,j} (one list per agent) of the product instance."""
    d = tuple(int(x) for x in d)
    coords = list(product(*(range(di) for di in d)))
    blocks = []
    for i, d_i in enumerate(d):
        blocks.append(
            [
                sum(1 << g for g, r in enumerate(coords) if r[i] == j)
                for j in range(d_i)
            ]
        )
    return blocks


def instance_half_cap(d) -> Instance:
    """Product instance over prod(d_i) items capping every guarantee at 1/2.

    Item g(r_1..r_n) carries one coordinate per agent; agent i values a set
    at 1 iff it contains a full coordinate block B_{i,j} = {g : r_i = j},
    else 1/2.  The blocks of agent i partition the items, so mu_i^{d_i} = 1,
    while any two agents' blocks intersect, so at most one agent can ever
    reach value above 1/2.
    """
    d = demand_vector(d)
    size = prod(d)
    if size > MAX_ITEMS:
        raise ValueError(f"product instance with {size} items exceeds {MAX_ITEMS} items")
    blocks = half_cap_blocks(d)
    agents = tuple(HalfCapValuation(size, agent_blocks) for agent_blocks in blocks)
    return Instance(size, agents, label="half_cap(" + ",".join(map(str, d)) + ")")


def instance_n_minus_1(n: int) -> Instance:
    """n agents, n-1 items, every nonempty set worth 1 to everyone.

    Each agent can split the items into any d < n parts all worth 1, yet some
    agent always ends up empty-handed, so no positive guarantee is achievable
    when all d_i < n.
    """
    if not 2 <= n <= MAX_ITEMS + 1:
        raise ValueError(f"need 2..{MAX_ITEMS + 1} agents, got {n}")
    m = n - 1
    return Instance(m, tuple(OnesValuation(m) for _ in range(n)), label=f"n_minus_1({n})")


def instance_421() -> Instance:
    """Four items {h, g1, g2, g3}; no uniform-1/2 guarantee at demands (4,2,1).

    Agent 0 values every nonempty set at 1; agent 1 values sets containing h
    at 1 and others at |S|/3; agent 2 is additive with h -> 1/3 and g -> 2/9.
    All three maximin shares at demands (4, 2, 1) equal 1.
    """
    m = 4
    h = 1 << 0
    table = []
    for mask in range(1 << m):
        if mask == 0:
            table.append(Fraction(0))
        elif mask & h:
            table.append(Fraction(1))
        else:
            table.append(Fraction(mask.bit_count(), 3))
    v1 = OnesValuation(m)
    v2 = TableValuation(m, table, declared_class="subadditive")
    v3 = AdditiveValuation([Fraction(1, 3), Fraction(2, 9), Fraction(2, 9), Fraction(2, 9)])
    return Instance(m, (v1, v2, v3), label="421")


def instance_floor_n3(n: int) -> Instance:
    """n items; agent n counts thirds of her best triplet block, others see 1.

    Agent n-1 (0-based) has blocks B_k = {g_{3k}, g_{3k+1}, g_{3k+2}} for
    k < floor(n/3) and v(S) = max_k |S & B_k| / 3; she owns floor(n/3)
    disjoint bundles worth 1.  Any allocation giving her at least 1/2 hands
    her two items, leaving n-2 items for n-1 agents who each need one.
    """
    if not 3 <= n <= MAX_ITEMS:
        raise ValueError(f"need 3..{MAX_ITEMS} agents, got {n}")
    blocks = [
        sum(1 << (3 * k + t) for t in range(3)) for k in range(n // 3)
    ]
    agents = tuple(OnesValuation(n) for _ in range(n - 1)) + (
        MaxBlockThirdsValuation(n, blocks),
    )
    return Instance(n, agents, label=f"floor_n3({n})")


# --- the 27-item grid instance --------------------------------------------

GRID_M = 27


def _grid_index(i: int, j: int, k: int) -> int:
    return 9 * i + 3 * j + k


def grid_slice(axis: int, idx: int) -> ItemSet:
    """The 9 items whose coordinate along `axis` equals `idx`."""
    items = [
        _grid_index(i, j, k)
        for i, j, k in product(range(3), repeat=3)
        if (i, j, k)[axis] == idx
    ]
    return ItemSet.of(GRID_M, items)


def grid_bstar_family(axis: int, idx: int) -> list[ItemSet]:
    """The distinguished 4-item subsets of a slice: one cross cell plus a full
    line of the following index, in both of the other two axes' roles."""
    own = grid_slice(axis, idx)
    others = [a for a in range(3) if a != axis]
    family = []
    for x_axis, y_axis in (others, others[::-1]):
        for j in range(3):
            for k in range(3):
                cell = grid_slice(x_axis, j) & grid_slice(y_axis, k)
                line = grid_slice(y_axis, (k + 1) % 3)
                family.append(own & (cell | line))
    # 18 distinct sets per slice; dedupe defensively, keeping a stable order
    seen: list[ItemSet] = []
    for b in family:
        if b not in seen:
            seen.append(b)
    return seen


def _grid_inner_table(axis: int, idx: int, eps: Fraction) -> tuple[Fraction, ...]:
    """Dense local table of one slice's inner function (512 entries)."""
    own = grid_slice(axis, idx)
    positions = own.items()
    low, high = _HALF - eps, _HALF + eps
    bstar_local = {sum(1 << positions.index(g) for g in b) for b in grid_bstar_family(axis, idx)}
    table: list[Fraction] = [_ZERO] * 512
    full = 511
    for mask in range(1, 512):
        size = mask.bit_count()
        if size <= 3:
            table[mask] = low
        elif size == 4:
            table[mask] = high if mask in bstar_local else low
        elif size >= 6:
            table[mask] = high if size < 9 else _ONE
    for mask in range(512):
        if mask.bit_count() == 5:
            comp = full ^ mask
            # 1 - v(complement), where 1 - high == low and 1 - low == high
            table[mask] = low if comp in bstar_local else high
    return tuple(table)


def instance_27(eps: Fraction = GRID_EPS) -> Instance:
    """27 items on a 3x3x3 grid; three agents valuing coordinate slices.

    Each agent's valuation is the max over her three slices of an inner
    function with values 1/2 +- eps on proper subsets (cardinality rules plus
    the distinguished 4-sets) and 1 on the full slice.  Accepts 0 <= eps <=
    1/6: above 1/6 the inner functions stop being subadditive, and at exactly
    0 the strict gap vanishes and blocked allocations reappear.
    """
    if not (0 <= eps <= Fraction(1, 6)):
        raise ValueError("eps must lie in [0, 1/6] to keep the inner functions subadditive")
    # in each slice's own (sorted) item order the distinguished 4-sets, and so
    # the inner table, are the same for all nine slices: one table serves all
    table = _grid_inner_table(0, 0, eps)
    agents = []
    for axis in range(3):
        slices = [grid_slice(axis, idx) for idx in range(3)]
        agents.append(
            BundleMaxValuation(GRID_M, slices, [table] * 3, declared_class="subadditive")
        )
    return Instance(GRID_M, tuple(agents), label=f"grid27(eps={eps})")


def grid_claim_holds() -> bool:
    """For every distinguished 4-set B of a slice, the slice minus B contains
    no other distinguished 4-set.  Checked exhaustively over all pairs; this
    is what makes the 4->5 cardinality step of the inner tables monotone."""
    for axis in range(3):
        for idx in range(3):
            own = grid_slice(axis, idx)
            family = grid_bstar_family(axis, idx)
            for b in family:
                rest = own - b
                for other in family:
                    if other.mask != b.mask and other.issubset(rest):
                        return False
    return True


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of the structured search with one agent holding a full slice."""

    full_agent: int
    exists: bool
    witness: Allocation | None
    branches: int


@dataclass(frozen=True)
class StructuredCheck27:
    eps: Fraction
    placements: tuple[PlacementResult, ...]
    claim_ok: bool
    value_one_ok: bool

    @property
    def nonexistence(self) -> bool:
        return self.claim_ok and self.value_one_ok and not any(
            p.exists for p in self.placements
        )


def _value_one_characterization(inst: Instance) -> bool:
    """Audit of the reduction's premise: an inner function hits 1 only on its
    full slice, so overall value 1 requires containing a whole slice."""
    for v in inst.agents:
        for table in v.inner_tables:
            if table[-1] != 1:
                return False
            if any(table[mask] >= 1 for mask in range(len(table) - 1)):
                return False
    return True


def structured_check_27(eps: Fraction = GRID_EPS) -> StructuredCheck27:
    """Exhaustive existence check on the grid instance for thresholds
    (1, 1/2, 1/2) in all three placements of the full-threshold agent.

    The search space collapses by construction, and each collapse step is
    audited rather than trusted: value 1 forces a whole slice (checked by
    `_value_one_characterization`), the max-over-slices shape lets the second
    agent keep only her best slice's portion, and handing the third agent
    everything left is optimal by monotonicity.  That leaves 3 slices x 3
    slices x 2^6 subsets = 576 branches per placement.
    """
    inst = instance_27(eps)
    claim_ok = grid_claim_holds()
    value_one_ok = _value_one_characterization(inst)
    if not (claim_ok and value_one_ok):
        raise AssertionError("grid construction failed its structural audits")
    half = Fraction(1, 2)
    full_mask = (1 << GRID_M) - 1
    placements = []
    for full_agent in range(3):
        enum_agent = (full_agent + 1) % 3
        rest_agent = (full_agent + 2) % 3
        v_enum = inst.agents[enum_agent]
        v_rest = inst.agents[rest_agent]
        branches = 0
        found: Allocation | None = None
        for a_idx in range(3):
            a_mask = grid_slice(full_agent, a_idx).mask
            for e_idx in range(3):
                base = grid_slice(enum_agent, e_idx).mask & ~a_mask
                positions = tuple(ItemSet(base, GRID_M))
                for sub in range(1 << len(positions)):
                    branches += 1
                    e_mask = sum(
                        1 << positions[t] for t in range(len(positions)) if (sub >> t) & 1
                    )
                    if v_enum.value_mask(e_mask) < half:
                        continue
                    r_mask = full_mask & ~a_mask & ~e_mask
                    if v_rest.value_mask(r_mask) < half:
                        continue
                    if found is None:
                        bundles = [None, None, None]
                        bundles[full_agent] = ItemSet(a_mask, GRID_M)
                        bundles[enum_agent] = ItemSet(e_mask, GRID_M)
                        bundles[rest_agent] = ItemSet(r_mask, GRID_M)
                        found = Allocation(tuple(bundles))
        placements.append(PlacementResult(full_agent, found is not None, found, branches))
    return StructuredCheck27(eps, tuple(placements), claim_ok, value_one_ok)


# --- the submodular 6-item instance ----------------------------------------


def _submodular6_pair_value(agent: int, mask: int) -> Fraction:
    """Pair rule: 1 on the agent's matched small+large pairs and on two larges."""
    small = [g for g in ItemSet(mask, 6) if g % 2 == 0]
    large = [g for g in ItemSet(mask, 6) if g % 2 == 1]
    if len(large) == 2:
        return _ONE
    if len(small) == 1 and len(large) == 1:
        i = large[0] // 2
        matched_small = (2 * i) if agent < 2 else 2 * ((i + 1) % 3)
        if small[0] == matched_small:
            return _ONE
    return _TWO_THIRDS


def submodular6_table(agent: int) -> list[Fraction]:
    """Dense table over the 6 items g1,G1,g2,G2,g3,G3 (small even, large odd)."""
    all_small = 0b010101
    table: list[Fraction] = []
    for mask in range(64):
        size = mask.bit_count()
        if size == 0:
            table.append(_ZERO)
        elif size == 1:
            g = mask.bit_length() - 1
            table.append(_THIRD if g % 2 == 0 else _TWO_THIRDS)
        elif size == 2:
            table.append(_submodular6_pair_value(agent, mask))
        elif size == 3:
            if mask == all_small:
                table.append(_ONE)
            else:
                table.append(
                    max(
                        _submodular6_pair_value(agent, mask & ~(1 << g))
                        for g in ItemSet(mask, 6)
                    )
                )
        else:
            table.append(_ONE)
    return table


def instance_submodular_6() -> Instance:
    """Three submodular agents, six items, no guarantee above 2/3.

    Small items are worth 1/3 and large ones 2/3 to everyone; each agent has
    three matched small+large pairs worth 1 (agents 0 and 1 share the
    matching, agent 2 shifts it), two larges are worth 1, the three smalls
    together are worth 1, and everything of size four or more is worth 1.
    Every maximin share at demands (3,3,3) is 1 via the matched pairs, but at
    most two agents can receive one of their pairs.
    """
    v12 = TableValuation(6, submodular6_table(0), declared_class="submodular")
    v3 = TableValuation(6, submodular6_table(2), declared_class="submodular")
    return Instance(6, (v12, v12, v3), label="submodular_6")


# --- the catalogue ---------------------------------------------------------


class Claim(NamedTuple):
    """A certified negative result on the family's instance `build(*args)`: no
    allocation meets thresholds `alpha` at demands `d` (kind "not_exists"), or
    the best ratio every agent can get at `d` is the value in `alpha` (kind "cap")."""

    args: tuple
    d: tuple[int, ...]
    alpha: tuple[Fraction, ...]
    kind: str


class Family(NamedTuple):
    """A builtin family: `name:a,b` builds `build(a, b)`, each argument parsed as
    `param`, their count admitted by the argparse-style `nargs` (0, 1, "?", "+")."""

    build: Callable[..., Instance]
    nargs: int | str
    param: type | None
    claims: tuple[Claim, ...]


# every builtin family by name, in the order the suite re-derives its claims
# and `protocols.dispatch` tries the three-agent not_exists ones
CATALOGUE: dict[str, Family] = {
    "half_cap": Family(lambda *d: instance_half_cap(d), "+", int,
                       (Claim((2, 2, 2), (2, 2, 2), uniform(_HALF, 3), "cap"),)),
    "n_minus_1": Family(instance_n_minus_1, 1, int,
                        (Claim((3,), (2, 2, 2), uniform(_ZERO, 3), "cap"),)),
    "421": Family(instance_421, 0, None,
                  (Claim((), (4, 2, 1), uniform(_HALF, 3), "not_exists"),)),
    "floor_n3": Family(instance_floor_n3, 1, int, tuple(
        Claim((n,), (n,) * (n - 1) + (n // 3,), (PROBE_EPS,) * (n - 1) + (_HALF,), "not_exists")
        for n in (3, 6))),
    "grid27": Family(instance_27, "?", Fraction,
                     (Claim((), (3, 3, 3), (_ONE, _HALF, _HALF), "not_exists"),)),
    "submodular_6": Family(instance_submodular_6, 0, None,
                           (Claim((), (3, 3, 3), uniform(_TWO_THIRDS, 3), "cap"),)),
}


def counterexample_suite() -> list[tuple[str, bool, str]]:
    """One row (name, passed, detail) per claim of `CATALOGUE`, plus one for the
    1/3-rounding of 421.  Each claim is re-derived on the spot with its family's
    audits -- class membership, maximin shares -- so a passing table certifies
    the whole catalogue."""
    from .mms import mms_value, min_value
    from .oracle import best_alpha, exists_alpha_mms
    from .valuations import is_monotone, is_subadditive, is_submodular, third_transform

    def claims(name):
        """(row name, instance, claim) for each claim of the family `name`."""
        family = CATALOGUE[name]
        for claim in family.claims:
            row = f"{name}({','.join(map(str, claim.args))})" if claim.args else name
            yield row, family.build(*claim.args), claim

    def capped(r, claim) -> bool:
        return claim.kind == "cap" and (r.value,) * len(claim.d) == claim.alpha

    rows: list[tuple[str, bool, str]] = []

    for row, hc, claim in claims("half_cap"):
        classes_ok = all(
            is_monotone(v).ok and is_subadditive(v).ok for v in hc.agents
        )
        blocks = half_cap_blocks(claim.args)
        mu_ok = all(
            min_value(v, Partition(tuple(ItemSet(b, hc.m) for b in bs), hc.ground()))
            == 1
            for v, bs in zip(hc.agents, blocks)
        )
        cross_ok = all(
            ItemSet(b1, hc.m) & ItemSet(b2, hc.m)
            for i, bs1 in enumerate(blocks)
            for j, bs2 in enumerate(blocks)
            if i != j
            for b1 in bs1
            for b2 in bs2
        )
        r = best_alpha(hc, claim.d)
        ok = classes_ok and mu_ok and cross_ok and capped(r, claim)
        rows.append((row, ok, f"best alpha {r.value} over {r.visited} allocations"))

    for row, nm, claim in claims("n_minus_1"):
        r = best_alpha(nm, claim.d)
        rows.append((row, capped(r, claim), f"best alpha {r.value}"))

    for row, i421, claim in claims("421"):
        mu = tuple(
            mms_value(v, i421.ground(), d_i).value for v, d_i in zip(i421.agents, claim.d)
        )
        r = exists_alpha_mms(i421, claim.alpha, claim.d)
        ok = mu == (1, 1, 1) and r.status == claim.kind
        rows.append((row, ok, f"mu {tuple(map(str, mu))}, uniform 1/2 {r.status}"))

        t421 = Instance(4, tuple(third_transform(v) for v in i421.agents), label="third(421)")
        sub_ok = all(is_subadditive(v).ok for v in t421.agents)
        r_over = exists_alpha_mms(t421, uniform(_THIRD + PROBE_EPS, 3), claim.d)
        r_at = exists_alpha_mms(t421, uniform(_THIRD, 3), claim.d)
        ok = sub_ok and r_over.status == "not_exists" and r_at.status == "exists"
        rows.append(
            (f"third_transform({row})", ok,
             f"1/3+eps {r_over.status}, exactly 1/3 {r_at.status}")
        )

    for row, fl, claim in claims("floor_n3"):
        r = exists_alpha_mms(fl, claim.alpha, claim.d)
        rows.append((row, r.status == claim.kind, f"{r.status} over {r.visited} states"))

    for row, g, claim in claims("grid27"):
        per_bundle = all(
            is_monotone(v).ok and is_subadditive(v).ok for v in g.agents
        )
        check = structured_check_27(*claim.args)
        ok = per_bundle and claim.kind == "not_exists" and check.nonexistence
        branches = sum(p.branches for p in check.placements)
        rows.append(
            (row, ok,
             f"claim {check.claim_ok}, per-bundle scans pass, "
             f"{branches} branches all fail")
        )

    for row, s6, claim in claims("submodular_6"):
        submod = [is_submodular(v) for v in s6.agents]
        mu_ok = all(
            mms_value(v, s6.ground(), d_i).value == 1 for v, d_i in zip(s6.agents, claim.d)
        )
        r = best_alpha(s6, claim.d)
        ok = all(c.ok for c in submod) and mu_ok and capped(r, claim)
        rows.append(
            (row, ok,
             f"submodular ({submod[0].checked} triples each), best alpha {r.value}")
        )
    return rows


def has_blocking_subset(d) -> tuple[int, ...] | None:
    """A maximal agent subset N' with d_i < |N'| for every member, if any.

    Such a subset dooms every positive guarantee: its members can each split
    the items of a suitably small instance into fewer parts than there are
    members, so someone always goes home empty.  Returns agent indices.
    """
    d = tuple(int(x) for x in d)
    n = len(d)
    best_size = 0
    for size in range(2, n + 1):
        if sum(1 for x in d if x < size) >= size:
            best_size = size
    if best_size == 0:
        return None
    return tuple(i for i, x in enumerate(d) if x < best_size)
