"""Shared random-instance fuel for the protocol and oracle tests, and each
oracle family's value written out on `Fraction`s."""

import random
from fractions import Fraction

from mmslab.core import Instance, ItemSet, Partition
from mmslab.counterexamples import HalfCapValuation, MaxBlockThirdsValuation, OnesValuation
from mmslab.valuations import (
    AdditiveValuation,
    BudgetAdditiveValuation,
    BundleMaxValuation,
    CoverageValuation,
    TableValuation,
    ThirdRoundedValuation,
    ValuationOracle,
    XOSValuation,
    random_valuation,
)


def random_partition(m: int, k: int, rng: random.Random) -> Partition:
    items = list(range(m))
    rng.shuffle(items)
    if k == 1:
        return Partition.of(m, items)
    if m >= k:
        cutpoints = sorted(rng.sample(range(1, m), k - 1))
    else:
        cutpoints = list(range(1, m)) + [m] * (k - m)
    chunks, prev = [], 0
    for c in cutpoints + [m]:
        chunks.append(items[prev:c])
        prev = c
    return Partition.of(m, *chunks)


def random_instance(n: int, m: int, cls: str, seed: int) -> Instance:
    agents = tuple(random_valuation(cls, m, seed=seed * 31 + j) for j in range(n))
    return Instance(m, agents, label=f"random-{cls}-{seed}")


def random_partitions(inst: Instance, sizes, rng: random.Random):
    return tuple(random_partition(inst.m, k, rng) for k in sizes)


def _weight_sum(weights, mask: int) -> Fraction:
    return sum((w for g, w in enumerate(weights) if mask >> g & 1), Fraction(0))


def reference_value(v: ValuationOracle, mask: int) -> Fraction:
    """v(mask) from the family's definition on `Fraction`s, independent of the
    integer view that `value_mask` reads."""
    if isinstance(v, AdditiveValuation):
        return _weight_sum(v.weights, mask)
    if isinstance(v, XOSValuation):
        return max(_weight_sum(clause, mask) for clause in v.clauses)
    if isinstance(v, BudgetAdditiveValuation):
        return min(_weight_sum(v.weights, mask), v.cap)
    if isinstance(v, CoverageValuation):
        covered = 0
        for g in ItemSet(mask, v.m):
            covered |= v.covers[g]
        return Fraction(covered.bit_count())
    if isinstance(v, TableValuation):
        return v.table[mask]
    if isinstance(v, BundleMaxValuation):
        return max(t[sum(1 << j for j, g in enumerate(pos) if mask >> g & 1)]
                   for pos, t in zip(v.positions, v.inner_tables))
    if isinstance(v, ThirdRoundedValuation):
        if mask == 0:
            return Fraction(0)
        x = reference_value(v.base, mask)
        return Fraction(1) if x >= 1 else Fraction(2, 3) if x >= Fraction(1, 2) else Fraction(1, 3)
    if isinstance(v, OnesValuation):
        return Fraction(1 if mask else 0)
    if isinstance(v, HalfCapValuation):
        if mask == 0:
            return Fraction(0)
        return Fraction(1) if any(mask & b == b for b in v.blocks) else Fraction(1, 2)
    if isinstance(v, MaxBlockThirdsValuation):
        return Fraction(max((mask & b).bit_count() for b in v.blocks), 3)
    if type(v) is ValuationOracle:
        return Fraction(v._fn(ItemSet(mask, v.m)))
    raise TypeError(f"no reference value for {type(v).__name__}")
