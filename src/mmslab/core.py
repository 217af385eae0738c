"""Ground types for items, partitions, allocations and guarantee vectors.

Items are indices 0..m-1 and item sets are fixed-width bitsets (m <= 32 is
enough for every instance shipped with this package; the exact search engines
would not scale past that anyway).  All values elsewhere in the package are
exact `fractions.Fraction`s -- the impossibility instances hinge on strict
comparisons against 1/2, 2/3 and 1/2 +- eps, so there is no floating point
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

MAX_ITEMS = 32


class BudgetExceeded(Exception):
    """An exact search would exceed its configured budget; never truncated silently."""


class PreconditionViolation(Exception):
    """A protocol step was fed inputs violating its audited precondition."""


@dataclass(frozen=True, slots=True)
class SubadditivityWitness:
    """Two sets whose values certify v(a) + v(b) < v(a | b)."""

    a: "ItemSet"
    b: "ItemSet"
    value_a: Fraction
    value_b: Fraction
    value_union: Fraction

    def holds(self, value) -> bool:
        """Re-check the witness against a valuation callable."""
        return (
            value(self.a) == self.value_a
            and value(self.b) == self.value_b
            and value(self.a | self.b) == self.value_union
            and self.value_a + self.value_b < self.value_union
        )


class SubadditivityViolation(Exception):
    """Raised when a protocol's guarantee fails, carrying the inequality that broke.

    The protocols in this package are correct for subadditive oracles; a
    postcondition failure is therefore evidence that an input oracle is not
    subadditive, and the witness makes that evidence checkable.
    """

    def __init__(self, witness: SubadditivityWitness, context: str = ""):
        self.witness = witness
        self.context = context
        super().__init__(
            f"subadditivity violated{': ' + context if context else ''}: "
            f"v({witness.a}) + v({witness.b}) = {witness.value_a} + {witness.value_b}"
            f" < {witness.value_union} = v({witness.a | witness.b})"
        )


@dataclass(frozen=True, slots=True)
class ItemSet:
    """A subset of the items 0..m-1, stored as a bitmask."""

    mask: int
    m: int

    def __post_init__(self):
        if not (0 <= self.m <= MAX_ITEMS):
            raise ValueError(f"item count {self.m} outside 0..{MAX_ITEMS}")
        if not (0 <= self.mask < (1 << self.m)):
            raise ValueError(f"mask {self.mask:#x} has bits outside 0..{self.m - 1}")

    @classmethod
    def empty(cls, m: int) -> "ItemSet":
        return cls(0, m)

    @classmethod
    def full(cls, m: int) -> "ItemSet":
        return cls((1 << m) - 1, m)

    @classmethod
    def of(cls, m: int, items: Iterable[int]) -> "ItemSet":
        mask = 0
        for g in items:
            if not (0 <= g < m):
                raise ValueError(f"item {g} outside 0..{m - 1}")
            mask |= 1 << g
        return cls(mask, m)

    def _check(self, other: "ItemSet") -> None:
        if self.m != other.m:
            raise ValueError(f"mixing item sets over {self.m} and {other.m} items")

    def __or__(self, other: "ItemSet") -> "ItemSet":
        self._check(other)
        return ItemSet(self.mask | other.mask, self.m)

    def __and__(self, other: "ItemSet") -> "ItemSet":
        self._check(other)
        return ItemSet(self.mask & other.mask, self.m)

    def __sub__(self, other: "ItemSet") -> "ItemSet":
        self._check(other)
        return ItemSet(self.mask & ~other.mask, self.m)

    def complement(self) -> "ItemSet":
        """Complement with respect to the full ground set 0..m-1."""
        return ItemSet(self.mask ^ ((1 << self.m) - 1), self.m)

    def isdisjoint(self, other: "ItemSet") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def issubset(self, other: "ItemSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __contains__(self, g: int) -> bool:
        return 0 <= g < self.m and (self.mask >> g) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def items(self) -> tuple[int, ...]:
        return tuple(self)

    def __str__(self) -> str:
        return "{" + ",".join(str(g) for g in self) + "}"


@dataclass(frozen=True, slots=True)
class Partition:
    """An ordered split of a ground set into pairwise disjoint parts.

    Parts may be empty (a partition into d parts with fewer than d valuable
    groups simply pads with empty parts, which are worth v(empty) = 0).
    """

    parts: tuple[ItemSet, ...]
    ground: ItemSet

    def __post_init__(self):
        union = 0
        for i, part in enumerate(self.parts):
            if part.m != self.ground.m:
                raise ValueError("part and ground item counts differ")
            if union & part.mask:
                raise ValueError(f"parts overlap at part index {i}")
            union |= part.mask
        if union != self.ground.mask:
            raise ValueError("parts do not cover the ground set")

    @classmethod
    def of(cls, m: int, *parts: Iterable[int]) -> "Partition":
        sets = tuple(ItemSet.of(m, p) for p in parts)
        ground = ItemSet.empty(m)
        for s in sets:
            ground = ground | s
        return cls(sets, ground)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[ItemSet]:
        return iter(self.parts)

    def __getitem__(self, j: int) -> ItemSet:
        return self.parts[j]

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True, slots=True)
class Allocation:
    """One bundle per agent; bundles must be disjoint but need not cover M.

    Every protocol here throws items away (free disposal), so coverage is
    deliberately not an invariant.  Disjointness is checked by
    `validate_allocation`, not the constructor, so that the validator itself
    can be exercised on broken inputs.
    """

    bundles: tuple[ItemSet, ...]

    @classmethod
    def of(cls, m: int, *bundles: Iterable[int]) -> "Allocation":
        return cls(tuple(ItemSet.of(m, b) for b in bundles))

    def __len__(self) -> int:
        return len(self.bundles)

    def __iter__(self) -> Iterator[ItemSet]:
        return iter(self.bundles)

    def __getitem__(self, i: int) -> ItemSet:
        return self.bundles[i]

    def union(self) -> ItemSet:
        out = ItemSet.empty(self.bundles[0].m)
        for b in self.bundles:
            out = out | b
        return out

    def __str__(self) -> str:
        return "(" + ", ".join(str(b) for b in self.bundles) + ")"


def demand_vector(values: Sequence[int]) -> tuple[int, ...]:
    """Validate a vector of per-agent part counts (each >= 1)."""
    out = tuple(int(d) for d in values)
    for d in out:
        if d < 1:
            raise ValueError(f"demand entries must be positive, got {d}")
    return out


def _leading_digits(k: int) -> str:
    """At least 40 leading digits of k >= 0: `str` refuses ints past 4300 digits."""
    return str(k // 10 ** max(0, (k.bit_length() - 140) * 3 // 10))


def threshold_vector(values: Sequence) -> tuple[Fraction, ...]:
    """Validate a vector of per-agent approximation thresholds in [0, 1]."""
    out = tuple(a if type(a) is Fraction else Fraction(a) for a in values)
    for a in out:
        if not (0 <= a.numerator <= a.denominator):  # the denominator is positive
            text = ("-" if a < 0 else "") + _leading_digits(abs(a.numerator))
            if a.denominator != 1:
                text += "/" + _leading_digits(a.denominator)
            raise ValueError(f"thresholds must lie in [0, 1], got {text[:40]}")
    return out


def uniform(alpha, n: int) -> tuple[Fraction, ...]:
    return threshold_vector([Fraction(alpha)] * n)


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: m items and one valuation oracle per agent."""

    m: int
    agents: tuple
    label: str = ""

    def __post_init__(self):
        if not (1 <= self.m <= MAX_ITEMS):
            raise ValueError(f"item count {self.m} outside 1..{MAX_ITEMS}")
        for i, v in enumerate(self.agents):
            if v.m != self.m:
                raise ValueError(f"agent {i} oracle is over {v.m} items, instance has {self.m}")

    @property
    def n(self) -> int:
        return len(self.agents)

    def ground(self) -> ItemSet:
        return ItemSet.full(self.m)


def validate_allocation(allocation: Allocation, inst: Instance) -> str | None:
    """Return None if the allocation is valid for the instance, else a report.

    Valid means: one bundle per agent, all item indices < m, bundles pairwise
    disjoint.  The report names the first offending pair of agents.
    """
    if len(allocation) != inst.n:
        return f"allocation has {len(allocation)} bundles for {inst.n} agents"
    for i, b in enumerate(allocation):
        if b.m != inst.m:
            return f"bundle of agent {i} is over {b.m} items, instance has {inst.m}"
    seen = 0
    for i, b in enumerate(allocation):
        if seen & b.mask:
            for j in range(i):
                if allocation[j].mask & b.mask:
                    shared = ItemSet(allocation[j].mask & b.mask, inst.m)
                    return f"agents {j} and {i} share items {shared}"
        seen |= b.mask
    return None


def guarantee_dominates(alpha, d, alpha_prime, d_prime) -> bool:
    """True iff the (alpha, d) guarantee implies the (alpha', d') one.

    Pointwise alpha_i >= alpha'_i and d_i <= d'_i: raising a threshold or
    allowing fewer parts can only strengthen a guarantee, so every allocation
    meeting (alpha, d) also meets (alpha', d').
    """
    alpha = threshold_vector(alpha)
    alpha_prime = threshold_vector(alpha_prime)
    d = demand_vector(d)
    d_prime = demand_vector(d_prime)
    if not (len(alpha) == len(alpha_prime) == len(d) == len(d_prime)):
        raise ValueError("guarantee vectors must all have the same length")
    return all(a >= ap for a, ap in zip(alpha, alpha_prime)) and all(
        x <= xp for x, xp in zip(d, d_prime)
    )
