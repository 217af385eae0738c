"""Valuation oracles, hierarchy class checkers, and random generators.

Oracles are pure query functions `v: 2^M -> Q>=0`, normalized (v(empty) = 0)
and monotone.  Class membership (subadditive / submodular / ...) is never
assumed; the checkers in this module verify it exhaustively at desk scale:

  is_monotone     all covering pairs (S, S + {g})          m <= 16 exhaustive
  is_subadditive  all ordered pairs v(S)+v(T) >= v(S|T)    m <= 13 exhaustive
  is_submodular   the local form, for items g < h not in S,
                  v(S+g)+v(S+h) >= v(S+g+h)+v(S):
                  C(m,2)*2^(m-2) comparisons               m <= 13 exhaustive

The local form is equivalent to the marginal form v(S+g)-v(S) >= v(T+g)-v(T)
over all m*3^(m-1) triples g, S <= T <= M-{g}.  `checked` counts those
triples, and only a function that fails the local form walks them, to find
its first violation as the witness.

Checks are opt-in operations rather than constructor-time mandates: the
27-item instance cannot be checked globally, only bundle by bundle (the
structured mode below, which is exact for `BundleMaxValuation`).

Every oracle also has an integer view (`int_view`), which the exact searches
in `mms` and `oracle` run on: a common denominator D and a function mask ->
v(S) * D.  It is built on first use, never in a constructor.  Additive, XOS,
budget-additive, coverage, bundle-max and thirds-rounded oracles, and the
counterexample builtins, define their values there only, on their own
parameters rescaled to integers: `value_mask`, the `Fraction` interface,
returns view(S) / D and caches nothing.  A table oracle's `value_mask` reads
its table, which is its definition (its view is the table rescaled).  An
oracle built from a callable caches its `Fraction` answers per mask, and its
view is the default, D = 1 over those values, run through the same search
code.

The exhaustive checks scan one dense integer table of the view (`Fraction`
values brought to one denominator where the view has none); `value_mask`
supplies the `Fraction`s only for a failure's witness.  Each check builds its
table afresh and keeps none.  Additive, XOS, budget-additive and coverage
oracles build it by subset doubling, one pass per item over the half built so
far; other oracles query their view once per mask.  A passing check returns
one shared result per (mode, checked).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .core import ItemSet, SubadditivityWitness


def _denominator(values) -> int:
    """The least common denominator of exact rationals."""
    return lcm(*(f.denominator for f in values))


def _scale(values, denom: int) -> list[int]:
    """Each rational times `denom` (a multiple of its denominator), as an int."""
    return [f.numerator * (denom // f.denominator) for f in values]


def _fractions(values) -> tuple[Fraction, ...]:
    """`values` as exact rationals, sharing the ones that already are (they are
    immutable), so a dense table of a few distinct values stays small.  A
    tuple of `Fraction`s is itself returned, so tables can be shared whole."""
    if type(values) is tuple and all(type(x) is Fraction for x in values):
        return values
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def _subset_sums(weights) -> list:
    """Sum of `weights[g]` over the set bits g of every mask, in mask order:
    the table doubles once per item, its upper half adding that item."""
    table = [0]
    for w in weights:
        table += [x + w for x in table]
    return table


def _bit_sum(weights, mask: int):
    """Sum of `weights[g]` over the set bits g of `mask`."""
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


class IntView:
    """An oracle's values on a common denominator: value(mask) = v(mask) * denom.

    Integer-valued for every concrete family in this package.  The base-class
    default is denom 1 over the oracle's own `Fraction` values (`integral`
    False), which the searches handle with the same code.  A plain class, not
    a dataclass: generating a dataclass's methods adds ~1 ms to every import.
    """

    __slots__ = ("denom", "value", "integral")

    def __init__(self, denom: int, value: Callable[[int], object], integral: bool = True):
        self.denom = denom
        self.value = value
        self.integral = integral

    def at_least(self, t: Fraction):
        """The view-scale threshold x with v(S) >= t iff value(S) >= x."""
        x = Fraction(t) * self.denom
        return -(-x.numerator // x.denominator) if self.integral else x


class MaskMemo(dict):
    """mask -> fn(mask), computed on first use; a search owns one and drops it."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, mask: int):
        value = self[mask] = self.fn(mask)
        return value


class ValuationOracle:
    """A set function queried by bitmask.

    Concrete families define their values once, as the integer view
    (`_int_view`), and `value_mask` reads v(S) = view(S) / D off it.  Generic
    oracles can be built directly from a callable on `ItemSet` (used by tests
    to feed the checkers deliberately broken functions); their answers are
    cached per mask, since a callable's cost is unknown.  `value_mask` is
    defined here only: subclasses override `_value_mask` or `_int_view`.
    """

    def __init__(self, m: int, fn=None, declared_class: str = "unknown"):
        self.m = m
        self.declared_class = declared_class
        self._fn = fn
        self._cache = MaskMemo(lambda mask: Fraction(fn(ItemSet(mask, m)))) if fn else None
        self._view: IntView | None = None
        self._mu_memo: dict[int, Fraction] = {}  # d -> mu^d of all items, see `oracle`

    def _value_mask(self, mask: int) -> Fraction:
        if self._cache is not None:
            return self._cache[mask]
        view = self._view or self.int_view()
        return Fraction(view.value(mask), view.denom)

    def value_mask(self, mask: int) -> Fraction:
        return self._value_mask(mask)

    def value(self, s: ItemSet) -> Fraction:
        if s.m != self.m:
            raise ValueError(f"set over {s.m} items queried on oracle over {self.m}")
        return self.value_mask(s.mask)

    def int_view(self) -> IntView:
        """The integer view the exact searches run on, built on first use."""
        if self._view is None:
            self._view = self._int_view()
        return self._view

    def _int_view(self) -> IntView:
        if self._cache is None:
            raise NotImplementedError
        return IntView(1, self.value_mask, integral=False)

    def _int_table(self) -> list:
        """The view's value on all 2^m masks, in mask order, built per call.
        Families whose view is a sum, a capped sum, a max of sums or a union
        fill it by subset doubling instead of one query per mask."""
        return list(map(self.int_view().value, range(1 << self.m)))

    def _key(self):
        return id(self)

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))


class AdditiveValuation(ValuationOracle):
    """v(S) = sum of per-item weights over S."""

    def __init__(self, weights):
        self.weights = _fractions(weights)
        if any(w.numerator < 0 for w in self.weights):
            raise ValueError("additive weights must be nonnegative")
        super().__init__(len(self.weights), declared_class="additive")

    def _int_view(self) -> IntView:
        denom = _denominator(self.weights)
        weights = _scale(self.weights, denom)
        return IntView(denom, lambda mask: _bit_sum(weights, mask))

    def _int_table(self) -> list:
        return _subset_sums(_scale(self.weights, self.int_view().denom))

    def _key(self):
        return self.weights


class XOSValuation(ValuationOracle):
    """Pointwise max of additive clauses (fractionally subadditive)."""

    def __init__(self, clauses):
        self.clauses = tuple(_fractions(c) for c in clauses)
        if not self.clauses:
            raise ValueError("an XOS valuation needs at least one clause")
        m = len(self.clauses[0])
        if any(len(c) != m for c in self.clauses):
            raise ValueError("all clauses must cover the same items")
        if any(w.numerator < 0 for c in self.clauses for w in c):
            raise ValueError("clause weights must be nonnegative")
        super().__init__(m, declared_class="xos")

    def _int_view(self) -> IntView:
        denom = _denominator(w for clause in self.clauses for w in clause)
        clauses = [_scale(clause, denom) for clause in self.clauses]
        return IntView(denom, lambda mask: max(_bit_sum(c, mask) for c in clauses))

    def _int_table(self) -> list:
        denom = self.int_view().denom
        tables = [_subset_sums(_scale(clause, denom)) for clause in self.clauses]
        return list(map(max, *tables)) if len(tables) > 1 else tables[0]

    def _key(self):
        return self.clauses


class TableValuation(ValuationOracle):
    """Explicit value per subset, dense over bitmasks; m <= 16.

    The constructor rejects non-normalized or non-monotone tables rather than
    repairing them -- silent repair would mask authoring errors in the
    instance encodings this class carries.
    """

    def __init__(self, m: int, table, declared_class: str = "unknown"):
        if m > 16:
            raise ValueError("table valuations support at most 16 items")
        self.table = _fractions(table)
        if len(self.table) != 1 << m:
            raise ValueError(f"table must have {1 << m} entries, got {len(self.table)}")
        if self.table[0] != 0:
            raise ValueError("table is not normalized: v(empty) != 0")
        for mask in range(1 << m):
            for g in range(m):
                if not (mask >> g) & 1 and self.table[mask] > self.table[mask | (1 << g)]:
                    raise ValueError(
                        f"table is not monotone: v({ItemSet(mask, m)}) > "
                        f"v({ItemSet(mask | (1 << g), m)})"
                    )
        super().__init__(m, declared_class=declared_class)

    def _value_mask(self, mask: int) -> Fraction:
        return self.table[mask]

    def _int_view(self) -> IntView:
        denom = _denominator(self.table)
        return IntView(denom, _scale(self.table, denom).__getitem__)

    def _key(self):
        return self.table


class BundleMaxValuation(ValuationOracle):
    """v(B) = max_i f_i(B & R_i) over reference bundles R_1..R_k partitioning M.

    Each inner f_i is a dense table over the local subsets of its bundle,
    normalized and monotone (enforced).  The value of any set is determined by
    the max rule, so v(R_i | extra) never exceeds v(R_i).
    """

    def __init__(self, m: int, bundles, inner_tables, declared_class: str = "unknown"):
        self.bundles = tuple(b if isinstance(b, ItemSet) else ItemSet.of(m, b) for b in bundles)
        union = 0
        for b in self.bundles:
            if union & b.mask:
                raise ValueError("reference bundles must be disjoint")
            union |= b.mask
        if union != (1 << m) - 1:
            raise ValueError("reference bundles must cover all items")
        self.positions = tuple(b.items() for b in self.bundles)
        self.inner_tables = tuple(_fractions(t) for t in inner_tables)
        for b, t in zip(self.bundles, self.inner_tables):
            r = len(b)
            if len(t) != 1 << r:
                raise ValueError(f"inner table must have {1 << r} entries, got {len(t)}")
            if t[0] != 0:
                raise ValueError("inner function is not normalized")
            for mask in range(1 << r):
                for g in range(r):
                    if not (mask >> g) & 1 and t[mask] > t[mask | (1 << g)]:
                        raise ValueError("inner function is not monotone")
        super().__init__(m, declared_class=declared_class)

    def _int_view(self) -> IntView:
        """Bundle i's local mask is a bit field of the items renumbered bundle by
        bundle, gathered through one 512-entry table per 9-bit chunk of the
        global mask."""
        denom = _denominator(x for t in self.inner_tables for x in t)
        new_bit = [0] * (self.m + 8)  # padded to whole chunks
        fields, off = [], 0
        for pos, t in zip(self.positions, self.inner_tables):
            for j, g in enumerate(pos, off):
                new_bit[g] = 1 << j
            fields.append((off, (1 << len(pos)) - 1, _scale(t, denom)))
            off += len(pos)
        chunks = []
        for shift in range(0, self.m, 9):
            chunk = [0] * 512
            for x in range(1, 512):  # x's low bit, plus x without it
                low = x & -x
                chunk[x] = chunk[x ^ low] | new_bit[shift + low.bit_length() - 1]
            chunks.append((shift, chunk))

        def value(mask: int) -> int:
            local = 0
            for shift, chunk in chunks:
                local |= chunk[(mask >> shift) & 511]
            return max([t[(local >> off) & full] for off, full, t in fields])

        return IntView(denom, value)

    def _key(self):
        return (tuple(b.mask for b in self.bundles), self.inner_tables)


class BudgetAdditiveValuation(ValuationOracle):
    """v(S) = min(sum of weights over S, cap); submodular."""

    def __init__(self, weights, cap):
        self.weights = _fractions(weights)
        self.cap = cap if type(cap) is Fraction else Fraction(cap)
        if any(w.numerator < 0 for w in self.weights) or self.cap < 0:
            raise ValueError("weights and cap must be nonnegative")
        super().__init__(len(self.weights), declared_class="submodular")

    def _int_view(self) -> IntView:
        denom = _denominator(self.weights + (self.cap,))
        *weights, cap = _scale(self.weights + (self.cap,), denom)
        return IntView(denom, lambda mask: min(_bit_sum(weights, mask), cap))

    def _int_table(self) -> list:
        *weights, cap = _scale(self.weights + (self.cap,), self.int_view().denom)
        return [x if x < cap else cap for x in _subset_sums(weights)]

    def _key(self):
        return (self.weights, self.cap)


class CoverageValuation(ValuationOracle):
    """v(S) = number of universe elements covered by the items in S; submodular."""

    def __init__(self, m: int, covers):
        self.covers = tuple(int(c) for c in covers)
        if len(self.covers) != m:
            raise ValueError("one cover mask per item required")
        super().__init__(m, declared_class="submodular")

    def _covered(self, mask: int) -> int:
        covered = 0
        while mask:
            low = mask & -mask
            covered |= self.covers[low.bit_length() - 1]
            mask ^= low
        return covered.bit_count()

    def _int_view(self) -> IntView:
        return IntView(1, self._covered)

    def _int_table(self) -> list:
        covered = [0]
        for cover in self.covers:
            covered += [x | cover for x in covered]
        return [x.bit_count() for x in covered]

    def _key(self):
        return self.covers


@dataclass(frozen=True, slots=True)
class MonotonicityWitness:
    small: ItemSet
    large: ItemSet
    value_small: Fraction
    value_large: Fraction


@dataclass(frozen=True, slots=True)
class SubmodularityWitness:
    s: ItemSet
    t: ItemSet
    g: int
    marginal_s: Fraction
    marginal_t: Fraction


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of a class check; `mode` flags how much ground was covered."""

    ok: bool
    mode: str  # "exhaustive" | "structured" | "sampled"
    checked: int
    witness: object | None = None

    def __bool__(self) -> bool:
        return self.ok


@lru_cache(maxsize=64)
def _passed(mode: str, checked: int) -> CheckResult:
    """One shared (immutable) result per passing check shape."""
    return CheckResult(True, mode, checked)


def _dense_ints(v: ValuationOracle) -> list:
    """v(S) * D for all 2^m masks S on one common denominator D; m <= 16."""
    table = v._int_table()
    return table if v.int_view().integral else _scale(table, _denominator(table))


def is_monotone(v: ValuationOracle, samples: int = 2000, seed: int = 0) -> CheckResult:
    """Check v(S) <= v(T) for S <= T.

    Exhaustive over all covering pairs (S, S + {g}) for m <= 16 (a violation
    among arbitrary pairs implies one among covering pairs, so the witness is
    minimal).  `BundleMaxValuation` over larger m is checked bundle by bundle,
    which is exact for the max-of-inner-functions shape.  Anything else over
    large m falls back to seeded random covering pairs, flagged as sampled.
    """
    m = v.m
    if m <= 16:
        ints = _dense_ints(v)
        for mask in range(1 << m):
            for g in range(m):
                if not (mask >> g) & 1:
                    up = mask | (1 << g)
                    if ints[mask] > ints[up]:
                        return CheckResult(
                            False,
                            "exhaustive",
                            (1 << m) * m,
                            MonotonicityWitness(
                                ItemSet(mask, m), ItemSet(up, m),
                                v.value_mask(mask), v.value_mask(up),
                            ),
                        )
        return _passed("exhaustive", (1 << m) * m)
    if isinstance(v, BundleMaxValuation):
        checked = 0
        for positions, table in zip(v.positions, v.inner_tables):
            r = len(positions)
            checked += (1 << r) * r
            # constructor enforces inner monotonicity, so this re-scan is a
            # consistency check that can only fail if state was tampered with
            for mask in range(1 << r):
                for g in range(r):
                    if not (mask >> g) & 1 and table[mask] > table[mask | (1 << g)]:
                        small = ItemSet.of(m, (positions[j] for j in ItemSet(mask, r)))
                        large = small | ItemSet.of(m, [positions[g]])
                        return CheckResult(
                            False,
                            "structured",
                            checked,
                            MonotonicityWitness(small, large, table[mask], table[mask | (1 << g)]),
                        )
        return _passed("structured", checked)
    rng = random.Random(seed)
    for _ in range(samples):
        mask = rng.getrandbits(m)
        g = rng.randrange(m)
        up = mask | (1 << g)
        if v.value_mask(mask & ~(1 << g)) > v.value_mask(up):
            low = mask & ~(1 << g)
            return CheckResult(
                False,
                "sampled",
                samples,
                MonotonicityWitness(
                    ItemSet(low, m), ItemSet(up, m), v.value_mask(low), v.value_mask(up)
                ),
            )
    return _passed("sampled", samples)


def _subadditive_scan(ints: list[int], m: int) -> tuple[int, int] | None:
    """Find (s, t) with v(s) + v(t) < v(s | t) over all pairs of masks, or None."""
    size = 1 << m
    for s in range(1, size):
        vs = ints[s]
        for t in range(s, size):
            if vs + ints[t] < ints[s | t]:
                return s, t
    return None


def is_subadditive(v: ValuationOracle, samples: int = 5000, seed: int = 0) -> CheckResult:
    """Check v(S) + v(T) >= v(S | T).

    Exhaustive over all 4^m ordered pairs for m <= 13 (the scan walks
    unordered pairs; the condition is symmetric).  For `BundleMaxValuation`
    the structured per-bundle check is exact: with bundles partitioning M,
    v(S | T) = f_i((S & R_i) | (T & R_i)) <= f_i(S & R_i) + f_i(T & R_i)
    <= v(S) + v(T) whenever every inner f_i is subadditive on its bundle.
    Other oracles over m > 13 get seeded random pairs, flagged as sampled.
    """
    m = v.m
    if isinstance(v, BundleMaxValuation) and m > 13:
        checked = 0
        for positions, table in zip(v.positions, v.inner_tables):
            r = len(positions)
            checked += 1 << (2 * r)
            bad = _subadditive_scan(_scale(table, _denominator(table)), r)
            if bad is not None:
                s, t = bad
                a = ItemSet.of(m, (positions[j] for j in ItemSet(s, r)))
                b = ItemSet.of(m, (positions[j] for j in ItemSet(t, r)))
                return CheckResult(
                    False,
                    "structured",
                    checked,
                    SubadditivityWitness(a, b, table[s], table[t], table[s | t]),
                )
        return _passed("structured", checked)
    if m <= 13:
        bad = _subadditive_scan(_dense_ints(v), m)
        if bad is not None:
            s, t = bad
            value = v.value_mask
            return CheckResult(
                False,
                "exhaustive",
                1 << (2 * m),
                SubadditivityWitness(
                    ItemSet(s, m), ItemSet(t, m), value(s), value(t), value(s | t)
                ),
            )
        return _passed("exhaustive", 1 << (2 * m))
    rng = random.Random(seed)
    for _ in range(samples):
        s = rng.getrandbits(m)
        t = rng.getrandbits(m)
        if v.value_mask(s) + v.value_mask(t) < v.value_mask(s | t):
            return CheckResult(
                False,
                "sampled",
                samples,
                SubadditivityWitness(
                    ItemSet(s, m),
                    ItemSet(t, m),
                    v.value_mask(s),
                    v.value_mask(t),
                    v.value_mask(s | t),
                ),
            )
    return _passed("sampled", samples)


def _locally_submodular(ints: list, m: int) -> bool:
    """v(S+g) + v(S+h) >= v(S+g+h) + v(S) for all items g < h and S <= M-{g,h}.

    The local form of submodularity, equivalent to the marginal form (Schrijver,
    Combinatorial Optimization, 2003, ch. 44): C(m,2) * 2^(m-2) comparisons.
    """
    full = (1 << m) - 1
    for g in range(m):
        bit_g = 1 << g
        for h in range(g + 1, m):
            bit_h = 1 << h
            both = bit_g | bit_h
            rest = full ^ both
            s = rest
            while True:
                if ints[s | bit_g] + ints[s | bit_h] < ints[s | both] + ints[s]:
                    return False
                if s == 0:
                    break
                s = (s - 1) & rest
    return True


def is_submodular(v: ValuationOracle) -> CheckResult:
    """Check decreasing marginals: v(S+{g}) - v(S) >= v(T+{g}) - v(T) for S <= T.

    Covers every item g and every nested pair S <= T <= M - {g}, which is
    m * 3^(m-1) triples; capped at m <= 13.  The local form decides it in
    fewer comparisons; only a failing function walks the triples, to find the
    first violation, whose witness carries both marginals.
    """
    m = v.m
    if m > 13:
        raise ValueError(f"submodularity scan over {m} items is infeasible; cap is 13")
    ints = _dense_ints(v)
    checked = m * 3 ** (m - 1)
    if _locally_submodular(ints, m):
        return _passed("exhaustive", checked)
    full = (1 << m) - 1
    for g in range(m):
        bit = 1 << g
        rest = full ^ bit
        # walk T over subsets of rest, then S over subsets of T
        t = rest
        while True:
            marg_t = ints[t | bit] - ints[t]
            s = t
            while True:
                if ints[s | bit] - ints[s] < marg_t:
                    value = v.value_mask
                    return CheckResult(
                        False,
                        "exhaustive",
                        checked,
                        SubmodularityWitness(
                            ItemSet(s, m),
                            ItemSet(t, m),
                            g,
                            value(s | bit) - value(s),
                            value(t | bit) - value(t),
                        ),
                    )
                if s == 0:
                    break
                s = (s - 1) & t
            if t == 0:
                break
            t = (t - 1) & rest
    return _passed("exhaustive", checked)


class ThirdRoundedValuation(ValuationOracle):
    """Round a subadditive valuation onto the grid {0, 1/3, 2/3, 1}.

    v'(empty) = 0; otherwise 1/3 when v < 1/2, 2/3 when 1/2 <= v < 1, and 1
    when v >= 1.  The rounding preserves subadditivity and the key threshold
    equivalence v(S) >= 1/2  <=>  v'(S) >= 2/3.
    """

    def __init__(self, base: ValuationOracle):
        if base.value_mask(0) != 0:
            raise ValueError("base valuation is not normalized: v(empty) != 0")
        self.base = base
        super().__init__(base.m, declared_class="subadditive")

    def _int_view(self) -> IntView:
        base = self.base.int_view()
        value, one = base.value, base.denom

        def thirds(mask: int) -> int:
            if mask == 0:
                return 0
            x = value(mask)
            return 3 if x >= one else 2 if 2 * x >= one else 1

        return IntView(3, thirds)

    def _key(self):
        return type(self.base), self.base._key()


def third_transform(v: ValuationOracle) -> ValuationOracle:
    """The {0, 1/3, 2/3, 1} rounding of `v` (see `ThirdRoundedValuation`)."""
    return ThirdRoundedValuation(v)


RANDOM_CLASSES = ("additive", "xos", "budget-additive", "coverage")


def random_valuation(cls: str, m: int, seed: int, **params) -> ValuationOracle:
    """Deterministic random oracle of the requested class.

    Classes: additive, xos, budget-additive, coverage.  Budget-additive and
    coverage functions are submodular; all four are subadditive, which is what
    the protocol property tests need for fuel.
    """
    rng = random.Random(f"valuation:{cls}:{m}:{seed}")
    if cls == "additive":
        return AdditiveValuation([rng.randint(0, 12) for _ in range(m)])
    if cls == "xos":
        k = params.get("clauses", rng.randint(2, 4))
        clauses = []
        for _ in range(k):
            clauses.append(
                [rng.randint(0, 12) if rng.random() < 0.7 else 0 for _ in range(m)]
            )
        return XOSValuation(clauses)
    if cls == "budget-additive":
        weights = [rng.randint(0, 12) for _ in range(m)]
        total = max(1, sum(weights))
        return BudgetAdditiveValuation(weights, rng.randint(1, total))
    if cls == "coverage":
        universe = m + rng.randint(0, m)
        covers = []
        for _ in range(m):
            covers.append(sum(1 << u for u in range(universe) if rng.random() < 0.4))
        return CoverageValuation(m, covers)
    raise ValueError(f"unsupported valuation class {cls!r}; use one of {RANDOM_CLASSES}")
