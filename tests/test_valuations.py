import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmslab.core import ItemSet
from mmslab.counterexamples import (
    HalfCapValuation,
    MaxBlockThirdsValuation,
    instance_27,
    instance_half_cap,
)
from mmslab.valuations import (
    AdditiveValuation,
    BudgetAdditiveValuation,
    BundleMaxValuation,
    CoverageValuation,
    RANDOM_CLASSES,
    TableValuation,
    ValuationOracle,
    XOSValuation,
    is_monotone,
    is_subadditive,
    is_submodular,
    random_valuation,
    third_transform,
)


def test_additive_eval():
    v = AdditiveValuation([3, 1, 1, 1])
    assert v.value(ItemSet.of(4, [0, 2])) == 4
    assert v.value_mask(0) == 0


def test_xos_is_max_of_clauses():
    v = XOSValuation([[2, 0, 0], [0, 1, 1]])
    assert v.value(ItemSet.of(3, [0])) == 2
    assert v.value(ItemSet.of(3, [1, 2])) == 2
    assert v.value(ItemSet.of(3, [0, 1, 2])) == 2
    with pytest.raises(ValueError):
        XOSValuation([])


def test_table_rejects_non_monotone_and_unnormalized():
    with pytest.raises(ValueError):
        TableValuation(1, [1, 1])
    bad = [Fraction(0)] * 4
    bad[0b01] = Fraction(1)
    bad[0b11] = Fraction(1, 2)
    with pytest.raises(ValueError):
        TableValuation(2, bad)


def test_monotone_witness_on_bad_oracle():
    def fn(s):
        if s.mask == 0b01:
            return Fraction(1)
        return Fraction(1, 2) if s.mask else Fraction(0)

    v = ValuationOracle(2, fn)
    res = is_monotone(v)
    assert not res.ok
    w = res.witness
    assert w.small.issubset(w.large) and len(w.large) == len(w.small) + 1
    assert w.value_small > w.value_large


def test_monotone_additive():
    assert is_monotone(AdditiveValuation([1, 2, 3])).ok


def test_subadditive_examples():
    assert is_subadditive(AdditiveValuation([1, 2, 3])).ok
    table = [Fraction(0), Fraction(1, 4), Fraction(1, 4), Fraction(1)]
    v = TableValuation(2, table)
    res = is_subadditive(v)
    assert not res.ok
    w = res.witness
    assert w.value_a + w.value_b < w.value_union
    assert w.holds(v.value)


def test_submodular_additive_and_witness():
    assert is_submodular(AdditiveValuation([1, 2])).ok
    # items of the 4-item product instance: completing a block jumps in value
    hc = instance_half_cap((2, 2))
    res = is_submodular(hc.agents[0])
    assert not res.ok
    w = res.witness
    v = hc.agents[0]
    marg_s = v.value(w.s | ItemSet.of(4, [w.g])) - v.value(w.s)
    marg_t = v.value(w.t | ItemSet.of(4, [w.g])) - v.value(w.t)
    assert w.s.issubset(w.t) and w.g not in w.t
    assert marg_s == w.marginal_s and marg_t == w.marginal_t
    assert marg_s < marg_t
    assert marg_s == 0 and marg_t == Fraction(1, 2)


def test_submodular_triple_count():
    res = is_submodular(AdditiveValuation([1] * 6))
    assert res.checked == 6 * 3**5 == 1458


def test_third_transform_cases():
    v = ValuationOracle(3, lambda s: Fraction(3, 5) if s else Fraction(0))
    t = third_transform(v)
    assert t.value(ItemSet.of(3, [0])) == Fraction(2, 3)
    assert t.value_mask(0) == 0
    v2 = ValuationOracle(3, lambda s: Fraction(7, 5) if s else Fraction(0))
    assert third_transform(v2).value(ItemSet.of(3, [1])) == 1
    v3 = ValuationOracle(3, lambda s: Fraction(1, 5) if s else Fraction(0))
    assert third_transform(v3).value(ItemSet.of(3, [1])) == Fraction(1, 3)


def test_third_transforms_of_unequal_bases_are_unequal():
    # the two bases have equal keys but different types and values
    half = third_transform(HalfCapValuation(3, [7]))
    thirds = third_transform(MaxBlockThirdsValuation(3, [7]))
    assert (half.value_mask(1), thirds.value_mask(1)) == (Fraction(2, 3), Fraction(1, 3))
    assert half != thirds
    assert third_transform(HalfCapValuation(3, [7])) == half


def test_third_transform_rejects_unnormalized():
    with pytest.raises(ValueError):
        third_transform(ValuationOracle(2, lambda s: Fraction(1)))


def test_third_transform_threshold_equivalence_and_subadditivity():
    # rounding keeps subadditivity and the v >= 1/2 <-> v' >= 2/3 equivalence
    rng = random.Random(5)
    for trial in range(100):
        m = rng.randint(2, 8)
        cls = RANDOM_CLASSES[trial % len(RANDOM_CLASSES)]
        v = random_valuation(cls, m, seed=trial)
        total = v.value_mask((1 << m) - 1)
        if total > 0:  # rescale so interesting sets straddle 1/2
            v = ValuationOracle(
                m, lambda s, v=v, total=total: 2 * v.value_mask(s.mask) / total
            )
        t = third_transform(v)
        assert is_subadditive(t).ok and is_monotone(t).ok
        for _ in range(20):
            mask = rng.getrandbits(m)
            assert (v.value_mask(mask) >= Fraction(1, 2)) == (
                t.value_mask(mask) >= Fraction(2, 3)
            )


def test_random_classes_members():
    for cls in RANDOM_CLASSES:
        v = random_valuation(cls, 6, seed=3)
        assert is_monotone(v).ok
        assert is_subadditive(v).ok
    assert is_submodular(random_valuation("coverage", 6, seed=3)).ok
    assert is_submodular(random_valuation("budget-additive", 6, seed=4)).ok
    assert is_submodular(random_valuation("additive", 6, seed=5)).ok
    with pytest.raises(ValueError):
        random_valuation("unit-demand", 4, seed=0)


def test_random_valuation_deterministic():
    a = random_valuation("xos", 7, seed=11)
    b = random_valuation("xos", 7, seed=11)
    assert a == b
    assert a != random_valuation("xos", 7, seed=12)


@given(st.integers(min_value=0, max_value=2**6 - 1))
def test_hierarchy_on_random_members(mask):
    v = random_valuation("budget-additive", 6, seed=mask % 17)
    s = ItemSet(mask, 6)
    # submodular members are subadditive: direct pairwise spot check
    t = ItemSet((mask * 37 + 11) % 64, 6)
    assert v.value(s) + v.value(t) >= v.value(s | t)


def test_bundle_max_structured_matches_exhaustive():
    # structured per-bundle subadditivity equals the full scan at small m
    rng = random.Random(9)
    for trial in range(12):
        m = rng.randint(4, 10)
        split = rng.randint(1, m - 1)
        bundles = [list(range(split)), list(range(split, m))]
        tables = []
        for b in bundles:
            r = len(b)
            if trial % 3 == 0 and r >= 2:
                # monotone but deliberately superadditive on the full bundle
                table = [Fraction(1, 4)] * (1 << r)
                table[0] = Fraction(0)
                table[-1] = Fraction(1)
                tables.append(table)
            else:
                weights = [rng.randint(0, 4) for _ in range(r)]
                cap = max(1, sum(weights) // 2)
                tables.append(
                    [min(sum(weights[j] for j in range(r) if (mask >> j) & 1), cap)
                     for mask in range(1 << r)]
                )
        v = BundleMaxValuation(m, bundles, tables)
        structured = all(_scan_ok(table) for table in v.inner_tables)
        assert is_subadditive(v).ok == structured


def _scan_ok(table):
    size = len(table)
    for s in range(size):
        for t in range(size):
            if table[s] + table[t] < table[s | t]:
                return False
    return True


def test_structured_mode_used_for_grid():
    v = instance_27().agents[0]
    res = is_subadditive(v)
    assert res.ok and res.mode == "structured"
    assert res.checked == 3 * 4**9


def test_budget_and_coverage_shapes():
    v = BudgetAdditiveValuation([2, 2, 2], 4)
    assert v.value(ItemSet.full(3)) == 4
    c = CoverageValuation(2, [0b011, 0b110])
    assert c.value(ItemSet.full(2)) == 3
    assert c.value(ItemSet.of(2, [0])) == 2
