import gc
import random
from fractions import Fraction

import pytest

from mmslab.core import Allocation, BudgetExceeded, Instance, ItemSet, Partition, uniform
from mmslab.counterexamples import instance_421, instance_submodular_6
from mmslab.mms import (
    min_value,
    mms_value,
    mms_value_rgs,
    verify_alpha_mms_P,
    verify_alpha_mms_d,
)
from mmslab.oracle import best_alpha
from mmslab.valuations import AdditiveValuation, random_valuation


def test_min_value_examples():
    v = AdditiveValuation([3, 1, 1, 1])
    p = Partition.of(4, [0], [1, 2, 3])
    assert min_value(v, p) == 3
    assert min_value(v, Partition.of(4, [0, 1, 2, 3])) == 6
    assert min_value(v, Partition.of(4, [0, 1, 2, 3], [])) == 0


def test_min_value_requires_cover():
    v = AdditiveValuation([1, 1])
    with pytest.raises(ValueError):
        min_value(v, Partition.of(2, [0]))


def test_mms_value_examples():
    v = AdditiveValuation([3, 1, 1, 1])
    res = mms_value(v, ItemSet.full(4), 2)
    assert res.value == 3
    assert sorted(sorted(p) for p in res.witness.parts) == [[0], [1, 2, 3]]
    assert mms_value(v, ItemSet.full(4), 1).value == 6


def test_mms_one_part_is_total():
    v = random_valuation("xos", 6, seed=2)
    assert mms_value(v, ItemSet.full(6), 1).value == v.value(ItemSet.full(6))


def test_mms_more_parts_than_items():
    v = AdditiveValuation([1, 1])
    res = mms_value(v, ItemSet.full(2), 5)
    assert res.value == 0
    assert len(res.witness) == 5
    assert any(not part for part in res.witness)


def test_mms_421_second_agent():
    inst = instance_421()
    res = mms_value(inst.agents[1], inst.ground(), 2)
    assert res.value == 1
    assert sorted(sorted(p) for p in res.witness.parts) == [[0], [1, 2, 3]]


def test_mms_budget_refusal():
    v = random_valuation("additive", 12, seed=0)
    with pytest.raises(BudgetExceeded):
        mms_value(v, ItemSet.full(12), 5, max_states=10_000)


def test_mms_monotone_in_parts():
    rng = random.Random(3)
    for trial in range(25):
        m = rng.randint(3, 8)
        v = random_valuation(
            ("additive", "xos", "coverage")[trial % 3], m, seed=trial
        )
        ground = ItemSet.full(m)
        values = [mms_value(v, ground, d).value for d in range(1, 5)]
        assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))
        assert all(x <= v.value(ground) for x in values)


def test_mms_agrees_with_rgs_engine():
    rng = random.Random(11)
    for trial in range(30):
        m = rng.randint(2, 8)
        v = random_valuation(
            ("additive", "xos", "budget-additive", "coverage")[trial % 4], m, seed=trial
        )
        d = rng.randint(1, 4)
        a = mms_value(v, ItemSet.full(m), d)
        b = mms_value_rgs(v, ItemSet.full(m), d)
        assert a.value == b.value
        assert min(v.value(p) for p in a.witness) == a.value
        assert min(v.value(p) for p in b.witness) == b.value


def test_mms_on_subset_ground():
    v = AdditiveValuation([5, 1, 1, 1, 7])
    ground = ItemSet.of(5, [1, 2, 3])
    assert mms_value(v, ground, 3).value == 1


def test_verify_alpha_mms_P_examples():
    v = AdditiveValuation([2, 2])
    inst = Instance(2, (v,))
    p = Partition.of(2, [0], [1])
    ok = verify_alpha_mms_P(Allocation.of(2, [0]), inst, [1], [p])
    assert ok.ok and ok.margins == (0,)
    # zero thresholds accept anything
    inst2 = Instance(2, (v, v))
    res = verify_alpha_mms_P(
        Allocation.of(2, [], []), inst2, [0, 0], [p, p]
    )
    assert res.ok
    with pytest.raises(ValueError):
        verify_alpha_mms_P(Allocation.of(2, [0], [0]), inst2, [0, 0], [p, p])


def test_verify_alpha_mms_d():
    inst = instance_submodular_6()
    good = Allocation.of(6, [0, 1], [2, 3], [4, 5])
    res = verify_alpha_mms_d(good, inst, uniform(Fraction(2, 3), 3), (3, 3, 3))
    assert res.ok
    res = verify_alpha_mms_d(
        good, inst, uniform(Fraction(2, 3) + Fraction(1, 100), 3), (3, 3, 3)
    )
    assert not res.ok and res.first_violation() == 2
    empty = Allocation.of(6, [], [], [])
    assert not verify_alpha_mms_d(empty, inst, uniform(Fraction(1, 2), 3), (3, 3, 3)).ok


def test_searches_free_their_memos_without_the_garbage_collector():
    # a recursive closure that is not deleted keeps its search memo in a cycle
    v = random_valuation("additive", 8, seed=3)
    inst = Instance(7, tuple(random_valuation("xos", 7, seed=s) for s in (1, 2, 3)))
    gc.collect()
    gc.disable()
    try:
        mms_value(v, ItemSet.full(8), 3)
        assert gc.collect() == 0
        mms_value_rgs(v, ItemSet.full(8), 3)
        assert gc.collect() == 0
        best_alpha(inst, (2, 2, 2))  # computes each mu with mms_value
        assert gc.collect() == 0
    finally:
        gc.enable()
