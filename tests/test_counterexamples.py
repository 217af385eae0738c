from fractions import Fraction

import pytest

from mmslab.core import Instance, ItemSet, Partition, uniform
from mmslab.counterexamples import (
    CATALOGUE,
    GRID_EPS,
    counterexample_suite,
    grid_bstar_family,
    grid_claim_holds,
    grid_slice,
    half_cap_blocks,
    has_blocking_subset,
    instance_27,
    instance_421,
    instance_floor_n3,
    instance_half_cap,
    instance_n_minus_1,
    instance_submodular_6,
    structured_check_27,
)
from mmslab.mms import min_value, mms_value
from mmslab.oracle import best_alpha, exists_alpha_mms
from mmslab.valuations import (
    is_monotone,
    is_subadditive,
    is_submodular,
    third_transform,
)


def test_half_cap_structure():
    inst = instance_half_cap((2, 3))
    assert inst.m == 6
    blocks = half_cap_blocks((2, 3))
    for v, bs in zip(inst.agents, blocks):
        parts = Partition(tuple(ItemSet(b, 6) for b in bs), inst.ground())
        assert min_value(v, parts) == 1
    # single item: both agents see 1/2
    single = ItemSet.of(6, [0])
    assert inst.agents[0].value(single) == Fraction(1, 2)


def test_half_cap_blocks_intersect_across_agents():
    blocks = half_cap_blocks((2, 2, 2))
    m = 8
    for i, bs1 in enumerate(blocks):
        for j, bs2 in enumerate(blocks):
            if i == j:
                continue
            for b1 in bs1:
                for b2 in bs2:
                    assert b1 & b2, "blocks of different agents must share an item"


def test_half_cap_degenerate_single_item():
    inst = instance_half_cap((1, 1))
    assert inst.m == 1
    for v in inst.agents:
        assert v.value(ItemSet.full(1)) == 1


def test_half_cap_best_alpha_is_half():
    r = best_alpha(instance_half_cap((2, 2, 2)), (2, 2, 2))
    assert r.value == Fraction(1, 2)
    assert r.visited == 3**8


def test_half_cap_size_cap():
    with pytest.raises(ValueError):
        instance_half_cap((2,) * 25)


def test_n_minus_1():
    inst = instance_n_minus_1(3)
    assert inst.m == 2 and inst.n == 3
    r = best_alpha(inst, (2, 2, 2))
    assert r.value == 0
    r4 = best_alpha(instance_n_minus_1(4), (3, 3, 3, 3))
    assert r4.value == 0
    two = instance_n_minus_1(2)
    r2 = exists_alpha_mms(two, [1, 0], (1, 1))
    assert r2.exists


def test_421_values_and_mu():
    inst = instance_421()
    v1, v2, v3 = inst.agents
    assert v1.value(ItemSet.of(4, [2])) == 1
    assert v2.value(ItemSet.of(4, [0, 3])) == 1
    assert v2.value(ItemSet.of(4, [1, 2])) == Fraction(2, 3)
    assert v3.value(inst.ground()) == 1
    mus = [mms_value(v, inst.ground(), d).value for v, d in zip(inst.agents, (4, 2, 1))]
    assert mus == [1, 1, 1]
    assert all(is_subadditive(v).ok and is_monotone(v).ok for v in inst.agents)


def test_421_no_uniform_half():
    inst = instance_421()
    assert exists_alpha_mms(inst, uniform(Fraction(1, 2), 3), (4, 2, 1)).status == "not_exists"


def test_421_third_transform_pipeline():
    inst = instance_421()
    rounded = Instance(4, tuple(third_transform(v) for v in inst.agents))
    assert all(is_subadditive(v).ok for v in rounded.agents)
    over = uniform(Fraction(1, 3) + Fraction(1, 100), 3)
    assert exists_alpha_mms(rounded, over, (4, 2, 1)).status == "not_exists"
    assert exists_alpha_mms(rounded, uniform(Fraction(1, 3), 3), (4, 2, 1)).exists


def test_floor_n3_values():
    inst = instance_floor_n3(3)
    v = inst.agents[2]
    assert v.value(ItemSet.of(3, [0, 1, 2])) == 1
    assert v.value(ItemSet.of(3, [0])) == Fraction(1, 3)
    inst6 = instance_floor_n3(6)
    v6 = inst6.agents[-1]
    assert v6.value(ItemSet.of(6, [0, 1, 2])) == 1
    assert v6.value(ItemSet.of(6, [3, 4, 5])) == 1
    assert v6.value(ItemSet.of(6, [0, 1, 3])) == Fraction(2, 3)


def test_floor_n3_nonexistence():
    for n in (3, 6):
        inst = instance_floor_n3(n)
        alpha = [Fraction(1, 100)] * (n - 1) + [Fraction(1, 2)]
        d = [n] * (n - 1) + [n // 3]
        assert exists_alpha_mms(inst, alpha, d).status == "not_exists"


def test_grid_slices_and_bstar():
    for axis in range(3):
        slices = [grid_slice(axis, i) for i in range(3)]
        assert all(len(s) == 9 for s in slices)
        assert (slices[0] | slices[1] | slices[2]) == ItemSet.full(27)
        for idx in range(3):
            family = grid_bstar_family(axis, idx)
            assert len(family) == 18
            assert all(len(b) == 4 and b.issubset(slices[idx]) for b in family)


def test_grid_claim():
    assert grid_claim_holds()


def test_grid_valuations_structured_checks():
    inst = instance_27()
    for v in inst.agents:
        assert is_monotone(v).ok
        sub = is_subadditive(v)
        assert sub.ok and sub.mode == "structured" and sub.checked == 3 * 4**9
        # every slice is worth exactly 1, everything tops out at 1
        for bundle in v.bundles:
            assert v.value(bundle) == 1
        assert v.value(ItemSet.full(27)) == 1


def test_grid_bstar_values():
    inst = instance_27()
    v = inst.agents[0]
    high = Fraction(1, 2) + GRID_EPS
    for b in grid_bstar_family(0, 0)[:4]:
        assert v.value(b) == high
    own = grid_slice(0, 0)
    b = grid_bstar_family(0, 0)[0]
    five = own - ItemSet.of(27, [next(iter(b))])
    assert v.value(five) == 1 - v.value(own - five)


def test_grid_eps_range_enforced():
    with pytest.raises(ValueError):
        instance_27(Fraction(1, 5))


def test_structured_check_nonexistence():
    res = structured_check_27()
    assert res.claim_ok and res.value_one_ok
    assert res.nonexistence
    assert [p.branches for p in res.placements] == [576, 576, 576]
    assert [p.full_agent for p in res.placements] == [0, 1, 2]


def test_structured_check_flips_at_zero_eps():
    res = structured_check_27(Fraction(0))
    assert all(p.exists for p in res.placements)
    w = res.placements[0].witness
    inst = instance_27(Fraction(0))
    assert inst.agents[0].value(w[0]) >= 1
    assert inst.agents[1].value(w[1]) >= Fraction(1, 2)
    assert inst.agents[2].value(w[2]) >= Fraction(1, 2)


def test_submodular6_pair_tables_match_figure():
    # double-entry bookkeeping: the generated tables against the displayed
    # pair values (g_i G_j rows for each agent, then g_i g_j / G_i G_j rows)
    inst = instance_submodular_6()
    g = [0, 2, 4]  # small items
    G = [1, 3, 5]  # large items
    expected_rows = {
        0: {(0, 0): 1, (0, 1): Fraction(2, 3), (0, 2): Fraction(2, 3),
            (1, 1): 1, (1, 2): Fraction(2, 3), (1, 0): Fraction(2, 3),
            (2, 2): 1, (2, 0): Fraction(2, 3), (2, 1): Fraction(2, 3)},
        2: {(0, 0): Fraction(2, 3), (0, 1): Fraction(2, 3), (0, 2): 1,
            (1, 1): Fraction(2, 3), (1, 2): Fraction(2, 3), (1, 0): 1,
            (2, 2): Fraction(2, 3), (2, 0): Fraction(2, 3), (2, 1): 1},
    }
    for agent in (0, 1, 2):
        v = inst.agents[agent]
        rows = expected_rows[0 if agent < 2 else 2]
        for (i, j), want in rows.items():
            assert v.value(ItemSet.of(6, [g[i], G[j]])) == want
        for i in range(3):
            for j in range(i + 1, 3):
                assert v.value(ItemSet.of(6, [g[i], g[j]])) == Fraction(2, 3)
                assert v.value(ItemSet.of(6, [G[i], G[j]])) == 1


def test_submodular6_reported_values():
    inst = instance_submodular_6()
    v12, _, v3 = inst.agents
    assert v12.value(ItemSet.of(6, [0, 1])) == 1        # matched pair
    assert v3.value(ItemSet.of(6, [0, 1])) == Fraction(2, 3)
    assert v3.value(ItemSet.of(6, [2, 1])) == 1          # shifted pair
    for v in inst.agents:
        assert v.value(ItemSet.of(6, [0, 2, 4])) == 1    # all three smalls


def test_submodular6_class_and_bounds():
    inst = instance_submodular_6()
    for v in inst.agents:
        assert is_monotone(v).ok
        res = is_submodular(v)
        assert res.ok and res.checked == 1458
    assert all(mms_value(v, inst.ground(), 3).value == 1 for v in inst.agents)
    r = best_alpha(inst, (3, 3, 3))
    assert r.value == Fraction(2, 3)
    assert exists_alpha_mms(inst, uniform(Fraction(2, 3), 3), (3, 3, 3)).exists


def test_has_blocking_subset_examples():
    assert has_blocking_subset((5, 1, 1)) == (1, 2)
    assert has_blocking_subset((3, 2, 2)) is None
    assert has_blocking_subset((2, 2, 2)) == (0, 1, 2)
    assert has_blocking_subset((1, 5, 1, 5)) == (0, 2)
    assert has_blocking_subset((3, 3, 3, 3, 3)) == (0, 1, 2, 3, 4)


def test_counterexample_suite_all_pass():
    rows = counterexample_suite()
    assert len(rows) == 8
    assert all(ok for _, ok, _ in rows), rows
    # one row per catalogue claim, plus the 1/3-rounding of 421
    assert len(rows) == 1 + sum(len(family.claims) for family in CATALOGUE.values())


@pytest.mark.parametrize("build", [instance_n_minus_1, instance_floor_n3])
def test_oversized_families_are_refused_before_any_agent_is_built(build):
    with pytest.raises(ValueError, match="agents"):
        build(10**12)
