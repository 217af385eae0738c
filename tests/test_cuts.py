import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmslab.core import ItemSet, Partition, SubadditivityViolation
from mmslab.cuts import desired_half, max_desired_half, minimum_guaranteed
from mmslab.valuations import AdditiveValuation, ValuationOracle, random_valuation

from helpers import random_partition


def test_desired_half_full_cut_keeps_everything():
    v = random_valuation("xos", 6, seed=1)
    p = Partition.of(6, [0, 1], [2, 3], [4, 5])
    sat = desired_half(v, p, ItemSet.full(6))
    assert [j for j, _ in sat] == [0, 1, 2]
    assert all(piece == p[j] for j, piece in sat)


def test_desired_half_empty_cut():
    v = AdditiveValuation([1] * 4)
    p = Partition.of(4, [0, 1], [2, 3])
    assert desired_half(v, p, ItemSet.empty(4)) == []
    res = max_desired_half(v, p, ItemSet.empty(4))
    assert res.side == "complement" and len(res) == 2


def test_desired_half_unit_weights():
    v = AdditiveValuation([1, 1, 1, 1])
    p = Partition.of(4, [0, 1], [2, 3])
    sat = desired_half(v, p, ItemSet.of(4, [0, 2]))
    assert [(j, sorted(piece)) for j, piece in sat] == [(0, [0]), (1, [2])]


def test_complement_side_wins_two_to_one():
    # three parts: the third is valuable inside the cut, the first two outside
    v = AdditiveValuation([1, 0, 1, 0, 0, 1])
    p = Partition.of(6, [0, 1], [2, 3], [4, 5])
    cut = ItemSet.of(6, [1, 3, 5])
    res = max_desired_half(v, p, cut)
    assert res.side == "complement"
    assert [(j, sorted(piece)) for j, piece in res.satisfied] == [(0, [0]), (1, [2])]
    assert res.cut_count == 1 and res.complement_count == 2


def test_tie_breaks_toward_cut_side():
    v = AdditiveValuation([1, 1])
    p = Partition.of(2, [0], [1])
    res = max_desired_half(v, p, ItemSet.of(2, [0]))
    assert res.side == "cut"
    assert res.cut_count == res.complement_count == 1


def test_non_subadditive_part_raises_its_witness():
    # worth 1 on {0, 1} and on its supersets, 1/10 on every other nonempty set
    v = ValuationOracle(
        4, lambda s: Fraction(1) if s.mask & 3 == 3 else Fraction(1, 10) * bool(s.mask)
    )
    p = Partition.of(4, [0, 1], [2, 3])
    with pytest.raises(SubadditivityViolation) as err:
        max_desired_half(v, p, ItemSet.of(4, [0, 2]), "test cut")
    witness = err.value.witness
    assert witness.holds(v.value)
    assert (sorted(witness.a), sorted(witness.b)) == ([0], [1])
    assert "test cut" in str(err.value)


def test_accepts_disjoint_parts_that_do_not_cover():
    v = AdditiveValuation([1, 2, 3, 4, 5, 6])
    parts = [ItemSet.of(6, [0, 5]), ItemSet.of(6, [2, 3])]  # items 1 and 4 left out
    res = max_desired_half(v, parts, ItemSet.of(6, [3, 5]))
    assert res.side == "cut"
    assert [(j, sorted(piece)) for j, piece in res.satisfied] == [(0, [5]), (1, [3])]
    assert res.complement_count == 0


def test_one_part_returns_the_inside_piece_when_both_sides_reach_half():
    v = AdditiveValuation([1, 1, 1, 1])
    part = ItemSet.of(4, [0, 1, 2, 3])
    res = max_desired_half(v, [part], ItemSet.of(4, [1, 3]))
    assert res.side == "cut" and res.cut_count == res.complement_count == 1
    assert [(j, sorted(piece)) for j, piece in res.satisfied] == [(0, [1, 3])]
    res = max_desired_half(v, [part], ItemSet.of(4, [1]))
    assert res.side == "complement" and res.pieces() == (ItemSet.of(4, [0, 2, 3]),)


def test_minimum_guaranteed():
    assert [minimum_guaranteed(r) for r in (1, 2, 3, 4, 5)] == [1, 1, 2, 2, 3]


@given(st.integers(min_value=0, max_value=10**6))
def test_richer_side_has_half_the_parts(seed):
    rng = random.Random(seed)
    m = rng.randint(2, 10)
    r = rng.randint(1, min(4, m))
    cls = ("additive", "xos", "budget-additive", "coverage")[seed % 4]
    v = random_valuation(cls, m, seed=seed)
    p = random_partition(m, r, rng)
    cut = ItemSet(rng.getrandbits(m), m)
    res = max_desired_half(v, p, cut)
    assert len(res) >= minimum_guaranteed(r)
    # side coherence and disjointness
    reference = cut if res.side == "cut" else cut.complement()
    seen = ItemSet.empty(m)
    for j, piece in res.satisfied:
        assert piece.issubset(reference & p[j])
        assert piece.isdisjoint(seen)
        seen = seen | piece
        assert 2 * v.value(piece) >= v.value(p[j])
