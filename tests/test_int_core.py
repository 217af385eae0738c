"""The integer-valued search core against plain enumerations written here.

`mms_value`, and the `prune=True` paths of `exists_alpha_mms` and
`best_alpha`, run on each oracle's integer view.  These tests hold them to
plain `Fraction` enumerations over `itertools.product`, on oracles whose
values are not integers: unequal denominators, tables, bundle maxima, the
thirds rounding, generic callables and the counterexample builtins.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from mmslab.core import Instance, ItemSet
from mmslab.counterexamples import (
    instance_421,
    instance_floor_n3,
    instance_half_cap,
    instance_n_minus_1,
    instance_submodular_6,
)
from mmslab.mms import mms_value, mms_value_rgs
from mmslab.oracle import best_alpha, exists_alpha_mms
from mmslab.valuations import (
    AdditiveValuation,
    BudgetAdditiveValuation,
    BundleMaxValuation,
    CoverageValuation,
    TableValuation,
    ValuationOracle,
    XOSValuation,
    third_transform,
)

DENOMS = (1, 3, 7, 6, 2, 5)


def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 9), rng.choice(DENOMS))


def oracle_zoo(m: int, seed: int) -> list[ValuationOracle]:
    """One oracle per class, with fractional values wherever the class allows."""
    rng = random.Random(f"zoo:{m}:{seed}")
    weights = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 6)] + [_frac(rng) for _ in range(m)]
    weights = weights[:m]
    additive = AdditiveValuation(weights)
    xos = XOSValuation([[_frac(rng) for _ in range(m)] for _ in range(3)])
    half = m // 2
    bundles = [list(range(half)), list(range(half, m))]
    inner = [XOSValuation([[_frac(rng) for _ in b] for _ in range(2)]) for b in bundles]
    zoo = [
        additive,
        xos,
        BudgetAdditiveValuation(weights, sum(weights) * Fraction(2, 5)),
        CoverageValuation(m, [rng.getrandbits(m + 2) for _ in range(m)]),
        TableValuation(m, xos.dense_table()),
        BundleMaxValuation(m, bundles, [t.dense_table() for t in inner]),
        third_transform(AdditiveValuation([w / 2 for w in weights])),
        ValuationOracle(m, fn=lambda s: additive.value(s) * Fraction(3, 11)),
    ]
    return [v for v in zoo if v.m == m]


def builtin_oracles() -> list[ValuationOracle]:
    insts = (
        instance_421(),
        instance_submodular_6(),
        instance_half_cap((2, 2, 2)),
        instance_floor_n3(6),
        instance_n_minus_1(4),
    )
    # distinct oracles only (equal oracles compare equal and hash alike)
    return list(dict.fromkeys(v for inst in insts for v in inst.agents))


def own_mms(v: ValuationOracle, ground: ItemSet, d: int):
    """Lexicographically first optimal assignment over all d^m assignments."""
    items = ground.items()
    best, best_masks = None, None
    for assignment in product(range(d), repeat=len(items)):
        masks = [0] * d
        for g, j in zip(items, assignment):
            masks[j] |= 1 << g
        value = min(v.value_mask(mask) for mask in masks)
        if best is None or value > best:
            best, best_masks = value, masks
    return best, best_masks


def assert_mms_matches(v: ValuationOracle, ground: ItemSet, d: int) -> None:
    got = mms_value(v, ground, d)
    assert got.value == mms_value_rgs(v, ground, d).value
    value, masks = own_mms(v, ground, d)
    assert got.value == value
    assert [part.mask for part in got.witness.parts] == masks


@pytest.mark.parametrize("m", [3, 5, 6])
def test_mms_value_matches_references_on_every_class(m):
    ground = ItemSet.full(m)
    for seed in range(2):
        for v in oracle_zoo(m, seed):
            for d in (2, 3):
                assert_mms_matches(v, ground, d)


def test_mms_value_matches_references_on_a_subset_ground():
    for v in oracle_zoo(6, 7):
        assert_mms_matches(v, ItemSet.of(6, [0, 2, 3, 5]), 2)


def test_mms_value_matches_references_on_builtins():
    for v in builtin_oracles():
        ground = ItemSet.full(v.m)
        for d in (2, 3):
            if d ** v.m > 20_000:
                continue
            assert_mms_matches(v, ground, d)


def test_fractional_weights_scale_to_one_denominator():
    v = AdditiveValuation([Fraction(1, 3), Fraction(2, 7), Fraction(5, 6)])
    view = v.int_view()
    assert view.integral and view.denom == 42
    assert view.value(0b101) == 14 + 35
    assert view.at_least(Fraction(49, 42)) == 49  # exact: no rounding
    assert view.at_least(Fraction(1, 43)) == 1  # rounded up
    assert v.int_view() is view  # built once, on first use
    assert ValuationOracle(3, fn=lambda s: Fraction(len(s), 2)).int_view().integral is False


# --- allocation searches -------------------------------------------------------


def own_mu(inst: Instance, d) -> list[Fraction]:
    return [own_mms(v, inst.ground(), d_i)[0] for v, d_i in zip(inst.agents, d)]


def own_leaves(inst: Instance):
    """(assignment masks) for every assignment of items to agents, in order."""
    for assignment in product(range(inst.n), repeat=inst.m):
        masks = [0] * inst.n
        for g, a in enumerate(assignment):
            masks[a] |= 1 << g
        yield masks


def own_exists(inst: Instance, thresholds):
    """(status, witness masks, visited) of a plain lexicographic search."""
    visited = 1
    if all(t <= 0 for t in thresholds):
        return "exists", [0] * inst.n, visited
    for masks in own_leaves(inst):
        visited += 1
        if all(v.value_mask(x) >= t for v, x, t in zip(inst.agents, masks, thresholds)):
            return "exists", masks, visited
    return "not_exists", None, visited


def own_best(inst: Instance, mu):
    """(value, witness masks, visited): first strictly best worst ratio."""
    active = [i for i in range(inst.n) if mu[i] != 0]
    best, best_masks, visited = None, None, 0
    for masks in own_leaves(inst):
        visited += 1
        ratio = min(inst.agents[i].value_mask(masks[i]) / mu[i] for i in active)
        if best is None or ratio > best:
            best, best_masks = ratio, masks
    return best, best_masks, visited


def assert_searches_match(inst: Instance, d, rng: random.Random) -> None:
    mu = own_mu(inst, d)
    best = best_alpha(inst, d)
    assert best.status == "ok" and list(best.mu) == mu
    if any(mu):
        value, masks, visited = own_best(inst, mu)
        assert (best.value, best.visited) == (value, visited)
        assert [b.mask for b in best.witness] == masks
    # thresholds that land exactly on attainable values, then just above
    alphas = []
    if best.value is not None and best.value <= 1:
        alphas.append([best.value] * inst.n)
    for _ in range(3):
        alpha = []
        for v, u in zip(inst.agents, mu):
            x = v.value_mask(rng.getrandbits(inst.m))
            alpha.append(min(Fraction(1), x / u) if u else Fraction(0))
        alphas.append(alpha)
        alphas.append([min(Fraction(1), a + Fraction(1, 1000)) for a in alpha])
    for alpha in alphas:
        got = exists_alpha_mms(inst, alpha, d)
        status, masks, visited = own_exists(inst, [a * u for a, u in zip(alpha, mu)])
        assert (got.status, got.visited) == (status, visited)
        assert got.space == inst.n**inst.m
        assert (got.witness and [b.mask for b in got.witness]) == masks


def test_allocation_walk_matches_plain_enumeration():
    rng = random.Random(2)
    for trial in range(12):
        m = rng.randint(3, 6)
        zoo = oracle_zoo(m, trial)
        n = rng.choice((2, 3))
        inst = Instance(m, tuple(rng.choice(zoo) for _ in range(n)))
        d = tuple(rng.randint(1, 3) for _ in range(n))
        assert_searches_match(inst, d, rng)


@pytest.mark.parametrize(
    "inst, d",
    [
        (instance_421(), (4, 2, 1)),
        (instance_submodular_6(), (3, 3, 3)),
        (instance_half_cap((2, 2, 2)), (2, 2, 2)),
    ],
)
def test_allocation_walk_matches_plain_enumeration_on_builtins(inst, d):
    assert_searches_match(inst, d, random.Random(3))


def test_allocation_walk_with_a_zero_mu_agent():
    # an agent with mu = 0 never binds the worst ratio
    v = AdditiveValuation([Fraction(1, 3), Fraction(2, 7), Fraction(5, 6), 1])
    inst = Instance(4, (v, AdditiveValuation([1, 0, 0, 0]), v))
    assert_searches_match(inst, (2, 2, 2), random.Random(4))
