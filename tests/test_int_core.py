"""The integer-valued search core against plain enumerations written here.

`mms_value`, and the `prune=True` paths of `exists_alpha_mms` and
`best_alpha`, run on each oracle's integer view.  These tests hold them to
plain `Fraction` enumerations over `itertools.product`, on oracles whose
values are not integers: unequal denominators, tables, bundle maxima, the
thirds rounding, generic callables and the counterexample builtins.  The
class checkers run on integer tables; they are held to `Fraction` scans
written here, failures and witnesses included.
"""

import hashlib
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from mmslab.core import Instance, ItemSet, SubadditivityWitness
from mmslab.counterexamples import (
    _grid_inner_table,
    instance_27,
    instance_421,
    instance_floor_n3,
    instance_half_cap,
    instance_n_minus_1,
    instance_submodular_6,
)
from mmslab.mms import mms_value, mms_value_rgs
from mmslab.oracle import SearchBudget, best_alpha, exists_alpha_mms
from mmslab.valuations import (
    RANDOM_CLASSES,
    AdditiveValuation,
    BudgetAdditiveValuation,
    BundleMaxValuation,
    CheckResult,
    CoverageValuation,
    MonotonicityWitness,
    SubmodularityWitness,
    TableValuation,
    ValuationOracle,
    XOSValuation,
    _dense_ints,
    _locally_submodular,
    is_monotone,
    is_subadditive,
    is_submodular,
    random_valuation,
    third_transform,
)

from helpers import reference_value

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
        TableValuation(m, [xos.value_mask(x) for x in range(1 << m)]),
        BundleMaxValuation(m, bundles, [[t.value_mask(x) for x in range(1 << t.m)]
                                         for t in inner]),
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
    mus = {}  # equal oracles (and the same oracle) share one enumeration
    for v, d_i in zip(inst.agents, d):
        if (v, d_i) not in mus:
            mus[v, d_i] = own_mms(v, inst.ground(), d_i)[0]
    return [mus[v, d_i] for v, d_i in zip(inst.agents, d)]


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


def assert_searches_match(inst: Instance, d, rng: random.Random, alphas=()) -> None:
    mu = own_mu(inst, d)
    best = best_alpha(inst, d)
    assert best.status == "ok" and list(best.mu) == mu
    if any(mu):
        value, masks, visited = own_best(inst, mu)
        assert (best.value, best.visited) == (value, visited)
        assert [b.mask for b in best.witness] == masks
    # the given thresholds, thresholds that land exactly on attainable
    # values, then just above
    alphas = list(alphas)
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


# thresholds tried besides the drawn ones; at these the not-exists walk on
# floor_n3(6) skips nearly every subtree
GIVEN_ALPHAS = {"floor_n3(6)": [(Fraction(1, 100),) * 5 + (Fraction(1, 2),)]}


@pytest.mark.parametrize(
    "inst, d",
    [
        (instance_421(), (4, 2, 1)),
        (instance_submodular_6(), (3, 3, 3)),
        (instance_half_cap((2, 2, 2)), (2, 2, 2)),
        (instance_floor_n3(6), (6,) * 5 + (2,)),
        (instance_n_minus_1(4), (3, 3, 3, 3)),
    ],
)
def test_allocation_walk_matches_plain_enumeration_on_builtins(inst, d):
    assert_searches_match(inst, d, random.Random(3), GIVEN_ALPHAS.get(inst.label, ()))


def test_pruned_walk_counts_skipped_leaves_but_not_their_nodes():
    inst = instance_floor_n3(6)
    alpha = [Fraction(1, 100)] * 5 + [Fraction(1, 2)]
    r = exists_alpha_mms(inst, alpha, [6] * 5 + [2])
    assert r.status == "not_exists" and r.visited == r.space + 1 == 6**6 + 1
    assert 0 < r.nodes < r.space // 10
    plain = exists_alpha_mms(inst, alpha, [6] * 5 + [2], prune=False)
    assert plain.status == "not_exists" and plain.nodes == 0
    best = best_alpha(instance_half_cap((2, 2, 2)), (2, 2, 2))
    assert best.visited == 3**8 and 0 < best.nodes < best.visited


def test_mu_is_remembered_but_a_smaller_budget_still_refuses():
    inst = instance_floor_n3(6)
    d = [6] * 5 + [2]
    assert best_alpha(inst, d).status == "ok"
    small = SearchBudget(mms_states=6**6 - 1)
    assert best_alpha(inst, d, budget=small).status == "refused"
    assert exists_alpha_mms(inst, [0] * 6, d, budget=small).status == "refused"


def test_allocation_walk_with_a_zero_mu_agent():
    # an agent with mu = 0 never binds the worst ratio
    v = AdditiveValuation([Fraction(1, 3), Fraction(2, 7), Fraction(5, 6), 1])
    inst = Instance(4, (v, AdditiveValuation([1, 0, 0, 0]), v))
    assert_searches_match(inst, (2, 2, 2), random.Random(4))


def test_equal_oracles_with_unequal_scores_are_not_interchangeable():
    H = Fraction(1, 2)
    v = XOSValuation([[1, 2, 0, 3, 1], [2, 0, 2, 1, 1]])
    w = XOSValuation([[1, 2, 0, 3, 1], [2, 0, 2, 1, 1]])
    assert w == v and w is not v
    cases = [
        # one oracle object at two demands: two mu, so two score functions
        (Instance(5, (v, AdditiveValuation([1, 1, 2, 0, 1]), v)), (2, 2, 3), []),
        # two separate but equal oracles at unequal thresholds
        (Instance(5, (v, w, v)), (2, 2, 2), [(H, 1, H), (1, H, H), (1, 0, 1)]),
    ]
    assert len(set(own_mu(*cases[0][:2]))) == 3
    for seed, (inst, d, alphas) in enumerate(cases):
        assert_searches_match(inst, d, random.Random(seed), alphas)
        a, b = best_alpha(inst, d), best_alpha(inst, d, prune=False)
        assert (a.value, a.witness) == (b.value, b.witness)
        for alpha in alphas:
            a, b = exists_alpha_mms(inst, alpha, d), exists_alpha_mms(inst, alpha, d, prune=False)
            assert (a.status, a.witness) == (b.status, b.witness)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_floor_n3_claim_is_refused_in_few_nodes(n):
    inst = instance_floor_n3(n)
    alpha = [Fraction(1, 100)] * (n - 1) + [Fraction(1, 2)]
    start = time.perf_counter()
    r = exists_alpha_mms(inst, alpha, [n] * (n - 1) + [n // 3],
                         budget=SearchBudget(max_assignments=10**9))
    seconds = time.perf_counter() - start
    assert r.status == "not_exists" and r.visited == r.space + 1 == n**n + 1
    assert r.nodes < 1000
    assert n < 9 or seconds < 0.5


def _masks(allocation):
    return None if allocation is None else [b.mask for b in allocation]


def _corpus_instance(rng: random.Random) -> tuple[Instance, tuple[int, ...]]:
    """2-4 agents drawn from two kinds of oracle, each kind as two separate but
    equal objects, so agents repeat, as one object or as equal ones."""
    m = rng.randint(3, 6)
    n = rng.randint(2, 4 if m <= 5 else 3)
    seed = rng.randint(0, 3)
    twins = (oracle_zoo(m, seed), oracle_zoo(m, seed))
    kinds = rng.sample(range(len(twins[0])), 2)
    agents = tuple(rng.choice(twins)[rng.choice(kinds)] for _ in range(n))
    if rng.random() < 0.5:
        d = (rng.randint(1, 3),) * n
    else:
        d = tuple(rng.randint(1, 3) for _ in range(n))
    return Instance(m, agents), d


# SHA-256 of the corpus's answers as given by the two searches that `mms.search`
# replaced: `mms_value`'s restricted-growth walk and the allocation walk
SEARCH_CORPUS_SHA256 = "2745d7623a563edd63303fb831ab753b27a216eafa7a46649492f9025976e3fb"


def test_search_corpus_keeps_its_answers():
    digest = hashlib.sha256()
    rng = random.Random("search-corpus")
    for _ in range(520):
        m = rng.randint(3, 7)
        v = rng.choice(oracle_zoo(m, rng.randint(0, 3)))
        if rng.random() < 0.3:
            ground = ItemSet(rng.getrandbits(m), m)
        else:
            ground = ItemSet.full(m)
        r = mms_value(v, ground, rng.randint(1, 4))
        digest.update(repr((r.value, _masks(r.witness.parts))).encode())
    for _ in range(520):
        inst, d = _corpus_instance(rng)
        r = best_alpha(inst, d)
        digest.update(repr((r.status, r.value, _masks(r.witness), r.visited, r.space,
                            r.mu, r.reason)).encode())
    for _ in range(520):
        inst, d = _corpus_instance(rng)
        steps = (0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), 1)
        if rng.random() < 0.5:
            alpha = (rng.choice(steps),) * inst.n
        else:
            alpha = tuple(rng.choice(steps) for _ in range(inst.n))
        r = exists_alpha_mms(inst, alpha, d)
        digest.update(repr((r.status, _masks(r.witness), r.visited, r.space, r.pruned,
                            r.mu, r.reason)).encode())
    assert digest.hexdigest() == SEARCH_CORPUS_SHA256


# --- integer views and class checkers ---------------------------------------------


def every_oracle() -> list[ValuationOracle]:
    zoo = [v for m in (3, 5, 6) for seed in range(2) for v in oracle_zoo(m, seed)]
    return zoo + builtin_oracles()


def test_int_view_is_value_mask_times_denominator_on_every_mask():
    for v in every_oracle():
        view = v.int_view()
        assert all(view.value(x) == v.value_mask(x) * view.denom for x in range(1 << v.m))
    rng = random.Random(6)
    for v in instance_27().agents:  # 2^27 masks: a seeded sample
        view = v.int_view()
        for _ in range(2000):
            x = rng.getrandbits(27)
            assert view.value(x) == v.value_mask(x) * view.denom


def test_checker_tables_are_the_view_on_every_mask():
    # the random families build theirs by subset doubling, the rest map the view
    seeded = [random_valuation(cls, m, seed) for cls in RANDOM_CLASSES
              for m in range(1, 11) for seed in range(2)]
    seeded += [random_valuation("xos", m, 0, clauses=1) for m in (1, 4)]
    for v in every_oracle() + seeded:
        view = v.int_view()
        table = v._int_table()
        assert table == [view.value(x) for x in range(1 << v.m)]
        assert table == [reference_value(v, x) * view.denom for x in range(1 << v.m)]


def test_value_mask_is_each_familys_fraction_formula():
    oracles = every_oracle()
    assert {type(v).__name__ for v in oracles} >= {
        "AdditiveValuation", "XOSValuation", "BudgetAdditiveValuation",
        "CoverageValuation", "TableValuation", "BundleMaxValuation",
        "ThirdRoundedValuation", "OnesValuation", "HalfCapValuation",
        "MaxBlockThirdsValuation", "ValuationOracle",
    }
    for v in oracles:
        assert all(v.value_mask(x) == reference_value(v, x) for x in range(1 << v.m))
    rng = random.Random(6)
    for v in instance_27().agents:  # the same seeded sample as above
        for _ in range(2000):
            x = rng.getrandbits(27)
            assert v.value_mask(x) == reference_value(v, x)


def test_grid_slices_share_one_inner_table():
    inst = instance_27()
    for axis, v in enumerate(inst.agents):
        for idx, table in enumerate(v.inner_tables):
            assert table == _grid_inner_table(axis, idx, Fraction(1, 12))
            assert table is inst.agents[0].inner_tables[0]


def _on_bundle(positions, local: int, m: int) -> ItemSet:
    return ItemSet.of(m, (positions[j] for j in ItemSet(local, len(positions))))


def own_monotone(v: ValuationOracle) -> CheckResult:
    """Covering pairs in mask-then-item order, on `Fraction` values."""
    m = v.m
    if m <= 16:
        tables = [(tuple(range(m)), [v.value_mask(x) for x in range(1 << m)])]
        mode = "exhaustive"
    else:
        tables, mode = list(zip(v.positions, v.inner_tables)), "structured"
    checked = 0
    for positions, table in tables:
        r = len(positions)
        checked += (1 << r) * r
        for x in range(1 << r):
            for g in range(r):
                up = x | (1 << g)
                if up != x and table[x] > table[up]:
                    witness = MonotonicityWitness(
                        _on_bundle(positions, x, m), _on_bundle(positions, up, m),
                        table[x], table[up],
                    )
                    return CheckResult(False, mode, checked, witness)
    return CheckResult(True, mode, checked)


def own_subadditive(v: ValuationOracle) -> CheckResult:
    """Every pair s <= t of nonempty masks, in order, on `Fraction` values."""
    m = v.m
    if m <= 13:
        tables = [(tuple(range(m)), [v.value_mask(x) for x in range(1 << m)])]
        mode = "exhaustive"
    else:
        tables, mode = list(zip(v.positions, v.inner_tables)), "structured"
    checked = 0
    for positions, table in tables:
        r = len(positions)
        checked += 1 << (2 * r)
        for s in range(1, 1 << r):
            for t in range(s, 1 << r):
                if table[s] + table[t] < table[s | t]:
                    witness = SubadditivityWitness(
                        _on_bundle(positions, s, m), _on_bundle(positions, t, m),
                        table[s], table[t], table[s | t],
                    )
                    return CheckResult(False, mode, checked, witness)
    return CheckResult(True, mode, checked)


def own_submodular(v: ValuationOracle) -> CheckResult:
    """Every g and S <= T <= M - {g}, T then S descending, on `Fraction` values."""
    m = v.m
    table = [v.value_mask(x) for x in range(1 << m)]
    checked = m * 3 ** (m - 1)
    for g in range(m):
        bit = 1 << g
        rest = ((1 << m) - 1) ^ bit
        for t in range(rest, -1, -1):
            if t & ~rest:
                continue
            for s in range(t, -1, -1):
                if s & ~t:
                    continue
                marg_s, marg_t = table[s | bit] - table[s], table[t | bit] - table[t]
                if marg_s < marg_t:
                    witness = SubmodularityWitness(
                        ItemSet(s, m), ItemSet(t, m), g, marg_s, marg_t
                    )
                    return CheckResult(False, "exhaustive", checked, witness)
    return CheckResult(True, "exhaustive", checked)


def assert_checkers_match(v: ValuationOracle) -> list[CheckResult]:
    """The references' results, once the checkers are seen to give the same."""
    def fields(c: CheckResult):
        return (c.ok, c.mode, c.checked, c.witness)

    own = [own_monotone(v), own_subadditive(v)]
    assert fields(is_monotone(v)) == fields(own[0])
    assert fields(is_subadditive(v)) == fields(own[1])
    if v.m <= 13:
        own.append(own_submodular(v))
        assert fields(is_submodular(v)) == fields(own[2])
    return own


def broken_callables() -> list[ValuationOracle]:
    """Set functions that break monotonicity, subadditivity or submodularity."""
    out = []
    for seed in range(24):
        rng = random.Random(f"broken:{seed}")
        m = rng.randint(1, 5)
        table = [_frac(rng) for _ in range(1 << m)]
        if seed % 3 == 0:  # monotone, usually neither subadditive nor submodular
            table = [Fraction(0)] * (1 << m)
            for x in range(1, 1 << m):
                below = max(table[x & ~(1 << g)] for g in range(m) if x >> g & 1)
                table[x] = below + (_frac(rng) if rng.random() < 0.5 else 0)
        elif seed % 3 == 1:
            table[0] = Fraction(0)
        out.append(ValuationOracle(m, fn=lambda s, t=table: t[s.mask]))
    return out


def test_checkers_match_fraction_scans_on_every_class():
    for v in every_oracle():
        assert_checkers_match(v)


def test_checkers_match_fraction_scans_on_broken_functions():
    results = []
    for v in broken_callables():
        assert_checkers_match(v)
        results.append((is_monotone(v).ok, is_subadditive(v).ok, is_submodular(v).ok))
    # the corpus does exercise every failure path
    assert not all(r[0] for r in results)
    assert any(r[0] and not r[1] for r in results)
    assert any(r[1] and not r[2] for r in results)


def test_structured_checkers_match_fraction_scans():
    # 17 items: a superadditive (monotone) 3-item bundle among 2-item bundles
    # worth 1 per nonempty subset; structured mode for both checks
    ones = [Fraction(0), Fraction(1), Fraction(1), Fraction(1)]
    squares = [Fraction(x.bit_count() ** 2, 9) for x in range(8)]
    for at in (0, 3, 7):
        tables = [ones] * 7
        tables.insert(at, squares)
        bundles, g = [], 0
        for t in tables:
            r = len(t).bit_length() - 1
            bundles.append(list(range(g, g + r)))
            g += r
        v = BundleMaxValuation(17, bundles, tables)
        assert_checkers_match(v)
        assert is_monotone(v).ok and not is_subadditive(v).ok


def perturbed_tables(count: int):
    """Seeded callable-backed set functions at 1 to 8 items: one in four is a
    submodular random oracle's table as it is, the rest have one to four
    entries moved by a nonzero rational, which can break any of the three
    classes (a third of all tables stay submodular)."""
    for i in range(count):
        rng = random.Random(f"perturbed:{i}")
        m = rng.choices(range(1, 9), weights=(0.3, 1, 6, 7, 4, 1.2, 0.25, 0.1))[0]
        base = random_valuation(rng.choice(("additive", "budget-additive", "coverage")), m, i)
        table = [base.value_mask(x) for x in range(1 << m)]
        if i % 4:
            for _ in range(rng.randint(1, 4)):
                x = rng.randrange(1, 1 << m)
                table[x] = max(Fraction(0), table[x] + rng.choice((-1, 1)) * _frac(rng) - Fraction(1, 7))
        yield ValuationOracle(m, fn=lambda s, t=table: t[s.mask])


def test_checkers_match_fraction_scans_on_perturbed_tables():
    results = []
    for v in perturbed_tables(2000):
        monotone, subadditive, submodular = assert_checkers_match(v)
        # the local form alone decides submodularity, ties included
        assert _locally_submodular(_dense_ints(v), v.m) == submodular.ok
        results.append((monotone.ok, subadditive.ok, submodular.ok, v.m))
    assert 500 <= sum(r[2] for r in results) <= 800
    assert sum(not r[0] for r in results) >= 500
    assert sum(r[1] and not r[2] for r in results) >= 100
    assert {r[3] for r in results} == set(range(1, 9))
