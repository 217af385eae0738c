import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from mmslab.core import (
    Instance,
    ItemSet,
    Partition,
    PreconditionViolation,
    SubadditivityViolation,
    guarantee_dominates,
)
from mmslab.counterexamples import CATALOGUE, has_blocking_subset, structured_check_27
from mmslab.mms import min_value, mms_value
from mmslab.oracle import exists_alpha_mms
from mmslab.protocols import (
    MODES,
    ImpossibilityReference,
    _route_three,
    cut_and_choose_two,
    disjoint_extension,
    dispatch_three,
    extend_cut_and_choose,
    four_agents_3344,
    three_agents_322,
    three_agents_431,
    three_agents_422,
    three_agents_521,
    two_types,
)
from mmslab.valuations import (
    AdditiveValuation,
    RANDOM_CLASSES,
    ValuationOracle,
    random_valuation,
)

from helpers import random_instance, random_partition, random_partitions

H = Fraction(1, 2)


def test_cut_and_choose_uniform_weights():
    v = AdditiveValuation([1] * 4)
    p = Partition.of(4, [0, 1], [2, 3])
    cert = cut_and_choose_two(v, v, p)
    assert cert.alpha == (H, 1)
    assert v.value(cert.allocation[0]) == 2  # exactly half of the whole


def test_cut_and_choose_prefers_better_side():
    vS = AdditiveValuation([5, 1, 1, 1])
    vT = AdditiveValuation([1, 1, 1, 1])
    p = Partition.of(4, [0], [1, 2, 3])
    cert = cut_and_choose_two(vS, vT, p)
    assert sorted(cert.allocation[0]) == [0]
    assert sorted(cert.allocation[1]) == [1, 2, 3]


def test_cut_and_choose_random_certificates():
    for i in range(60):
        rng = random.Random(i)
        m = rng.randint(2, 9)
        vS = random_valuation(RANDOM_CLASSES[i % 4], m, seed=i)
        vT = random_valuation(RANDOM_CLASSES[(i + 1) % 4], m, seed=i + 100)
        p = random_partition(m, 2, rng)
        cert = cut_and_choose_two(vS, vT, p)
        assert cert.verify(Instance(m, (vS, vT))).ok


def test_cut_and_choose_reports_non_subadditive():
    table = [Fraction(0), Fraction(1, 4), Fraction(1, 4), Fraction(1)]
    v = ValuationOracle(2, lambda s: table[s.mask])
    p = Partition.of(2, [0], [1])
    with pytest.raises(SubadditivityViolation) as err:
        cut_and_choose_two(v, AdditiveValuation([1, 1]), p)
    assert err.value.witness.holds(v.value)


def test_extend_cut_and_choose_zero_thresholds():
    v = AdditiveValuation([1, 1])
    ground = ItemSet.full(2)
    a, b = extend_cut_and_choose(
        v, v, ground, (ItemSet.of(2, [0]), ItemSet.of(2, [1])), Fraction(0), Fraction(0)
    )
    assert a.isdisjoint(b) and (a | b) == ground


def test_extend_cut_and_choose_audits_preconditions():
    v = AdditiveValuation([1, 1])
    ground = ItemSet.full(2)
    with pytest.raises(PreconditionViolation):
        extend_cut_and_choose(
            v, v, ground, (ItemSet.of(2, [0]), ItemSet.of(2, [1])), Fraction(2), Fraction(0)
        )
    with pytest.raises(PreconditionViolation):
        extend_cut_and_choose(
            v, v, ground, (ItemSet.of(2, [0]), ItemSet.of(2, [0])), Fraction(0), Fraction(0)
        )


def test_disjoint_extension_whole_part_free():
    # partials entirely outside the saved part: the last agent takes it whole
    vn = AdditiveValuation([1, 1, 1, 1])
    pn = Partition.of(4, [0, 1], [2, 3])
    a = (ItemSet.of(4, [2]),)
    b = (ItemSet.of(4, [3]),)
    allocation, info = disjoint_extension(a, b, pn, vn)
    assert info["base"] == "first"
    assert sorted(allocation[1]) == [0, 1]
    assert vn.value(allocation[1]) == 2


def test_disjoint_extension_requires_separating_part():
    vn = AdditiveValuation([1, 1])
    pn = Partition.of(2, [0, 1])
    a = (ItemSet.of(2, [0]),)
    b = (ItemSet.of(2, [0]),)
    with pytest.raises(PreconditionViolation):
        disjoint_extension(a, b, pn, vn)


def _protocol_suite(protocol, sizes, n, m_lo, trials=80):
    for cls in RANDOM_CLASSES:
        for i in range(trials):
            rng = random.Random(f"{protocol.__name__}:{cls}:{i}")
            m = rng.randint(m_lo, 10)
            inst = random_instance(n, m, cls, seed=i)
            parts = random_partitions(inst, sizes, rng)
            cert = protocol(inst, parts)
            assert cert.verify(inst).ok
            assert cert.alpha[0] == (H if sizes[0] in (2, 3) else Fraction(1))


def test_three_agents_322_random():
    _protocol_suite(three_agents_322, (3, 2, 2), 3, 7)


def test_three_agents_521_random():
    _protocol_suite(three_agents_521, (5, 2, 1), 3, 6)


def test_three_agents_431_random():
    _protocol_suite(three_agents_431, (4, 3, 1), 3, 6)


def test_three_agents_422_random():
    _protocol_suite(three_agents_422, (4, 2, 2), 3, 6)


def test_four_agents_3344_random():
    _protocol_suite(four_agents_3344, (3, 3, 4, 4), 4, 8)


def test_322_identical_agents_with_witnesses():
    v = AdditiveValuation([3, 3, 2, 2, 2, 1, 1, 1])
    inst = Instance(8, (v, v, v))
    parts = tuple(
        mms_value(v, inst.ground(), d).witness for d in (3, 2, 2)
    )
    cert = three_agents_322(inst, parts)
    res = cert.verify(inst)
    assert res.ok
    lam = [mms_value(v, inst.ground(), d).value for d in (3, 2, 2)]
    for bundle, mu in zip(cert.allocation, lam):
        assert 2 * v.value(bundle) >= mu


def test_322_degenerate_zero_agent():
    zero = AdditiveValuation([0] * 8)
    v = random_valuation("xos", 8, seed=1)
    inst = Instance(8, (v, zero, v))
    rng = random.Random(0)
    parts = random_partitions(inst, (3, 2, 2), rng)
    cert = three_agents_322(inst, parts)
    assert cert.verify(inst).ok


def test_521_whole_bundles_for_first_agent():
    for i in range(25):
        rng = random.Random(f"whole:{i}")
        inst = random_instance(3, 9, "xos", seed=i)
        parts = random_partitions(inst, (5, 2, 1), rng)
        cert = three_agents_521(inst, parts)
        # the first agent receives one of her parts, untouched
        assert any(cert.allocation[0] == part for part in parts[0])


def test_3344_identical_additive_exits_early():
    v = AdditiveValuation([2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1])
    inst = Instance(12, (v, v, v, v))
    parts = tuple(mms_value(v, inst.ground(), d).witness for d in (3, 3, 4, 4))
    cert = four_agents_3344(inst, parts)
    exits = [step["candidate"] for step in cert.trace if step.get("step") == "exit"]
    assert exits == [1]
    assert cert.verify(inst).ok


def test_3344_zero_agents_trivial():
    zero = AdditiveValuation([0] * 9)
    v = random_valuation("coverage", 9, seed=9)
    inst = Instance(9, (v, zero, zero, zero))
    rng = random.Random(4)
    parts = random_partitions(inst, (3, 3, 4, 4), rng)
    cert = four_agents_3344(inst, parts)
    assert cert.verify(inst).ok
    exits = [step["candidate"] for step in cert.trace if step.get("step") == "exit"]
    assert exits == [1]


def test_3344_forced_final_allocation():
    # token valuations steering every closing attempt into failure: the
    # protocol must walk through all three harvests and exit at candidate 4
    vS = AdditiveValuation([0, H, 0, H, 0, 1, 0, H, 0, H, 0, 0])
    vT = AdditiveValuation([1, H, 0, 0, 0, 0, 0, H, 1, 0, 0, 0])
    vQ = AdditiveValuation([1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1])
    vR = AdditiveValuation([1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0])
    inst = Instance(12, (vS, vT, vQ, vR))
    parts = (
        Partition.of(12, [0, 1, 6, 7], [2, 3, 8, 9], [4, 5, 10, 11]),
        Partition.of(12, [0, 4, 6], [1, 5, 7], [2, 3, 8, 9, 10, 11]),
        Partition.of(12, [0, 1, 5], [2, 7, 9], [4, 8, 10], [3, 6, 11]),
        Partition.of(12, [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]),
    )
    cert = four_agents_3344(inst, parts)
    exits = [step["candidate"] for step in cert.trace if step.get("step") == "exit"]
    assert exits == [4]
    assert cert.verify(inst).ok
    # the last agent keeps a whole part
    assert cert.allocation[3] == parts[3][3]


def test_3344_harvest_disjointness_recorded():
    # every harvest stage's recorded pieces avoid the sets the next stage uses
    vS = AdditiveValuation([0, H, 0, H, 0, 1, 0, H, 0, H, 0, 0])
    vT = AdditiveValuation([1, H, 0, 0, 0, 0, 0, H, 1, 0, 0, 0])
    vQ = AdditiveValuation([1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1])
    vR = AdditiveValuation([1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0])
    inst = Instance(12, (vS, vT, vQ, vR))
    parts = (
        Partition.of(12, [0, 1, 6, 7], [2, 3, 8, 9], [4, 5, 10, 11]),
        Partition.of(12, [0, 4, 6], [1, 5, 7], [2, 3, 8, 9, 10, 11]),
        Partition.of(12, [0, 1, 5], [2, 7, 9], [4, 8, 10], [3, 6, 11]),
        Partition.of(12, [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]),
    )
    cert = four_agents_3344(inst, parts)
    harvests = {s["agent"]: s["pieces"] for s in cert.trace if s.get("step") == "harvest"}
    kept = next(s["kept_part"] for s in cert.trace if s.get("kept_part") is not None)
    r4 = set(parts[3][kept])
    for pieces in harvests.values():
        for piece in pieces:
            assert not (set(piece) & r4)


def test_two_types_reduces_to_cut_and_choose():
    vS = random_valuation("xos", 6, seed=0)
    vT = random_valuation("coverage", 6, seed=1)
    rng = random.Random(2)
    pS = random_partition(6, 2, rng)
    pT = random_partition(6, 2, rng)
    cert = two_types(2, vS, vT, ("S", "T"), pS, pT)
    assert cert.verify(Instance(6, (vS, vT))).ok
    assert any(step["step"] == "cut_and_choose" for step in cert.trace)


def test_two_types_uniform_additive():
    v = AdditiveValuation([1] * 8)
    p = Partition.of(8, [0, 1], [2, 3], [4, 5], [6, 7])
    cert = two_types(4, v, v, ("S", "S", "T", "T"), p, p)
    inst = Instance(8, (v,) * 4)
    assert cert.verify(inst).ok
    for bundle in cert.allocation:
        assert v.value(bundle) >= 1  # half of the 2-valued parts


def test_two_types_random_and_depth():
    for i in range(120):
        rng = random.Random(f"tt:{i}")
        n = rng.randint(2, 6)
        m = rng.randint(n, 10)
        cls = RANDOM_CLASSES[i % 4]
        vS = random_valuation(cls, m, seed=i)
        vT = random_valuation(cls, m, seed=i + 500)
        types = tuple(rng.choice("ST") for _ in range(n))
        pS = random_partition(m, n, rng)
        pT = random_partition(m, n, rng)
        cert = two_types(n, vS, vT, types, pS, pT)
        assert cert.verify(Instance(m, tuple(vS if t == "S" else vT for t in types))).ok
        levels = sum(1 for s in cert.trace if s["step"] == "level")
        assert 2**levels <= 2 * n  # ceil(n/2) peel per level


def test_two_types_single_type():
    v = random_valuation("additive", 6, seed=3)
    rng = random.Random(5)
    p = random_partition(6, 3, rng)
    cert = two_types(3, v, v, ("S", "S", "S"), p, p)
    assert cert.verify(Instance(6, (v, v, v))).ok


def test_two_types_surviving_parts_untouched():
    # whenever a later level allocates, earlier survivors must be intact;
    # verified here by re-walking the trace against the partitions
    vS = random_valuation("xos", 10, seed=21)
    vT = random_valuation("xos", 10, seed=22)
    rng = random.Random(23)
    pS = random_partition(10, 6, rng)
    pT = random_partition(10, 6, rng)
    cert = two_types(6, vS, vT, ("S", "T", "S", "T", "S", "T"), pS, pT)
    allocated = ItemSet.empty(10)
    for step in cert.trace:
        if step["step"] == "level":
            for piece in step["pieces"]:
                allocated = allocated | ItemSet.of(10, piece)
            survivors_s = [p for p in pS.parts if p.isdisjoint(allocated)]
            survivors_t = [p for p in pT.parts if p.isdisjoint(allocated)]
            remaining = 6 - sum(
                len(s["pieces"]) for s in cert.trace
                if s["step"] == "level" and s["level"] <= step["level"]
            )
            assert len(survivors_s) >= remaining
            assert len(survivors_t) >= remaining


def test_dispatch_routes_and_families():
    inst = Instance(9, tuple(random_valuation("xos", 9, seed=s) for s in (1, 2, 3)))
    cases = [
        ("uniform-half", (3, 2, 2), "322"),
        ("uniform-half", (2, 2, 2), "n_minus_1"),
        ("uniform-half", (3, 3, 3), "322"),
        ("uniform-half", (5, 2, 1), "521"),
        ("uniform-half", (6, 2, 1), "521"),
        ("uniform-half", (4, 3, 1), "431"),
        ("uniform-half", (4, 2, 1), "421"),
        ("uniform-half", (3, 2, 1), "421"),
        ("uniform-half", (3, 3, 1), "floor_n3"),
        ("uniform-half", (9, 1, 1), "n_minus_1"),
        ("one-half-half", (4, 2, 2), "422"),
        ("one-half-half", (2, 2, 4), "422"),
        ("one-half-half", (3, 3, 3), "grid27"),
        ("one-half-half", (3, 3, 2), "grid27"),
        ("one-half-half", (4, 3, 1), "431"),
        ("one-half-half", (5, 2, 1), "521"),
    ]
    for mode, d, expected in cases:
        out = dispatch_three(inst, mode, d)
        if isinstance(out, ImpossibilityReference):
            assert out.family == expected, (mode, d)
        else:
            assert out.trace[0]["protocol"] == expected, (mode, d)
            assert out.verify(inst).ok


def _routable_claims():
    """(family, claim) for every claim `_route_three` can name, in its order."""
    return [(name, claim) for name, family in CATALOGUE.items() for claim in family.claims
            if claim.kind == "not_exists" and len(claim.d) == 3]


def test_every_claim_the_router_can_name_is_re_derived():
    claims = _routable_claims()
    assert [(name, claim.args) for name, claim in claims] == [
        ("421", ()), ("floor_n3", (3,)), ("grid27", ())
    ]
    for name, claim in claims:
        if name == "grid27":
            # the structured check searches thresholds (1, 1/2, 1/2) at one slice each
            assert (claim.alpha, claim.d) == ((1, H, H), (3, 3, 3))
            assert structured_check_27(*claim.args).nonexistence
        else:
            inst = CATALOGUE[name].build(*claim.args)
            assert exists_alpha_mms(inst, claim.alpha, claim.d).status == "not_exists"


def test_every_three_agent_route_is_a_protocol_or_a_dominated_claim():
    claims = _routable_claims()
    for mode in MODES:
        alpha = (1 if mode == "one-half-half" else H, H, H)
        for d in combinations_with_replacement(range(6, 0, -1), 3):
            routed = _route_three(mode, d)
            if not isinstance(routed, ImpossibilityReference):
                name, counts = routed
                assert name in ("322", "521", "431", "422"), (mode, d)
                assert all(c <= x for c, x in zip(counts, d)), (mode, d)
            elif routed.family == "n_minus_1":
                assert has_blocking_subset(d) is not None, (mode, d)
            else:
                assert any(name == routed.family and guarantee_dominates(alpha, d, c.alpha, c.d)
                           for name, c in claims), (mode, d)


def test_dispatch_one_half_half_alpha_placement():
    inst = Instance(8, tuple(random_valuation("additive", 8, seed=s) for s in (4, 5, 6)))
    cert = dispatch_three(inst, "one-half-half", (2, 5, 2))
    # the full guarantee lands on the agent with the largest demand
    assert cert.alpha == (H, 1, H)
    assert cert.verify(inst).ok


def test_dispatch_agrees_with_oracle():
    for i in range(10):
        inst = random_instance(3, 6, RANDOM_CLASSES[i % 4], seed=i)
        cert = dispatch_three(inst, "uniform-half", (3, 2, 2))
        assert cert.verify(inst).ok
        assert exists_alpha_mms(inst, cert.alpha, (3, 2, 2)).exists


def test_dispatch_coarsens_partitions_with_more_parts_than_the_route_uses():
    # d = (5, 3, 3) routes to 322, which uses (3, 2, 2) parts
    unit = AdditiveValuation([1] * 9)
    inst = Instance(9, (unit, AdditiveValuation([1, 1, 1, 2, 2, 2, 1, 1, 1]), unit))
    given = (
        Partition.of(9, [0], [1, 2], [3], [4, 5], [6, 7, 8]),  # worth 1, 2, 1, 2, 3
        Partition.of(9, [0, 1, 2], [3, 4, 5], [6, 7, 8]),  # worth 3, 6, 3
        Partition.of(9, [0], [1, 2, 3, 4], [5, 6, 7, 8]),  # worth 1, 4, 4
    )
    cert = dispatch_three(inst, "uniform-half", (5, 3, 3), partitions=given)
    assert cert.trace[0]["protocol"] == "322"
    # the two lowest-valued parts merge, ties to the lower index, into the lower index
    assert list(cert.trace[1:5]) == [
        {"step": "coarsen", "agent": 0, "merged": [[0], [3]]},
        {"step": "coarsen", "agent": 0, "merged": [[0, 3], [1, 2]]},
        {"step": "coarsen", "agent": 1, "merged": [[0, 1, 2], [6, 7, 8]]},
        {"step": "coarsen", "agent": 2, "merged": [[0], [1, 2, 3, 4]]},
    ]
    assert cert.trace[5]["step"] != "coarsen"
    assert [[sorted(part) for part in p] for p in cert.partitions] == [
        [[0, 1, 2, 3], [4, 5], [6, 7, 8]],
        [[0, 1, 2, 6, 7, 8], [3, 4, 5]],
        [[0, 1, 2, 3, 4], [5, 6, 7, 8]],
    ]
    assert cert.verify(inst).ok


def test_dispatch_coarsening_never_lowers_the_minimum_part():
    rng = random.Random(5)
    for i in range(12):
        inst = random_instance(3, 9, RANDOM_CLASSES[i % 4], seed=40 + i)
        d = rng.choice([(5, 3, 3), (3, 5, 3), (6, 4, 1), (4, 4, 4)])
        given = random_partitions(inst, d, rng)
        cert = dispatch_three(inst, "uniform-half", d, partitions=given)
        assert cert.verify(inst).ok
        for v, p, q, d_i in zip(inst.agents, given, cert.partitions, d):
            assert len(q) <= d_i
            assert min_value(v, q) >= min_value(v, p)
        merges = sum(len(p) - len(q) for p, q in zip(given, cert.partitions))
        assert sum(s["step"] == "coarsen" for s in cert.trace) == merges


def test_dispatch_rejects_partitions_with_fewer_parts_than_the_route_uses():
    inst = Instance(9, tuple(random_valuation("additive", 9, seed=s) for s in (1, 2, 3)))
    given = (
        Partition.of(9, [0, 1, 2, 3], [4, 5, 6, 7, 8]),
        Partition.of(9, [0, 1, 2], [3, 4, 5, 6, 7, 8]),
        Partition.of(9, [0, 1, 2], [3, 4, 5, 6, 7, 8]),
    )
    with pytest.raises(ValueError, match="must have 3 parts, got 2"):
        dispatch_three(inst, "uniform-half", (5, 3, 3), partitions=given)


def test_dispatch_rejects_bad_arity():
    inst = Instance(4, tuple(random_valuation("additive", 4, seed=s) for s in (1, 2)))
    with pytest.raises(ValueError):
        dispatch_three(inst, "uniform-half", (2, 2))


def test_protocol_postcondition_failure_is_witnessed():
    # a non-subadditive oracle breaks the 5/2/1 double-cut claim with evidence
    table = [Fraction(0)] * 64
    for mask in range(1, 64):
        table[mask] = Fraction(1, 100)
    block_a, block_b = 0b000111, 0b111000
    for mask in range(64):
        if mask & block_a == block_a or mask & block_b == block_b:
            table[mask] = Fraction(1)
    bad = ValuationOracle(6, lambda s: table[s.mask], declared_class="subadditive")
    good = AdditiveValuation([1] * 6)
    inst = Instance(6, (good, bad, good))
    parts = (
        Partition.of(6, [0], [1], [2], [3], [4, 5]),
        Partition.of(6, [0, 1, 2], [3, 4, 5]),
        Partition.of(6, [0, 1, 2, 3, 4, 5]),
    )
    with pytest.raises(SubadditivityViolation) as err:
        three_agents_521(inst, parts)
    assert err.value.witness.holds(bad.value)
