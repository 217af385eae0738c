"""Constructive allocation protocols, each returning a re-checkable certificate.

Every protocol takes explicit per-agent partitions and guarantees each agent a
stated fraction of her minimum part value -- raw values throughout, nothing
rescaled.  The cuts driving these procedures are symmetric: whichever side an
agent turns out to prefer, bundle roles are renamed so the same construction
goes through, and the trace records which branch actually ran.  Every cut
that must leave half of a part on one side is made by
`cuts.max_desired_half`.  `dispatch` picks the protocol for a demand vector
and is the one place agents are put into protocol roles.

Guarantee failures are never swallowed: each step that relies on subadditivity
checks the inequality it needs and, on failure, raises with the concrete
violated instance v(A) + v(B) < v(A | B), turning the guarantee into a
falsifiable claim about the input oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import (
    Allocation,
    Instance,
    ItemSet,
    Partition,
    PreconditionViolation,
    SubadditivityViolation,
    SubadditivityWitness,
    demand_vector,
    guarantee_dominates,
    threshold_vector,
)
from .cuts import max_desired_half
from .mms import VerifyResult, min_value, mms_value, verify_alpha_mms_P
from .valuations import ValuationOracle
from .counterexamples import CATALOGUE, has_blocking_subset

HALF = Fraction(1, 2)
ONE = Fraction(1)


@dataclass(frozen=True)
class ProtocolCertificate:
    """Allocation plus the (alpha, partitions) guarantee it provably meets.

    The certificate is self-checking: `verify` re-runs the guarantee from
    scratch.  `trace` is a tuple of JSON-friendly dicts recording every cut,
    side choice and exit taken.
    """

    allocation: Allocation
    alpha: tuple[Fraction, ...]
    partitions: tuple[Partition, ...]
    trace: tuple[dict, ...]

    def verify(self, inst: Instance) -> VerifyResult:
        return verify_alpha_mms_P(self.allocation, inst, self.alpha, self.partitions)


def _items(s: ItemSet) -> list[int]:
    return list(s)


def _check_partition(p: Partition, m: int, parts: int, who: str) -> None:
    if p.ground.m != m or p.ground.mask != (1 << m) - 1:
        raise ValueError(f"partition for {who} must cover all {m} items")
    if len(p) != parts:
        raise ValueError(f"partition for {who} must have {parts} parts, got {len(p)}")


def _coarsen(v: ValuationOracle, p: Partition, parts: int, agent: int, trace: list) -> Partition:
    """`p` with its two lowest-valued parts merged, ties to the lower index,
    until `parts` remain; each merge is appended to `trace`.

    The merged part takes the lower index.  v is monotone, so a merged part is
    worth at least either of the two, and the minimum part never falls.
    """
    blocks = list(p.parts)
    while len(blocks) > parts:
        lowest = sorted(range(len(blocks)), key=lambda k: (v.value_mask(blocks[k].mask), k))
        i, j = sorted(lowest[:2])
        trace.append({"step": "coarsen", "agent": agent,
                      "merged": [_items(blocks[i]), _items(blocks[j])]})
        blocks[i] = blocks[i] | blocks[j]
        del blocks[j]
    return p if len(blocks) == len(p) else Partition(tuple(blocks), p.ground)


def _seal(
    inst: Instance, bundles, alpha, partitions, trace
) -> ProtocolCertificate:
    cert = ProtocolCertificate(
        Allocation(tuple(bundles)), threshold_vector(alpha), tuple(partitions), tuple(trace)
    )
    result = cert.verify(inst)
    if not result.ok:
        # every guarantee-bearing step raises with a witness before this can
        # trip; reaching here means the protocol itself is broken
        raise AssertionError(
            f"internal: certificate failed verification, margins {result.margins}"
        )
    return cert


def cut_and_choose_two(
    vS: ValuationOracle, vT: ValuationOracle, pT: Partition
) -> ProtocolCertificate:
    """Two agents: T proposes her 2-part split, S picks her favorite part.

    Guarantees (1/2, 1) against ((M), pT): S's favorite is worth at least
    half of v_S(M) by subadditivity, and T keeps a whole part of her own
    split.
    """
    m = vS.m
    _check_partition(pT, m, 2, "the proposing agent")
    ground = ItemSet.full(m)
    a, b = pT.parts
    pick = a if vS.value(a) >= vS.value(b) else b
    other = b if pick is a else a
    if 2 * vS.value(pick) < vS.value(ground):
        raise SubadditivityViolation(
            SubadditivityWitness(a, b, vS.value(a), vS.value(b), vS.value(ground)),
            "cut and choose: both parts below half of the whole",
        )
    inst = Instance(m, (vS, vT))
    trace = [
        {
            "step": "cut_and_choose",
            "picked": _items(pick),
            "picked_index": 0 if pick is a else 1,
        }
    ]
    return _seal(
        inst,
        (pick, other),
        (HALF, ONE),
        (Partition((ground,), ground), pT),
        trace,
    )


def extend_cut_and_choose(
    vA: ValuationOracle,
    vB: ValuationOracle,
    m_prime: ItemSet,
    halves: tuple[ItemSet, ItemSet],
    tau_a: Fraction,
    tau_b: Fraction,
) -> tuple[ItemSet, ItemSet]:
    """Close out two agents on leftover items M'.

    A has split M' into two halves each worth tau_a to her; B values all of
    M' at tau_b.  B picks her favorite half (worth >= tau_b / 2 by
    subadditivity), A keeps the other (worth >= tau_a).  Preconditions are
    audited, not assumed.  Returns (bundle_A, bundle_B).
    """
    h1, h2 = halves
    if not h1.isdisjoint(h2) or (h1 | h2).mask != m_prime.mask:
        raise PreconditionViolation("halves must partition the leftover set")
    for h in halves:
        if vA.value(h) < tau_a:
            raise PreconditionViolation(
                f"v_A({h}) = {vA.value(h)} < {tau_a} on a proposed half"
            )
    if vB.value(m_prime) < tau_b:
        raise PreconditionViolation(
            f"v_B({m_prime}) = {vB.value(m_prime)} < {tau_b} on the leftover set"
        )
    pick = h1 if vB.value(h1) >= vB.value(h2) else h2
    other = h2 if pick is h1 else h1
    if 2 * vB.value(pick) < tau_b:
        raise SubadditivityViolation(
            SubadditivityWitness(h1, h2, vB.value(h1), vB.value(h2), vB.value(m_prime)),
            "closing step: both halves below half of the leftover value",
        )
    return other, pick


def three_agents_322(inst: Instance, partitions) -> ProtocolCertificate:
    """Uniform 1/2 guarantee for three agents with part counts (3, 2, 2).

    Two cuts: the first splits the 3-part agent's bundles along one part of
    the second agent's split, yielding two half-value pieces inside a single
    part of that split; the second hands the second agent a half-value piece
    of her other part, chosen to dodge one part of the third agent's split.
    The leftovers then close by cut-and-choose between agents one and three.
    """
    if inst.n != 3:
        raise ValueError("expected a three-agent instance")
    pS, pT, pQ = partitions
    _check_partition(pS, inst.m, 3, "agent 0")
    _check_partition(pT, inst.m, 2, "agent 1")
    _check_partition(pQ, inst.m, 2, "agent 2")
    vS, vT, vQ = inst.agents
    lam = [min_value(v, p) for v, p in zip(inst.agents, partitions)]
    ground = inst.ground()

    cut1 = pT[1]
    first = max_desired_half(vS, pS, cut1, "first cut for the 3-part agent")
    side1 = first.side
    s_star_1, s_star_2 = first.pieces()[:2]
    t_used = 1 if side1 == "cut" else 0
    t_other = 1 - t_used

    cut2 = pQ[0]
    second = max_desired_half(vT, [pT[t_other]], cut2, "second cut for the 2-part agent")
    side2 = second.side
    (t_piece,) = second.pieces()
    q_untouched = 1 if side2 == "cut" else 0

    m_prime = ground - t_piece
    assert s_star_1.issubset(m_prime) and s_star_2.issubset(m_prime)
    assert pQ[q_untouched].issubset(m_prime)
    halves = (s_star_1, m_prime - s_star_1)
    bundle_s, bundle_q = extend_cut_and_choose(
        vS, vQ, m_prime, halves, lam[0] / 2, lam[2]
    )
    trace = [
        {"step": "cut", "agent": 0, "cut": _items(cut1), "side": side1,
         "pieces": [_items(s_star_1), _items(s_star_2)]},
        {"step": "cut", "agent": 1, "cut": _items(cut2), "side": side2,
         "piece": _items(t_piece)},
        {"step": "closing", "agents": [0, 2], "halves": [_items(h) for h in halves]},
    ]
    return _seal(
        inst,
        (bundle_s, t_piece, bundle_q),
        (HALF, HALF, HALF),
        (pS, pT, pQ),
        trace,
    )


def disjoint_extension(
    partial_a,
    partial_b,
    pn: Partition,
    vn: ValuationOracle,
) -> tuple[Allocation, dict]:
    """Merge two partial allocations with a final agent who salvages half a part.

    Both partials cover the same n-1 agents.  Some part X of the final
    agent's partition must meet the two partials disjointly; then X & union(A)
    and X - union(A) cover X, so one of them is worth half of v(X), and the
    final agent takes it alongside the *other* partial allocation.
    """
    partial_a = tuple(partial_a)
    partial_b = tuple(partial_b)
    m = pn.ground.m
    union_a = ItemSet.empty(m)
    for piece in partial_a:
        union_a = union_a | piece
    union_b = ItemSet.empty(m)
    for piece in partial_b:
        union_b = union_b | piece

    for x_idx, x in enumerate(pn.parts):
        in_a = x & union_a
        in_b = x & union_b
        if not in_a.isdisjoint(in_b):
            continue
        half = max_desired_half(
            vn, [x], union_a,
            "disjoint extension: neither side of the saved part reaches half",
        )
        (piece,) = half.pieces()
        if half.side == "cut":
            bundles, base = partial_b + (piece,), "second"
        else:
            bundles, base = partial_a + (piece,), "first"
        info = {"step": "disjoint_extension", "part": x_idx, "base": base,
                "piece": _items(piece)}
        return Allocation(bundles), info
    raise PreconditionViolation(
        "no part of the final agent's partition separates the two partial allocations"
    )


def three_agents_521(inst: Instance, partitions) -> ProtocolCertificate:
    """(1, 1/2, 1/2) guarantee for part counts (5, 2, 1).

    Searches the ten 3-of-5 unions of the first agent's parts for a cut that
    halves *both* parts of the second agent at once (for subadditive
    valuations one must exist); the two untouched parts of the first agent
    then anchor two disjoint partial allocations, and the third agent
    salvages half of her single part from one of them.
    """
    if inst.n != 3:
        raise ValueError("expected a three-agent instance")
    pS, pT, pQ = partitions
    _check_partition(pS, inst.m, 5, "agent 0")
    _check_partition(pT, inst.m, 2, "agent 1")
    _check_partition(pQ, inst.m, 1, "agent 2")
    vS, vT, vQ = inst.agents

    triples = list(combinations(range(5), 3))
    chosen = None
    for triple in triples:
        cut = pS[triple[0]] | pS[triple[1]] | pS[triple[2]]
        if all(2 * vT.value(pT[t] & cut) >= vT.value(pT[t]) for t in range(2)):
            chosen = (triple, cut)
            break
    if chosen is None:
        _raise_double_cut_witness(vT, pT, pS, triples)
    triple, cut = chosen
    t1 = pT[0] & cut
    t2 = pT[1] & cut
    rest = [j for j in range(5) if j not in triple]
    partial_a = (pS[rest[0]], t1)
    partial_b = (pS[rest[1]], t2)
    allocation, info = disjoint_extension(partial_a, partial_b, pQ, vQ)
    trace = [
        {"step": "double_cut", "parts": list(triple), "cut": _items(cut),
         "pieces": [_items(t1), _items(t2)]},
        info,
    ]
    return _seal(inst, allocation.bundles, (ONE, HALF, HALF), (pS, pT, pQ), trace)


def _raise_double_cut_witness(vT, pT, pS, triples) -> None:
    """Locate the subadditivity break that made every 3-of-5 cut fail.

    If every cut fails for one of the two parts, then some pair of cuts whose
    index sets cover all five parts fails the *same* part on both sides; the
    part's two pieces under that pair sum below the part's value.  Such a
    pair must exist: the ten cuts under "covering pair" adjacency form the
    Petersen graph, whose independent sets have size at most 4, so two of
    them cannot cover all ten cuts.
    """
    for c1, c2 in combinations(triples, 2):
        if len(set(c1) | set(c2)) != 5:
            continue
        cut1 = pS[c1[0]] | pS[c1[1]] | pS[c1[2]]
        cut2 = pS[c2[0]] | pS[c2[1]] | pS[c2[2]]
        for t in range(2):
            a, b = pT[t] & cut1, pT[t] & cut2
            va, vb, vt = vT.value(a), vT.value(b), vT.value(pT[t])
            if va + vb < vt:
                raise SubadditivityViolation(
                    SubadditivityWitness(a, b, va, vb, vt),
                    "no 3-of-5 cut halves both parts",
                )
    raise AssertionError("internal: exhausted cuts without a subadditivity witness")


def three_agents_431(inst: Instance, partitions) -> ProtocolCertificate:
    """(1, 1/2, 1/2) guarantee for part counts (4, 3, 1).

    One cut along two of the first agent's parts halves two of the second
    agent's three parts on a single side; the first agent's two parts on the
    other side anchor two disjoint partials, closed by the third agent.
    """
    if inst.n != 3:
        raise ValueError("expected a three-agent instance")
    pS, pT, pQ = partitions
    _check_partition(pS, inst.m, 4, "agent 0")
    _check_partition(pT, inst.m, 3, "agent 1")
    _check_partition(pQ, inst.m, 1, "agent 2")
    vS, vT, vQ = inst.agents

    cut = pS[0] | pS[1]
    half = max_desired_half(vT, pT, cut, "cut along two parts")
    side = half.side
    t1, t2 = half.pieces()[:2]
    anchors = (2, 3) if side == "cut" else (0, 1)
    partial_a = (pS[anchors[0]], t1)
    partial_b = (pS[anchors[1]], t2)
    allocation, info = disjoint_extension(partial_a, partial_b, pQ, vQ)
    trace = [
        {"step": "cut", "agent": 1, "cut": _items(cut), "side": side,
         "pieces": [_items(t1), _items(t2)]},
        info,
    ]
    return _seal(inst, allocation.bundles, (ONE, HALF, HALF), (pS, pT, pQ), trace)


def three_agents_422(inst: Instance, partitions) -> ProtocolCertificate:
    """(1, 1/2, 1/2) guarantee for part counts (4, 2, 2).

    First, two overlapping 2-of-4 cuts are found that both halve the second
    agent's first part (the three complementary pairings of four parts
    guarantee this); relabel so they are {a, b} and {b, c}, leaving d free.
    A crossed cut mixing the third agent's parts with parts a and c then
    halves the second agent's other part on a side that misses either a or c,
    producing two partial allocations disjoint inside one of the third
    agent's parts.
    """
    if inst.n != 3:
        raise ValueError("expected a three-agent instance")
    pS, pT, pQ = partitions
    _check_partition(pS, inst.m, 4, "agent 0")
    _check_partition(pT, inst.m, 2, "agent 1")
    _check_partition(pQ, inst.m, 2, "agent 2")
    vS, vT, vQ = inst.agents

    pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
    good_pairs = []
    for left, right in pairings:
        # pS covers M, so the complement side of the first part is its right piece
        half = max_desired_half(vT, [pT[0]], pS[left[0]] | pS[left[1]],
                                "pairing cut: neither side halves the first part")
        good_pairs.append(left if half.side == "cut" else right)
    # two cuts from different pairings always share exactly one part index
    first, second = good_pairs[0], good_pairs[1]
    shared = (set(first) & set(second)).pop()
    a = next(j for j in first if j != shared)
    c = next(j for j in second if j != shared)
    free = next(j for j in range(4) if j not in (a, shared, c))
    t_first = pT[0] & (pS[a] | pS[shared])
    t_second = pT[0] & (pS[shared] | pS[c])

    crossed = (pQ[0] - pS[a]) | pS[c]
    half = max_desired_half(vT, [pT[1]], crossed, "crossed cut on the second part")
    side = half.side
    (t_piece,) = half.pieces()
    if side == "cut":
        partial_a = (pS[a], t_piece)
        partial_b = (pS[free], t_second)
    else:
        partial_a = (pS[c], t_piece)
        partial_b = (pS[free], t_first)
    allocation, info = disjoint_extension(partial_a, partial_b, pQ, vQ)
    trace = [
        {"step": "pairing_cuts", "cuts": [sorted(first), sorted(second)],
         "labels": {"a": a, "shared": shared, "c": c, "free": free}},
        {"step": "crossed_cut", "cut": _items(crossed), "side": side,
         "piece": _items(t_piece)},
        info,
    ]
    return _seal(inst, allocation.bundles, (ONE, HALF, HALF), (pS, pT, pQ), trace)


def _count_outside(v, parts, removed: ItemSet, threshold: Fraction):
    """Parts whose leftover after `removed` still meets the threshold."""
    out = []
    for j, part in enumerate(parts):
        piece = part - removed
        if v.value(piece) >= threshold:
            out.append((j, piece))
    return out


def _harvest_inside(v, parts, cut: ItemSet, threshold: Fraction, context):
    """Pieces part & cut meeting the threshold, for parts failing it outside.

    A part failing the threshold on both sides breaks subadditivity (its two
    pieces sum below the part's minimum value), which is raised as evidence.
    """
    harvested = []
    for j, part in enumerate(parts):
        outside = part - cut
        if v.value(outside) >= threshold:
            continue
        inside = part & cut
        if v.value(inside) < threshold:
            raise SubadditivityViolation(
                SubadditivityWitness(
                    inside, outside, v.value(inside), v.value(outside), v.value(part)
                ),
                context,
            )
        harvested.append((j, inside))
    return harvested


def four_agents_3344(inst: Instance, partitions) -> ProtocolCertificate:
    """Uniform 1/2 guarantee for four agents with part counts (3, 3, 4, 4).

    Progressively builds up to four candidate allocations.  Two opening cuts
    give half-value pieces for the two 3-part agents while keeping one part
    of the last agent untouched.  Each round then tries to close the two
    remaining agents by cut-and-choose on the leftovers; when that fails, the
    failing agent is guaranteed several half-value pieces *inside* the
    removed items, which seed the next, more structured candidate.  The
    fourth candidate always succeeds.  The trace records which exit fired.
    """
    if inst.n != 4:
        raise ValueError("expected a four-agent instance")
    pS, pT, pQ, pR = partitions
    _check_partition(pS, inst.m, 3, "agent 0")
    _check_partition(pT, inst.m, 3, "agent 1")
    _check_partition(pQ, inst.m, 4, "agent 2")
    _check_partition(pR, inst.m, 4, "agent 3")
    vS, vT, vQ, vR = inst.agents
    lam = [min_value(v, p) for v, p in zip(inst.agents, partitions)]
    th = [x / 2 for x in lam]
    ground = inst.ground()
    trace: list[dict] = []

    def closing(va, vb, removed, parts_a, th_a, lam_b, untouched: ItemSet):
        """Try to close agents (a, b) on M - removed; None when a lacks parts."""
        m_prime = ground - removed
        survivors = _count_outside(va, parts_a, removed, th_a)
        if len(survivors) < 2:
            return None
        assert untouched.issubset(m_prime)
        first = survivors[0][1]
        halves = (first, m_prime - first)
        return extend_cut_and_choose(va, vb, m_prime, halves, th_a, lam_b)

    # opening cut: split the first agent along two parts of the last agent
    cut1 = pR[0] | pR[1]
    first = max_desired_half(vS, pS, cut1, "opening cut")
    side1 = first.side
    s1, s2 = first.pieces()[:2]
    r_rest = (2, 3) if side1 == "cut" else (0, 1)
    r3, r4 = r_rest
    trace.append({"step": "cut", "agent": 0, "cut": _items(cut1), "side": side1,
                  "pieces": [_items(s1), _items(s2)]})

    # second cut: sends the second agent away from one first-agent piece and
    # one untouched last-agent part
    cut2 = s2 | pR[r4]
    second = max_desired_half(vT, pT, cut2, "second cut")
    side2 = second.side
    if side2 == "cut":
        s1, s2 = s2, s1
        r3, r4 = r4, r3
    t1, t2 = second.pieces()[:2]
    for piece in (t1, t2):
        assert piece.isdisjoint(s2) and piece.isdisjoint(pR[r4])
    trace.append({"step": "cut", "agent": 1, "cut": _items(cut2), "side": side2,
                  "pieces": [_items(t1), _items(t2)], "kept_part": r4})

    # candidate 1: first and second agents take their pieces
    removed = s2 | t1
    closed = closing(vQ, vR, removed, pQ.parts, th[2], lam[3], pR[r4])
    if closed is not None:
        bundle_q, bundle_r = closed
        trace.append({"step": "exit", "candidate": 1})
        return _seal(inst, (s2, t1, bundle_q, bundle_r), (HALF,) * 4,
                     (pS, pT, pQ, pR), trace)
    qs = _harvest_inside(vQ, pQ.parts, removed, th[2], "harvest after candidate 1")
    if len(qs) < 3:
        raise AssertionError("internal: expected three harvested pieces")
    q1, q2, q3 = (piece for _, piece in qs[:3])
    for piece in (q1, q2, q3):
        assert piece.isdisjoint(t2) and piece.isdisjoint(pR[r4])
    trace.append({"step": "harvest", "agent": 2,
                  "pieces": [_items(q1), _items(q2), _items(q3)]})

    # candidate 2: second and third agents
    removed = t2 | q1
    closed = closing(vS, vR, removed, pS.parts, th[0], lam[3], pR[r4])
    if closed is not None:
        bundle_s, bundle_r = closed
        trace.append({"step": "exit", "candidate": 2})
        return _seal(inst, (bundle_s, t2, q1, bundle_r), (HALF,) * 4,
                     (pS, pT, pQ, pR), trace)
    ss = _harvest_inside(vS, pS.parts, removed, th[0], "harvest after candidate 2")
    if len(ss) < 2:
        raise AssertionError("internal: expected two harvested pieces")
    sp1, sp2 = ss[0][1], ss[1][1]
    for piece in (sp1, sp2):
        assert (piece.isdisjoint(q2) and piece.isdisjoint(q3)
                and piece.isdisjoint(pR[r4]))
    trace.append({"step": "harvest", "agent": 0,
                  "pieces": [_items(sp1), _items(sp2)]})

    # candidate 3: first and third agents
    removed = sp1 | q2
    closed = closing(vT, vR, removed, pT.parts, th[1], lam[3], pR[r4])
    if closed is not None:
        bundle_t, bundle_r = closed
        trace.append({"step": "exit", "candidate": 3})
        return _seal(inst, (sp1, bundle_t, q2, bundle_r), (HALF,) * 4,
                     (pS, pT, pQ, pR), trace)
    ts = _harvest_inside(vT, pT.parts, removed, th[1], "harvest after candidate 3")
    if len(ts) < 2:
        raise AssertionError("internal: expected two harvested pieces")
    tp1 = ts[0][1]
    for piece in (tp1, ts[1][1]):
        assert (piece.isdisjoint(q3) and piece.isdisjoint(sp2)
                and piece.isdisjoint(pR[r4]))
    trace.append({"step": "harvest", "agent": 1,
                  "pieces": [_items(tp1), _items(ts[1][1])]})

    # final allocation: everything left is structurally disjoint
    trace.append({"step": "exit", "candidate": 4})
    return _seal(inst, (sp2, tp1, q3, pR[r4]), (HALF,) * 4, (pS, pT, pQ, pR), trace)


def two_types(
    n: int,
    vS: ValuationOracle,
    vT: ValuationOracle,
    types,
    pS: Partition,
    pT: Partition,
) -> ProtocolCertificate:
    """Uniform 1/2 guarantee for any number of agents of just two types.

    Recursive peeling: cut along half of the minority type's surviving parts,
    hand the majority type the desired-half pieces of its surviving parts
    (at least ceil(k/2) of them), remove those items, and recurse on the
    agents and *original* parts left untouched.  Each remaining agent always
    keeps at least as many untouched original parts as there are remaining
    agents, so final bundles are measured against original part values -- no
    maximin share is ever recomputed.
    """
    types = tuple(types)
    if len(types) != n or any(t not in ("S", "T") for t in types):
        raise ValueError("types must assign 'S' or 'T' to each of the n agents")
    m = vS.m
    _check_partition(pS, m, n, "type S")
    _check_partition(pT, m, n, "type T")
    agents = tuple(vS if t == "S" else vT for t in types)
    inst = Instance(m, agents)

    bundles: list[ItemSet | None] = [None] * n
    trace: list[dict] = []
    remaining = list(range(n))
    surv = {"S": list(pS.parts), "T": list(pT.parts)}
    m_r = ItemSet.full(m)
    level = 0

    while remaining:
        k = len(remaining)
        if k == 1:
            bundles[remaining[0]] = m_r
            trace.append({"step": "last_agent", "agent": remaining[0],
                          "bundle": _items(m_r)})
            break
        by_type = {"S": [a for a in remaining if types[a] == "S"],
                   "T": [a for a in remaining if types[a] == "T"]}
        maj = "S" if len(by_type["S"]) >= len(by_type["T"]) else "T"
        mino = "T" if maj == "S" else "S"
        v_maj = vS if maj == "S" else vT
        if not by_type[mino]:
            # single type left: hand out whole surviving parts
            if len(surv[maj]) < k:
                raise AssertionError("internal: fewer surviving parts than agents")
            for agent, part in zip(by_type[maj], surv[maj]):
                bundles[agent] = part
            trace.append({"step": "whole_parts", "agents": by_type[maj],
                          "parts": [_items(p) for p in surv[maj][:k]]})
            break
        if k == 2:
            # cut and choose between the two survivors on the leftover items
            proposer = by_type[mino][0]
            picker = next(a for a in remaining if a != proposer)
            v_pick = vS if types[picker] == "S" else vT
            prop_parts = surv[types[proposer]]
            if len(prop_parts) < 2:
                raise AssertionError("internal: proposer lacks surviving parts")
            w = prop_parts[0]
            rest = m_r - w
            pick = w if v_pick.value(w) >= v_pick.value(rest) else rest
            other = rest if pick is w else w
            if 2 * v_pick.value(pick) < v_pick.value(m_r):
                raise SubadditivityViolation(
                    SubadditivityWitness(w, rest, v_pick.value(w),
                                         v_pick.value(rest), v_pick.value(m_r)),
                    "two-agent closing: both sides below half",
                )
            bundles[picker] = pick
            bundles[proposer] = other
            trace.append({"step": "cut_and_choose", "proposer": proposer,
                          "picker": picker, "picked": _items(pick)})
            break
        cut = ItemSet.empty(m)
        for part in surv[mino][: k // 2]:
            cut = cut | part
        half = max_desired_half(v_maj, surv[maj], cut, f"level {level} cut")
        side, pieces = half.side, half.satisfied
        n_prime = min(len(pieces), len(by_type[maj]))
        taken = pieces[:n_prime]
        assigned = by_type[maj][:n_prime]
        removed = ItemSet.empty(m)
        for (j, piece), agent in zip(taken, assigned):
            bundles[agent] = piece
            removed = removed | piece
        trace.append({"step": "level", "level": level, "side": side,
                      "cut": _items(cut), "agents": assigned,
                      "pieces": [_items(p) for _, p in taken]})
        remaining = [a for a in remaining if a not in set(assigned)]
        m_r = m_r - removed
        for t in ("S", "T"):
            surv[t] = [p for p in surv[t] if p.isdisjoint(removed)]
            if len(surv[t]) < len(remaining):
                raise AssertionError("internal: surviving-part bookkeeping broke")
        level += 1

    partitions = tuple(pS if t == "S" else pT for t in types)
    return _seal(inst, tuple(bundles), (HALF,) * n, partitions, trace)


@dataclass(frozen=True)
class ImpossibilityReference:
    """Names the counterexample family witnessing a negative dispatch answer."""

    family: str  # "n_minus_1" for a blocking subset, else a CATALOGUE name
    detail: str


def _sorted_desc(d):
    order = sorted(range(len(d)), key=lambda i: (-d[i], i))
    return order, tuple(d[i] for i in order)


def _route_three(mode: str, d) -> tuple[str, tuple[int, ...]] | ImpossibilityReference:
    """Pick the protocol (and its part counts) or the counterexample family: the
    first three-agent not_exists claim of `CATALOGUE` that the mode's thresholds
    at the demands sorted in decreasing order dominate."""
    _, ds = _sorted_desc(d)
    blocking = has_blocking_subset(d)
    if blocking is not None:
        return ImpossibilityReference(
            "n_minus_1",
            f"agents {list(blocking)} all demand fewer parts than there are of them",
        )
    alpha = (ONE if mode == "one-half-half" else HALF, HALF, HALF)
    for name, family in CATALOGUE.items():
        for claim in family.claims:
            if (claim.kind == "not_exists" and len(claim.d) == 3
                    and guarantee_dominates(alpha, ds, claim.alpha, claim.d)):
                return ImpossibilityReference(
                    name, f"demands {tuple(d)} are dominated by {claim.d}")
    if mode == "uniform-half":
        if ds[2] == 1:
            if ds[0] >= 4 and ds[1] >= 3:
                return "431", (4, 3, 1)
            return "521", (5, 2, 1)
        return "322", (3, 2, 2)
    # mode "one-half-half"
    if ds[2] >= 2:
        return "422", (4, 2, 2)
    if ds[1] >= 3:
        return "431", (4, 3, 1)
    return "521", (5, 2, 1)


_THREE_PROTOCOLS = {
    "322": three_agents_322,
    "521": three_agents_521,
    "431": three_agents_431,
    "422": three_agents_422,
}


MODES = ("uniform-half", "one-half-half")


def _role_partitions(inst: Instance, roles, partitions, max_states, trace: list):
    """One partition per (agent, part count) role, in role order.

    A supplied partition is coarsened to the role's part count (`_coarsen`,
    each merge appended to `trace`); one with fewer parts is rejected.  With
    none supplied, the agent's best-partition witness for that count is used.
    """
    kwargs = {} if max_states is None else {"max_states": max_states}
    out = []
    for agent, parts in roles:
        v = inst.agents[agent]
        if partitions is None:
            out.append(mms_value(v, inst.ground(), parts, **kwargs).witness)
        else:
            p = _coarsen(v, partitions[agent], parts, agent, trace)
            _check_partition(p, inst.m, parts, f"agent {agent}")
            out.append(p)
    return tuple(out)


def _in_order(inst: Instance, order, protocol, head=()) -> ProtocolCertificate:
    """Run `protocol` on `inst` with its agents listed in `order`, and return
    the certificate in `inst`'s own agent order, `head` before its trace.

    This is the only place where agents are permuted and mapped back.
    """
    order = tuple(order)
    cert = protocol(Instance(inst.m, tuple(inst.agents[i] for i in order), label=inst.label))
    if order == tuple(range(inst.n)) and not head:
        return cert  # already sealed against these agents in this order
    inverse = sorted(range(inst.n), key=order.__getitem__)

    def back(xs):
        return tuple(xs[pos] for pos in inverse)

    return _seal(inst, back(cert.allocation.bundles), back(cert.alpha),
                 back(cert.partitions), (*head, *cert.trace))


def dispatch_three(
    inst: Instance,
    mode: str,
    d,
    partitions=None,
    max_states: int | None = None,
) -> ProtocolCertificate | ImpossibilityReference:
    """Route a three-agent demand vector to its protocol or counterexample.

    `mode` is "uniform-half" (all agents get half) or "one-half-half" (the
    agent with the most parts gets her full minimum, the others half).
    Agents are permuted so the sorted demands line up with protocol roles,
    and each role's partition comes from `_role_partitions`; the routed part
    counts never exceed the agents' demands.  Merges made while coarsening
    are recorded in the trace after the dispatch step.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    d = demand_vector(d)
    if inst.n != 3 or len(d) != 3:
        raise ValueError("dispatch handles exactly three agents")
    routed = _route_three(mode, d)
    if isinstance(routed, ImpossibilityReference):
        return routed
    name, counts = routed
    order, _ = _sorted_desc(d)
    coarsened: list[dict] = []
    parts = _role_partitions(inst, zip(order, counts), partitions, max_states, coarsened)
    head = ({"step": "dispatch", "protocol": name, "agent_order": order}, *coarsened)
    return _in_order(inst, order, lambda perm: _THREE_PROTOCOLS[name](perm, parts), head)


def dispatch(
    inst: Instance,
    mode: str,
    d,
    partitions=None,
    max_states: int | None = None,
) -> ProtocolCertificate | ImpossibilityReference:
    """Run the protocol that covers demand vector `d`, or name the
    counterexample family that rules the request out.

    Two agents: cut and choose, the agent with more parts proposing (ties to
    agent 1), for any mode.  Three agents: `dispatch_three`.  Four agents,
    uniform-half: the 3344 protocol, whenever two agents demand at least 3
    parts and the other two at least 4.  Any other count, uniform-half: the
    two-types protocol, whenever the agents have at most two distinct
    valuations and every demand is at least n.  Supplied `partitions` (one
    per agent) and computed ones both come from `_role_partitions`.  Anything
    else is a ValueError.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    d = demand_vector(d)
    if len(d) != inst.n:
        raise ValueError(f"demand vector has {len(d)} entries for {inst.n} agents")
    if inst.n == 3:
        return dispatch_three(inst, mode, d, partitions=partitions, max_states=max_states)
    coarsened: list[dict] = []
    if inst.n == 2:
        if max(d) < 2:
            return ImpossibilityReference("n_minus_1", "both agents demand a single part")
        proposer = 1 if d[1] >= d[0] else 0
        (p_t,) = _role_partitions(inst, [(proposer, 2)], partitions, max_states, coarsened)
        return _in_order(inst, (1 - proposer, proposer),
                         lambda perm: cut_and_choose_two(*perm.agents, p_t), coarsened)
    if mode == "one-half-half":
        raise ValueError(
            f"no protocol guarantees one-half-half to {inst.n} agents; "
            "use --alpha uniform-half"
        )
    if inst.n == 4:
        order = sorted(range(4), key=lambda i: (d[i], i))
        counts = (3, 3, 4, 4)
        if any(d[agent] < c for agent, c in zip(order, counts)):
            raise ValueError(
                f"four-agent demands {tuple(d)} not covered: need two agents "
                "with at least 3 parts and two with at least 4"
            )
        parts = _role_partitions(inst, zip(order, counts), partitions, max_states, coarsened)
        head = ({"step": "dispatch", "protocol": "3344", "agent_order": order}, *coarsened)
        return _in_order(inst, order, lambda perm: four_agents_3344(perm, parts), head)
    distinct: list[ValuationOracle] = []
    for v in inst.agents:
        if not any(v == u for u in distinct):
            distinct.append(v)
    if len(distinct) > 2:
        raise ValueError(
            f"no protocol covers {inst.n} agents with {len(distinct)} distinct valuations"
        )
    if min(d) < inst.n:
        raise ValueError(
            f"{inst.n}-agent two-types protocol needs every demand >= {inst.n}"
        )
    v_s, v_t = distinct[0], distinct[-1]
    types = tuple("S" if v == v_s else "T" for v in inst.agents)
    roles = [(types.index(t), inst.n) for t in ("S", "T") if t in types]
    parts = _role_partitions(inst, roles, partitions, max_states, coarsened)
    p_s, p_t = parts[0], parts[-1]
    return _in_order(inst, range(inst.n),
                     lambda _: two_types(inst.n, v_s, v_t, types, p_s, p_t), coarsened)
