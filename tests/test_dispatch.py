"""`protocols.dispatch`: pinned certificate bytes on every route, and agent
permutations that change nothing but the agents' order."""

import hashlib
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mmslab.cli import canonical_json, certificate_to_json
from mmslab.core import Instance
from mmslab.protocols import ImpossibilityReference, dispatch
from mmslab.valuations import RANDOM_CLASSES, random_valuation

from helpers import random_partition

H = Fraction(1, 2)
MODES = ("uniform-half", "one-half-half")

# (demands, items).  Outside three agents the demands equal the routed part
# counts: `cli._solve` coarsened partitions only for three agents, so d_i-part
# partitions there would not have been answered when the digest was taken.
CASES = (
    ((2, 2), 6), ((2, 1), 6), ((1, 2), 6), ((1, 1), 5),
    ((3, 2, 2), 8), ((2, 3, 2), 8), ((5, 2, 1), 8), ((1, 3, 4), 8), ((4, 2, 2), 8),
    ((2, 4, 2), 8), ((5, 3, 3), 8), ((6, 5, 6), 8), ((3, 3, 3), 8), ((4, 2, 1), 8),
    ((3, 3, 1), 8), ((1, 1, 5), 8), ((2, 2, 2), 8),
    ((3, 3, 4, 4), 9), ((4, 3, 4, 3), 9), ((3, 3, 3, 4), 9),
    ((5,) * 5, 8), ((6,) * 6, 8),
)

# SHA-256 of the corpus's answers as given by `cli._solve`, the dispatcher that
# `protocols.dispatch` replaced; every answer must keep its bytes
CORPUS_SHA256 = "1e4dbd08e302dfda927fbc0152aec1fae739a67b33cda083627ef996c3dd53fa"


def _instance(d, m, seed) -> Instance:
    n = len(d)
    if n >= 5:  # two valuation types
        kinds = [random_valuation(RANDOM_CLASSES[(seed + t) % 4], m, seed=100 * seed + t)
                 for t in range(2)]
        agents = tuple(kinds[j % 3 == 1] for j in range(n))
    else:
        agents = tuple(random_valuation(RANDOM_CLASSES[(seed + j) % 4], m, seed=10 * seed + j)
                       for j in range(n))
    return Instance(m, agents, label=f"corpus-{seed}")


def _corpus():
    """(instance, mode, demands, partitions or None) over every route and mode."""
    for k, (d, m) in enumerate(CASES):
        for seed in range(2):
            inst = _instance(d, m, 7 * k + seed)
            rng = random.Random(f"dispatch:{k}:{seed}")
            supplied = tuple(random_partition(m, d_i, rng) for d_i in d)
            for mode in MODES:
                yield inst, mode, d, None
                yield inst, mode, d, supplied


def _answer_bytes(inst, mode, d, partitions) -> str:
    try:
        result = dispatch(inst, mode, d, partitions)
    except ValueError as exc:
        return canonical_json({"error": str(exc)})
    if isinstance(result, ImpossibilityReference):
        return canonical_json({"impossible": result.family})
    return canonical_json(certificate_to_json(result, inst))


def test_dispatch_corpus_keeps_its_bytes():
    digest = hashlib.sha256()
    for request in _corpus():
        digest.update(_answer_bytes(*request).encode())
    assert digest.hexdigest() == CORPUS_SHA256


@st.composite
def _permuted_requests(draw):
    n = draw(st.sampled_from((2, 3, 3, 4, 5)))
    m = draw(st.integers(min_value=max(n, 4), max_value=7))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    if n == 2:
        d = draw(st.lists(st.integers(1, 4), min_size=2, max_size=2))
    elif n == 3:
        d = draw(st.lists(st.integers(1, 6), min_size=3, max_size=3))
    else:
        d = draw(st.lists(st.integers(n - 1, n + 1), min_size=n, max_size=n))
    inst = _instance(d, m, seed)
    mode = draw(st.sampled_from(MODES))
    partitions = None
    if draw(st.booleans()):
        rng = random.Random(seed)
        partitions = tuple(random_partition(m, d_i, rng) for d_i in d)
    perm = draw(st.permutations(range(n)))
    return inst, mode, d, partitions, perm


def _outcome(inst, mode, d, partitions):
    try:
        return dispatch(inst, mode, d, partitions)
    except ValueError as exc:
        return exc


@settings(max_examples=150, deadline=None)
@given(_permuted_requests())
def test_permuting_the_agents_keeps_the_answer(request):
    inst, mode, d, partitions, perm = request
    base = _outcome(inst, mode, d, partitions)
    p_inst = Instance(inst.m, tuple(inst.agents[i] for i in perm))
    p_d = [d[i] for i in perm]
    p_parts = None if partitions is None else tuple(partitions[i] for i in perm)
    got = _outcome(p_inst, mode, p_d, p_parts)
    assert type(got) is type(base)
    if isinstance(got, ImpossibilityReference):
        assert got.family == base.family
        return
    if isinstance(got, ValueError):
        return
    assert got.verify(p_inst).ok
    assert all(len(p) <= d_i for p, d_i in zip(got.partitions, p_d))
    assert all(a >= H for a in got.alpha)
    if mode == "one-half-half":
        assert any(a == 1 and d_i == max(p_d) for a, d_i in zip(got.alpha, p_d))
