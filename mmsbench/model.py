"""The benchmark's own model of its inputs: seeded valuation specs and an
integer evaluator for them, written without any code from `mmslab`.

Every answer the program gives is checked against these functions, so they
must stay independent of the program: plain integer arithmetic, no pruning,
no caches shared with the oracles under test.

A spec is a tuple:
  ("additive", weights)            v(S) = sum of weights over S
  ("xos", clauses)                 v(S) = max over clauses of the clause sum
  ("budget", weights, cap)         v(S) = min(sum of weights over S, cap)
  ("coverage", covers)             v(S) = number of elements the items cover
All weights, caps and values are non-negative integers.
"""

from __future__ import annotations

import random
from fractions import Fraction

CLASSES = ("additive", "xos", "budget", "coverage")
SUBMODULAR = ("additive", "budget", "coverage")


def random_spec(rng: random.Random, cls: str, m: int) -> tuple:
    """A spec of class `cls` over m items in which every item has value > 0."""
    if cls == "additive":
        return ("additive", tuple(rng.randint(1, 30) for _ in range(m)))
    if cls == "xos":
        clauses = [[rng.randint(1, 30) if rng.random() < 0.7 else 0 for _ in range(m)]
                   for _ in range(3)]
        for g in range(m):
            if not any(c[g] for c in clauses):
                clauses[rng.randrange(3)][g] = rng.randint(1, 30)
        return ("xos", tuple(tuple(c) for c in clauses))
    if cls == "budget":
        weights = tuple(rng.randint(1, 30) for _ in range(m))
        total = sum(weights)
        return ("budget", weights, rng.randint(total // 2, total))
    if cls == "coverage":
        universe = m + m // 2
        covers = tuple(
            sum(1 << u for u in range(universe) if rng.random() < 0.3)
            | (1 << rng.randrange(universe))
            for _ in range(m)
        )
        return ("coverage", covers)
    raise ValueError(f"unknown class {cls!r}")


def value(spec: tuple, mask: int) -> int:
    kind = spec[0]
    if kind == "additive":
        return sum(w for g, w in enumerate(spec[1]) if mask >> g & 1)
    if kind == "xos":
        return max(sum(w for g, w in enumerate(c) if mask >> g & 1) for c in spec[1])
    if kind == "budget":
        return min(sum(w for g, w in enumerate(spec[1]) if mask >> g & 1), spec[2])
    if kind == "coverage":
        covered = 0
        for g, c in enumerate(spec[1]):
            if mask >> g & 1:
                covered |= c
        return bin(covered).count("1")
    raise ValueError(f"unknown spec kind {kind!r}")


def table(spec: tuple, m: int) -> list[int]:
    return [value(spec, mask) for mask in range(1 << m)]


def maxmin(tab: list[int], m: int, d: int) -> int:
    """Plain exhaustive max-min: every one of the d^m assignments, no pruning."""
    best = -1
    masks = [0] * d

    def walk(g: int) -> None:
        nonlocal best
        if g == m:
            low = min(tab[x] for x in masks)
            if low > best:
                best = low
            return
        bit = 1 << g
        for j in range(d):
            masks[j] |= bit
            walk(g + 1)
            masks[j] ^= bit

    walk(0)
    return best


def best_ratio(tabs: list[list[int]], mus: list[int], m: int) -> Fraction:
    """max over all n^m assignments of min_i v_i(A_i) / mu_i (every mu_i > 0)."""
    n = len(tabs)
    best = Fraction(-1)
    masks = [0] * n

    def walk(g: int) -> None:
        nonlocal best
        if g == m:
            low = min(Fraction(tabs[i][masks[i]], mus[i]) for i in range(n))
            if low > best:
                best = low
            return
        bit = 1 << g
        for i in range(n):
            masks[i] |= bit
            walk(g + 1)
            masks[i] ^= bit

    walk(0)
    return best


def all_reach_mu(tabs: list[list[int]], mus: list[int], m: int) -> bool:
    """True when some allocation gives every agent i at least mu_i."""
    n = len(tabs)
    masks = [0] * n

    def walk(g: int) -> bool:
        if g == m:
            return all(tabs[i][masks[i]] >= mus[i] for i in range(n))
        bit = 1 << g
        for i in range(n):
            masks[i] |= bit
            if walk(g + 1):
                return True
            masks[i] ^= bit
        return False

    return walk(0)


def greedy_partition(spec: tuple, m: int, parts: int) -> list[list[int]]:
    """Items by decreasing singleton value, each to the currently poorest part."""
    order = sorted(range(m), key=lambda g: (-value(spec, 1 << g), g))
    masks = [0] * parts
    for g in order:
        j = min(range(parts), key=lambda k: (value(spec, masks[k]), k))
        masks[j] |= 1 << g
    return [[g for g in range(m) if mask >> g & 1] for mask in masks]


def is_partition(parts: list[list[int]], m: int) -> bool:
    seen = 0
    for part in parts:
        for g in part:
            if not 0 <= g < m or seen >> g & 1:
                return False
            seen |= 1 << g
    return seen == (1 << m) - 1


def mask_of(items) -> int:
    out = 0
    for g in items:
        out |= 1 << g
    return out
