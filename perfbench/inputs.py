"""Seeded inputs and independent reference answers for the benchmark.

Nothing in this module calls the sweepmap library.  The forward map is a
comparison sort over (height, column) keys rather than the library's bucket
sort, schedules are re-declared as plain permutation rules, and family sizes
come from a memoized count rather than from enumeration.  The checks in
``workloads.py`` therefore share no code with what they check.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Mapping, Sequence

Steps = tuple[int, ...]
PermRule = Callable[[int], Sequence[int]]


# --- schedules, re-declared -------------------------------------------------

def reverse_rule(k: int) -> Steps:
    return tuple(range(k, 0, -1))


def identity_rule(k: int) -> Steps:
    return tuple(range(1, k + 1))


def random_table(rng: random.Random, max_k: int = 10) -> dict[int, list[int]]:
    """A random one-line permutation of 1..k for every k up to ``max_k``."""
    table = {}
    for k in range(1, max_k + 1):
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        table[k] = perm
    return table


# --- reference forward maps -------------------------------------------------

def connected_ranks(steps: Sequence[int]) -> list[int]:
    level = -sum(steps)
    ranks = []
    for b in steps:
        ranks.append(level)
        level += b
    return ranks


def ref_osweep(steps: Sequence[int], rule: PermRule) -> Steps:
    """Order sweep map as a comparison sort.

    Arrows are sorted by starting height (non-negative heights first, then
    the negative ones from the bottom up), ties right to left; the arrows at
    height zero are then re-ordered by ``rule``.
    """
    ranks = connected_ranks(steps)
    order = sorted(range(len(steps)), key=lambda i: (ranks[i] < 0, ranks[i], -i))
    slots = [p for p, i in enumerate(order) if ranks[i] == 0]
    zero_columns = sorted(order[p] for p in slots)
    for p, value in zip(slots, rule(len(zero_columns))):
        order[p] = zero_columns[value - 1]
    return tuple(steps[i] for i in order)


# --- random paths -----------------------------------------------------------

def random_walk(rng: random.Random, n: int, start: int = 0, max_step: int = 3) -> Steps:
    """``n`` steps drawn from [-max_step, max_step] starting at height
    ``start``; a step that would dip below zero is drawn again.  The walk is
    then closed by down steps of at most ``max_step`` to end at height 0."""
    steps = []
    level = start
    width = 2 * max_step + 1
    draw = rng.random
    while len(steps) < n:
        b = int(draw() * width) - max_step
        if level + b >= 0:
            steps.append(b)
            level += b
    while level > 0:
        b = min(max_step, level)
        steps.append(-b)
        level -= b
    return tuple(steps)


def area(steps: Sequence[int]) -> int:
    """Sum of the starting heights of a Dyck path's arrows."""
    level = 0
    total = 0
    for b in steps:
        total += level
        level += b
    return total


def typical_walk(rng: random.Random, n: int, candidates: int = 60) -> Steps:
    """Of ``candidates`` random walks of ``n`` steps, the one whose area is
    closest to ``n ** 1.5`` (about the median area of these walks).

    Inverting the order sweep of a Dyck path ``Q`` makes exactly
    ``area(Q) - sum(minimal ranks)`` balancing moves, and the area of a single
    walk varies by about +-50 % between seeds.  Taking the walk nearest the
    median area makes every seed ask for nearly the same amount of work at a
    given ``n``, and drawing a fixed number of walks makes generating them
    take the same time for every seed.
    """
    target = n**1.5
    return min((random_walk(rng, n) for _ in range(candidates)), key=lambda w: abs(area(w) - target))


def incomplete_walk(rng: random.Random, n: int, max_step: int = 3) -> Steps:
    """An incomplete Dyck path: a walk from height 1..3 closed to height 0."""
    return random_walk(rng, n, start=rng.randint(1, max_step), max_step=max_step)


# --- families ---------------------------------------------------------------

def family_stats(counts: Mapping[int, int], start: int) -> tuple[int, int]:
    """Number of orderings of the multiset that never dip below zero when
    started at height ``start`` (Dyck: start 0; incomplete: start = -sum),
    and the sum of their areas (starting heights of all their steps)."""
    values = sorted(counts)

    @lru_cache(maxsize=None)
    def walks(level: int, remaining: tuple[int, ...]) -> tuple[int, int]:
        if not any(remaining):
            return 1, 0
        paths = area = 0
        for i, v in enumerate(values):
            if remaining[i] and level + v >= 0:
                rest = remaining[:i] + (remaining[i] - 1,) + remaining[i + 1:]
                sub_paths, sub_area = walks(level + v, rest)
                paths += sub_paths
                area += sub_area + level * sub_paths
        return paths, area

    return walks(start, tuple(counts[v] for v in values))


def family_count(counts: Mapping[int, int], start: int) -> int:
    return family_stats(counts, start)[0]


def multiset_text(counts: Mapping[int, int]) -> str:
    """``value^mult`` terms in decreasing value order, ``^1`` omitted."""
    return ",".join(f"{v}^{m}" if m > 1 else str(v) for v, m in sorted(counts.items(), reverse=True))


def parse_multiset(text: str) -> dict[int, int]:
    counts: dict[int, int] = {}
    for token in text.split(","):
        value, _, mult = token.partition("^")
        counts[int(value)] = counts.get(int(value), 0) + int(mult or 1)
    return counts


def criterion8_domain() -> list[tuple[int, int, dict[int, int]]]:
    """Every non-empty incomplete family with step values in [-4, 4], at most
    7 steps and sum -1, -2 or -3, as ``(size, area, counts)`` sorted by size,
    where ``area`` sums the areas of all members."""
    domain = []
    for n in range(1, 8):
        for values in combinations_with_replacement(range(-4, 5), n):
            if sum(values) not in (-1, -2, -3):
                continue
            counts: dict[int, int] = {}
            for v in values:
                counts[v] = counts.get(v, 0) + 1
            size, total_area = family_stats(counts, -sum(values))
            if size:
                domain.append((size, total_area, counts))
    domain.sort(key=lambda entry: (entry[0], multiset_text(entry[2])))
    return domain


def at_quantile(domain: list[tuple[int, int, dict[int, int]]], q: float) -> tuple[int, int, dict[int, int]]:
    return domain[int(q * len(domain))]


def size_banded_picks(
    rng: random.Random,
    domain: list[tuple[int, int, dict[int, int]]],
    picks: int,
    band: float = 0.05,
) -> list[dict[int, int]]:
    """One family per size quantile: for quantile ``(j + 0.5) / picks`` take
    the family found there, and draw any family with as many steps whose size
    and summed area are both within ``band`` of that family's.

    Verifying a family inverts every member twice, and each inversion makes
    about as many balancing moves as its preimage's area, so size, path
    length and summed area fix the work.  The seed chooses which multisets
    are verified while the work stays the same from seed to seed.
    """
    chosen = []
    for j in range(picks):
        size, area, counts = at_quantile(domain, (j + 0.5) / picks)
        steps = sum(counts.values())
        near = [
            entry[2] for entry in domain
            if sum(entry[2].values()) == steps
            and abs(entry[0] - size) <= band * size
            and abs(entry[1] - area) <= band * area
        ]
        chosen.append(rng.choice(near))
    return chosen
