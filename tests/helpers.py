"""Independent oracles and random generators shared by the test modules.

Everything here deliberately avoids the library's own code paths: row counts
are tallied by scanning every lattice row, the sweep reference is a
comparison sort instead of a bucket sort, and families come straight from
``itertools.permutations``.  The reference verification keeps to the public
:class:`Path`-level maps, with each map replaceable.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations_with_replacement, permutations

import sweepmap.invert
from sweepmap import (
    CYCLE,
    IDENTITY,
    REVERSE,
    Path,
    PathDiagram,
    PathKind,
    PermSchedule,
    PreconditionError,
    VerificationReport,
    enumerate_paths,
    hib,
    hpath,
    inv_osweep,
    minimal_diagram,
    osweep,
    table_schedule,
    vib,
)


# The Dyck multisets of acceptance criterion 3, each enumerated in full.
CRITERION_3_MULTISETS = (
    "1^2,-1^2",
    "1^3,-1^3",
    "1^4,-1^4",
    "1^5,-1^5",
    "1^6,-1^6",
    "3^2,-2^3",
    "2^3,-3^2",
    "2,1,0,-1,-2",
    "2^2,0^2,-1^4",
    "1^4,-2^2",
)

# The step multisets of acceptance criterion 8's incomplete families, as
# sorted value tuples: up to 7 steps in [-4, 4] that sum to -1, -2 or -3.
CRITERION_8_MULTISETS = tuple(
    values
    for n in range(1, 8)
    for values in combinations_with_replacement(range(-4, 5), n)
    if sum(values) in (-1, -2, -3)
)


def loop_connected_ranks(steps) -> tuple[int, ...]:
    """Starting heights of the connected drawing, one running level."""
    ranks = []
    level = -sum(steps)
    for b in steps:
        ranks.append(level)
        level += b
    return tuple(ranks)


def loop_is_dyck(steps) -> bool:
    """Sums to zero and no prefix sum is negative."""
    if sum(steps) != 0:
        return False
    level = 0
    for b in steps:
        level += b
        if level < 0:
            return False
    return True


def loop_is_incomplete(steps) -> bool:
    """Sums to ``-a < 0`` and never dips below zero started from ``a``."""
    if sum(steps) >= 0:
        return False
    level = -sum(steps)
    for b in steps:
        level += b
        if level < 0:
            return False
    return True


def rank_leq(left, right) -> bool:
    """Pointwise comparison of two rank sequences of equal length."""
    if len(left) != len(right):
        raise PreconditionError(
            f"rank sequences differ in length: {len(left)} vs {len(right)}"
        )
    return all(a <= b for a, b in zip(left, right))


def vpath(diagram: PathDiagram) -> Path:
    """Collapse a diagram back to its step sequence: vertical shifts change
    ranks only, never column order or step values."""
    return Path(diagram.steps)


def tally_row(steps, ranks, j) -> tuple[int, int]:
    """The red and blue segments crossing row ``j``, counted arrow by arrow."""
    red = sum(1 for b, r in zip(steps, ranks) if b > 0 and r <= j < r + b)
    blue = sum(1 for b, r in zip(steps, ranks) if b < 0 and r + b <= j < r)
    return red, blue


def tally_row_counts(steps, ranks) -> dict[int, int]:
    """Row counts by scanning each row across the diagram's vertical range."""
    if not steps:
        return {}
    tops = [r + b for r, b in zip(ranks, steps)]
    lo = min(min(ranks), min(tops)) - 1
    hi = max(max(ranks), max(tops)) + 1
    counts = {}
    for j in range(lo, hi + 1):
        red, blue = tally_row(steps, ranks, j)
        if red or blue:
            counts[j] = red - blue
    return counts


def row_count_delta(diagram: PathDiagram, row: int) -> tuple[int, int, int]:
    """Return ``(count(row) - count(row-1), starts at row, ends at row)``.

    The count comes from the row scan, the starts and ends from the ranks, so
    the identity ``delta == starts - ends`` is checked between two
    independent tallies rather than assumed by either.
    """

    def count(j):
        red, blue = tally_row(diagram.steps, diagram.ranks, j)
        return red - blue

    delta = count(row) - count(row - 1)
    starts = sum(1 for r in diagram.ranks if r == row)
    ends = sum(1 for e in diagram.end_ranks if e == row)
    return delta, starts, ends


def ref_vib(steps, ranks) -> tuple[tuple[int, ...], list[tuple[int, int, int, int]]]:
    """Unit-scan balancing: the minimum over every row and a right-to-left
    column scan on each move.

    Returns the final ranks and the moves as ``(row, column, before, after)``
    with 1-based columns.
    """
    ranks = list(ranks)
    counts = tally_row_counts(steps, ranks)
    moves = []
    while True:
        positive = [j for j, c in counts.items() if c > 0]
        if not positive:
            break
        row = min(positive)
        column = max(i for i in range(len(ranks)) if ranks[i] == row)
        ranks[column] += 1
        moves.append((row, column + 1, row, row + 1))
        b = steps[column]
        if b != 0:
            counts[row] -= 1
            counts[row + b] = counts.get(row + b, 0) + 1
    assert all(c == 0 for c in counts.values())
    return tuple(ranks), moves


def least_balanced_ranks(steps, ranks) -> tuple[int, ...]:
    """Iterate ``F(r) = max(r, sorted(r + d))`` from ``ranks`` until nothing
    changes.

    ``F`` is monotone and inflationary, keeps ranks weakly increasing, and is
    fixed exactly where the start and end heights agree as multisets; so on
    a weakly increasing start this reaches the least balanced increasing
    placement above it, whatever order the raises are made in.
    """
    ranks = list(ranks)
    while True:
        ends = sorted(r + b for r, b in zip(ranks, steps))
        raised = [max(r, e) for r, e in zip(ranks, ends)]
        if raised == ranks:
            return tuple(ranks)
        ranks = raised


def ref_hpath(steps, ranks, schedule: PermSchedule):
    """Unit-scan labeling tour: every label scans all columns for the
    rightmost unlabeled arrow at the walk's height.

    Returns the preimage steps and one ``(k, labels, stop_reason, ranks
    after)`` per round, each label being ``(round, i, column, level)`` with a
    1-based column.
    """
    n = len(steps)
    ranks = list(ranks)
    rounds = []
    budget = sum(ranks) + 1  # every restart lowers the total rank
    while True:
        zero_columns = [c for c in range(n) if ranks[c] == 0]
        k = len(zero_columns)
        perm = schedule.perm(k)
        labeled = [False] * n
        order = []
        labels = []
        level = 0
        zero_visits = 0
        stuck = False
        for i in range(1, n + 1):
            if level == 0:
                zero_visits += 1
                if zero_visits > k:
                    stuck = True
                    break
                j = zero_columns[perm.index(zero_visits)]
                assert not labeled[j]
            else:
                candidates = [c for c in range(n) if not labeled[c] and ranks[c] == level]
                if not candidates:
                    stuck = True
                    break
                j = max(candidates)
            labeled[j] = True
            order.append(j)
            labels.append((len(rounds) + 1, i, j + 1, ranks[j]))
            level = ranks[j] + steps[j]
        if not stuck:
            rounds.append((k, tuple(labels), "completed", tuple(ranks)))
            return tuple(steps[j] for j in order), rounds
        assert level == 0
        ranks = [r if labeled[c] else r - 1 for c, r in enumerate(ranks)]
        rounds.append((k, tuple(labels), "stuck-at-level-0", tuple(ranks)))
        assert len(rounds) <= budget


def ref_osweep(steps, schedule: PermSchedule | None = None) -> tuple[int, ...]:
    """Sort-based reference for the (order) sweep map."""
    n = len(steps)
    level = -sum(steps)
    ranks = []
    for b in steps:
        ranks.append(level)
        level += b
    order = sorted(range(n), key=lambda i: (ranks[i] < 0, ranks[i], -i))
    if schedule is not None:
        positions = [p for p in range(n) if ranks[order[p]] == 0]
        zero_cols = sorted(order[p] for p in positions)
        perm = schedule.perm(len(zero_cols))
        for p, value in zip(positions, perm):
            order[p] = zero_cols[value - 1]
    return tuple(steps[i] for i in order)


def ref_verify_bijection(spec, schedule: PermSchedule, forward=osweep, backward=inv_osweep) -> VerificationReport:
    """``verify_bijection`` on :class:`Path` objects, with the maps given as
    Path-level functions: the report the library must reproduce field for
    field."""
    if spec.kind not in (PathKind.DYCK, PathKind.INCOMPLETE):
        raise PreconditionError(
            f"verification covers dyck and incomplete families, not {spec.kind.value!r}"
        )
    forward_map, backward_map = forward, backward
    forward = cache(lambda p: forward_map(p, schedule))
    backward = cache(lambda p: backward_map(p, schedule))
    members = list(enumerate_paths(spec))
    family = set(members)
    images = [forward(p) for p in members]
    injective = len(set(images)) == len(members)
    closed = all(image in family for image in images)
    roundtrip = all(backward(image) == p for p, image in zip(members, images)) and all(
        forward(backward(p)) == p for p in members
    )
    passed = injective and closed and roundtrip
    counterexample = None
    if not passed:
        counterexample = next(
            (
                p.to_text()
                for p, image in zip(members, images)
                if image not in family or backward(image) != p or forward(backward(p)) != p
            ),
            None,
        )
    return VerificationReport(
        family=spec.multiset.to_text(),
        kind=spec.kind.value,
        size=len(members),
        schedule=schedule.name,
        injective=injective,
        closed=closed,
        roundtrip=roundtrip,
        passed=passed,
        counterexample=counterexample,
    )


def naive_family(values, kind: PathKind) -> list[tuple[int, ...]]:
    """Filter all distinct permutations of ``values`` by the kind's predicate."""
    keep = {
        PathKind.DYCK: loop_is_dyck,
        PathKind.FREE: lambda steps: sum(steps) == 0,
        PathKind.INCOMPLETE: loop_is_incomplete,
    }[kind]
    return sorted({perm for perm in permutations(values) if keep(perm)})


def random_schedule(seed: int, max_k: int = 10, default: str = "reverse") -> PermSchedule:
    """An explicit random table for sizes 1..max_k with a builtin fallback."""
    rng = random.Random(seed)
    table = {}
    for k in range(1, max_k + 1):
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        table[k] = perm
    return table_schedule(table, default=default, name=f"random(seed={seed})")


def random_dyck_path(rng: random.Random, max_value: int = 3) -> Path:
    """A random Dyck path with mixed step sizes (and occasional level steps)."""
    ups = [rng.randint(1, max_value) for _ in range(rng.randint(1, 4))]
    deficit = sum(ups)
    downs = []
    while deficit:
        d = rng.randint(1, min(max_value, deficit))
        downs.append(-d)
        deficit -= d
    steps = ups + downs + [0] * rng.randint(0, 2)
    for _ in range(60):
        rng.shuffle(steps)
        candidate = Path(steps)
        if candidate.is_dyck:
            return candidate
    return Path(sorted(steps, reverse=True))


def random_walk(rng: random.Random, n: int, max_step: int = 3) -> Path:
    """A Dyck path of about ``n`` steps: uniform steps in [-max_step,
    max_step], a step that would dip below zero is redrawn, and the walk is
    closed by down steps."""
    steps = []
    level = 0
    while len(steps) < n:
        b = rng.randint(-max_step, max_step)
        if level + b >= 0:
            steps.append(b)
            level += b
    while level:
        b = min(max_step, level)
        steps.append(-b)
        level -= b
    return Path(steps)


def spiked_walk(rng: random.Random, n: int) -> Path:
    """A random walk of about ``n`` steps with three tall shapes,
    ``(2K,-K,-K)`` or ``(K,-1,K,-(2K-1))``, spliced in: balancing makes
    multi-row runs on them, which it does not on plain walks."""
    steps = list(random_walk(rng, n).steps)
    for _ in range(3):
        k = rng.randint(5, 40)
        at = rng.randrange(len(steps) + 1)
        steps[at:at] = rng.choice(((2 * k, -k, -k), (k, -1, k, -(2 * k - 1))))
    return Path(steps)


def random_diagram(rng: random.Random, max_n: int = 12) -> PathDiagram:
    """Arbitrary diagram: steps in [-5, 5], ranks in [0, 8], any order."""
    n = rng.randint(0, max_n)
    steps = [rng.randint(-5, 5) for _ in range(n)]
    ranks = [rng.randint(0, 8) for _ in range(n)]
    return PathDiagram(steps, ranks)


def random_positive_diagram(rng: random.Random, raises: int = 6) -> PathDiagram:
    """A weakly increasing diagram with Dyck steps and no end below zero.

    Starts from the minimal placement and applies random order-preserving
    raises, so it is a legitimate balancing input but rarely minimal.
    """
    path = random_dyck_path(rng)
    ranks = list(minimal_diagram(path).ranks)
    n = len(ranks)
    for _ in range(rng.randint(0, raises)):
        i = rng.randrange(n)
        if i == n - 1 or ranks[i] + 1 <= ranks[i + 1]:
            ranks[i] += 1
    return PathDiagram(path.steps, ranks)


def random_ranks_between(rng: random.Random, low, high) -> tuple[int, ...]:
    """A random weakly increasing sequence inside the box [low, high].

    Uniform per-coordinate draws, a left-to-right monotone repair, then a
    clamp into the box; both bounds being increasing keeps membership.
    """
    ranks = []
    prev = None
    for lo, hi in zip(low, high):
        value = rng.randint(lo, hi)
        if prev is not None:
            value = max(value, prev)
        value = min(value, hi)
        ranks.append(value)
        prev = value
    return tuple(ranks)


def stability_pool(rng: random.Random, size: int = 500) -> list[PathDiagram]:
    """Criterion 7's diagrams: ``hib`` images and balanced positive diagrams,
    each followed by its first downshift when its first labeling round
    strands."""
    pool = []
    while len(pool) < size:
        if rng.random() < 0.5:
            base = hib(random_dyck_path(rng), rng.choice((REVERSE, IDENTITY, CYCLE)))
        else:
            base, _ = vib(random_positive_diagram(rng))
        pool.append(base)
        _, trace = hpath(base, REVERSE)
        if trace.rounds[0].stop_reason != "completed" and len(pool) < size:
            pool.append(trace.rounds[0].diagram_after)
    return pool


def forbid_pipeline(monkeypatch) -> None:
    """Make the traced inversion pipeline fail the test if it is called, to
    show that the maps under test never hand over to it."""

    def unreachable(*args, **kwargs):
        raise AssertionError("the traced inversion pipeline was called")

    monkeypatch.setattr(sweepmap.invert, "invert_pipeline", unreachable)
