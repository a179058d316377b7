"""Inverting the order sweep map.

The pipeline runs in three stages on a Dyck path ``D`` (on an incomplete
path, on its completion under the lifted schedule; see :func:`invert_pipeline`):

1. place the arrows minimally (:func:`sweepmap.paths.minimal_diagram`);
2. raise arrows one height at a time until every row count vanishes
   (:func:`vib`);
3. walk the balanced diagram as a labeling tour that reads the preimage off
   column by column (:func:`hpath`).

Each stage is a kernel on plain lists (``_balance``, ``_label``) that
:func:`vib`, :func:`hpath` and :func:`invert_pipeline` wrap in diagrams and
traces.  ``_inverse`` runs them straight through on a step tuple, building
neither; :func:`inv_osweep` and verification call it.  One refusal,
``_refuse``, names every problem of a bad stage input for every caller.
The facts their correctness proofs rely on are re-checked at runtime as they
go, always: a fact that fails raises
:class:`~sweepmap.errors.InvariantViolation`.  On valid input the checks can
never fire; they exist to turn latent bugs into loud ones.

Cost: :func:`vib` checks its input's order, lowest end and kind with
builtins, and each balancing kernel builds the starting state it reads
from the columns.  A labeling round that completes proves its input
valid, so :func:`hpath`, :func:`is_stable` and ``_inverse`` build the row
count's jumps (:func:`sweepmap.paths._jumps`, which
:func:`~sweepmap.paths.row_counts` and :func:`~sweepmap.paths.is_balanced`
read too) only to refuse or to restart; ``_inverse`` labels from
balancing's final ranks and the column pointers its kernel returns as they
are: the row kernel's list indexed by height, or the step-function
kernel's dictionary keyed by height.  Balancing makes its unit
moves in runs, raising one column over as many rows as the unit rule would
in a row.  A run finds its column in O(1)
from a pointer to the rightmost column at each height, and its working row
is handed on from the move before.  The rows balancing can touch reach from
the lowest start less the largest down step to the top rank plus the up
steps and the largest up step.  When they span at most ``2n + 64``, as on
paths with small steps, the row counts and pointers are lists indexed by
height, and a spent working row hands the search for the next one on
upward: a move is a few list reads and writes, and the search steps over
the rows of count at most zero between one working row and the next.
Otherwise balancing starts from the step function the jumps give over
breakpoints (the heights where arrows start or end), and reads a heap of
positive rows only after a multi-row run or once both rows a move changed
are spent.  Its heap operations and interval splits are its only O(log n)
parts, plus one step per interval a longer run crosses, all independent of
the step magnitudes |b|; how many runs a path needs depends on its shape.
Each run is logged as one int (two for a multi-row run); a labeling round
keeps its label order as ints.  The traces replay these into runs, unit
moves and labels only when read.  A labeling round is O(n).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from functools import cached_property
from heapq import heappop, heappush
from itertools import accumulate
from operator import add
from typing import NamedTuple, Sequence

from .errors import InvariantViolation, PreconditionError, StepLimitExceeded
from .paths import (
    Path,
    PathDiagram,
    PathKind,
    _jumps,
    _kind_of,
    _minimal_ranks,
    _Record,
    _require_kind,
    _step_function,
    _strip,
    complete,
    minimal_diagram,
)
from .schedules import REVERSE, PermSchedule

def _check(condition: bool, message: str, *args) -> None:
    """Raise unless ``condition`` holds; ``message % args`` is built only then."""
    if not condition:
        raise InvariantViolation(message % args)


class VibMove(NamedTuple):
    """One arrow raise: 1-based ``column`` left row ``row``, rank ``before -> after``."""

    step: int
    row: int
    column: int
    before: int
    after: int

    def as_record(self) -> dict:
        return self._asdict()


class VibMoves:
    """The unit moves of a balancing trace: ``len`` is their number, read off
    the ranks, and iteration builds one :class:`VibMove` per move from the
    trace's runs."""

    __slots__ = ("_trace",)

    def __init__(self, trace: VibTrace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        # every unit move raises one rank by one
        return sum(self._trace.final_ranks) - sum(self._trace.initial_ranks)

    def __iter__(self):
        step = 0
        for column, start, stop in self._trace.runs:
            for row in range(start, stop):
                step += 1
                yield VibMove(step, row, column, row, row + 1)


class VibTrace(_Record):
    """Balancing log over ``initial_ranks``: a unit move logs its 0-based
    column ``c``, a run of several unit moves on one column logs ``~c`` and
    then the rank it raised ``c`` to.  :attr:`runs` and :attr:`moves` replay
    the log, and only when read."""

    log: tuple[int, ...]
    initial_ranks: tuple[int, ...]
    final_ranks: tuple[int, ...]

    @cached_property
    def runs(self) -> tuple[tuple[int, int, int], ...]:
        """One ``(column, from, to)`` per run of unit moves that raised the
        1-based ``column`` from rank ``from`` to rank ``to``."""
        ranks = list(self.initial_ranks)
        runs = []
        entries = iter(self.log)
        for column in entries:
            if column < 0:
                column = ~column
                top = next(entries)
            else:
                top = ranks[column] + 1
            runs.append((column + 1, ranks[column], top))
            ranks[column] = top
        return tuple(runs)

    @property
    def moves(self) -> VibMoves:
        """The unit moves, one :class:`VibMove` per raise, in order; a fresh
        view on each read, as a cached one would form a reference cycle that
        keeps a dropped trace alive until the cycle collector runs."""
        return VibMoves(self)

    def __len__(self) -> int:
        return len(self.moves)


class HPathLabel(NamedTuple):
    """Label ``i`` placed on the arrow in 1-based ``column``, selected at ``level``."""

    round: int
    i: int
    column: int
    level: int

    def as_record(self) -> dict:
        return self._asdict()


class HPathRound(_Record):
    """Labeling attempt ``number``: either it labels everything or it gets
    stuck at height zero, in which case every unlabeled arrow is shifted down
    one.  ``order`` holds the labeled 0-based columns in label order, and
    :attr:`labels` is built from it only when read."""

    k: int
    order: tuple[int, ...]
    stop_reason: str  # "completed" | "stuck-at-level-0"
    diagram_after: PathDiagram
    number: int

    @cached_property
    def labels(self) -> tuple[HPathLabel, ...]:
        # a labeled column keeps its rank through the round's downshift
        ranks = self.diagram_after.ranks
        return tuple(HPathLabel(self.number, i, j + 1, ranks[j]) for i, j in enumerate(self.order, 1))


class HPathTrace(_Record):
    rounds: tuple[HPathRound, ...]


class InversionResult(_Record):
    """Everything the inversion pipeline produced, traces included; for an
    incomplete path, all but ``preimage`` are those of its completion."""

    preimage: Path
    minimal: PathDiagram
    balanced: PathDiagram
    vib_trace: VibTrace
    hpath_trace: HPathTrace


def _step_cap(n: int, top_rank: int, up: int) -> int:
    """Safety cap on the balancing moves of ``n`` arrows whose largest rank is
    ``top_rank`` and whose up steps sum to ``up``: ``n * (top_rank + up)``.

    Balancing stops at the least balanced placement above its start.  The
    sweep-ordered drawing of a Dyck path, lifted by the start's largest
    rank, is a balanced placement above the start whose ranks are all at
    most that rank plus the sum of the up steps, so the cap never binds on
    valid input; it only converts an implementation bug into a clean error.
    """
    return n * (top_rank + up)


def _run_length(points: list[int], count: dict[int, int], row: int, b: int, limit: int) -> int:
    """How many unit moves in a row, at most ``limit``, the balancing rule
    makes on the arrow of step ``b`` that starts at the working row ``row``.

    Move ``k`` of such a run works on row ``row + k``, and the run goes on
    while those rows have count 1: each drops to 0, so the lowest positive
    row moves up by one.  (The arrow can never pass a row of count 2 or
    more: it would leave that row positive with no arrow starting there.)
    A down arrow also adds one to row ``row + b + k``; the run stops where
    the negative rows from ``row + b`` end, so those rows stay at most 0.
    ``limit`` keeps the arrow the rightmost one at its working row and the
    two row ranges apart.
    """
    i = bisect_left(points, row)
    while count[points[i]] == 1 and points[i] < row + limit:
        i += 1
    length = min(points[i] - row, limit)
    if b < 0:
        end = row + b
        i = bisect_left(points, end)
        while count[points[i]] < 0 and points[i] < end + length:
            i += 1
        length = min(length, points[i] - end)
    return length


def _add_to_rows(
    points: list[int], count: dict[int, int], positive: list[int], lo: int, hi: int, delta: int
) -> list[int]:
    """Add ``delta`` to the count of rows ``[lo, hi)`` and return the new
    counts of the intervals there.  Intervals are split at both ends first,
    and every interval start that is or turns positive is pushed on the heap."""
    for row in (lo, hi):
        if row not in count:
            i = bisect_right(points, row)
            value = count[points[i - 1]] if i else 0
            points.insert(i, row)
            count[row] = value
            if value > 0:
                heappush(positive, row)
    values = []
    i = bisect_left(points, lo)
    while points[i] < hi:
        p = points[i]
        value = count[p] = count[p] + delta
        if value == 1 and delta > 0:
            heappush(positive, p)
        values.append(value)
        i += 1
    return values


def _refuse(op: str, steps: tuple[int, ...], ranks: list[int], dyck: bool = True) -> None:
    """Refuse the input of stage ``op``, ``"vib"`` (whose steps form a Dyck
    path if ``dyck``) or ``"hpath"``, with every problem the stage finds, in
    one order; return if it finds none."""
    found = {
        "ranks are not weakly increasing": ranks != sorted(ranks),
        "a rank is negative": op == "hpath" and min(ranks, default=0) < 0,
        "an arrow ends below height zero": min(map(add, ranks, steps), default=0) < 0,
        "steps do not form a Dyck path": not dyck,
        "the diagram is not balanced": op == "hpath" and any(_jumps(steps, ranks).values()),
    }
    problems = [problem for problem, hit in found.items() if hit]
    if problems:
        raise PreconditionError(f"{op} input rejected: " + "; ".join(problems))


def _balance(steps: tuple[int, ...], ranks: list[int]) -> tuple[list[int], list[int] | dict[int, int]]:
    """The balancing of :func:`vib` on plain lists: raise ``ranks`` in place,
    and return the log and the rightmost column at each height the final
    ranks hold (at other heights a pointer may be stale: -1 or a column now
    elsewhere, or missing), as the kernel keeps them: a list whose slot
    ``i`` holds height ``lo + i`` from :func:`_balance_rows`, a dictionary
    keyed by height from :func:`_balance_steps`.  The input, a Dyck path's
    steps on weakly increasing ranks with no arrow ending below zero, is
    not checked here.

    The rows balancing touches lie between the lowest start less the
    largest down step and the top rank plus the up steps (a bound on the
    final top rank, as :func:`_step_cap` argues) plus the largest up step.
    A span of at most ``2n + 64`` rows runs on lists indexed by height
    (:func:`_balance_rows`), the faster there; a taller one on the step
    function (:func:`_balance_steps`), whose time and memory do not grow
    with the step magnitudes.  Both make the same moves, log and checks.
    """
    n = len(steps)
    # steps that sum to zero climb by half their total magnitude
    up = sum(map(abs, steps)) >> 1
    top = ranks[-1] if n else 0  # increasing ranks peak at the last
    cap = _step_cap(n, top, up)
    widest = 2 * n + 64
    # the span is at least the up steps, so a tall diagram leaves at once
    if n and up <= widest:
        # The lowest row is the first rank or an arrow's end, which lies at
        # or above zero and at or above the first rank less the largest
        # down step.  A first rank at or below zero, as minimal ranks have,
        # is the lowest row, and the steps are not read for it.
        lo = ranks[0]
        if lo > 0:
            lo = min(lo, max(0, lo + min(steps)))
        hi = top + up + max(steps)
        if hi - lo <= widest:
            return _balance_rows(steps, ranks, cap, lo, hi - lo + 2)
    return _balance_steps(steps, ranks, cap)


def _balance_rows(
    steps: tuple[int, ...], ranks: list[int], cap: int, lo: int, size: int
) -> tuple[list[int], list[int]]:
    """:func:`_balance` with the row counts and column pointers in lists of
    ``size`` slots, built from the columns: slot ``i`` holds height
    ``lo + i``, and the ranks are shifted by ``-lo`` meanwhile.  The last
    slot's count is a sentinel 1 that ends the upward search for the
    working row.  The pointer list is returned as it ends."""
    if lo:
        ranks[:] = [r - lo for r in ranks]
    count = [0] * size
    rightmost = [-1] * size
    for column, (b, r) in enumerate(zip(steps, ranks)):
        rightmost[r] = column
        if b:
            count[r] += 1
            count[r + b] -= 1
    count = list(accumulate(count))
    sentinel = size - 1
    count[sentinel] = 1
    log: list[int] = []
    append = log.append
    last = len(steps) - 1
    moved = 0
    # The working row is the lowest positive row, so no row below it is
    # positive: when it is spent, the next one is found by scanning up.
    row = 0
    value = None

    while True:
        if value is None:
            while count[row] <= 0:
                row += 1
            if row == sentinel:
                break
            value = count[row]
        column = rightmost[row]
        if column < 0 or ranks[column] != row:
            raise InvariantViolation(
                f"no arrow starts at working row {row + lo}; diagram state is corrupt"
            )
        b = steps[column]
        top = row + 1
        # the run rule of :func:`_run_length`, row by row
        if value == 1 and (b > 1 or b < -1) and count[top] == 1 and (b > 0 or count[row + b] < 0):
            limit = b if b > 0 else -b
            if column < last:
                limit = min(limit, ranks[column + 1] - row)
            stop = row + limit
            while top < stop and count[top] == 1:
                top += 1
            if b < 0:
                end = stop = row + b
                stop += top - row
                while end < stop and count[end] < 0:
                    end += 1
                top = end - b
        moved += top - row
        if moved > cap:
            raise StepLimitExceeded(
                f"balancing exceeded its safety cap of {cap} moves; "
                f"this indicates an implementation bug"
            )
        ranks[column] = top
        rightmost[row] = column - 1
        if column == last or ranks[column + 1] != top:
            rightmost[top] = column
            if column != last and ranks[column + 1] < top:
                raise InvariantViolation(f"raising column {column + 1} broke the weakly increasing order")
        if top > row + 1:
            count[row:top] = lowered = [c - 1 for c in count[row:top]]
            count[row + b:top + b] = raised = [c + 1 for c in count[row + b:top + b]]
            _check(min(lowered) >= 0, "run on column %d took a row count below zero", column + 1)
            _check(
                b > 0 or max(raised) <= 0,
                "run on column %d made a row below its working rows positive",
                column + 1,
            )
            append(~column)
            append(top + lo)
            # every row below the run's top is now at most 0
            row = top
            value = None
        else:
            append(column)
            if b:
                value -= 1
                count[row] = value
                end = row + b
                end_value = count[end]
                count[end] = end_value + 1
                # A down arrow's end that turns positive lies below the
                # working row and takes its place; a spent row hands the
                # search on upward.
                if not end_value and b < 0:
                    row = end
                    value = 1
                elif not value:
                    row += 1
                    value = None

    count[sentinel] = 0
    _check(not any(count), "balancing stopped with a nonzero row count")
    if lo:
        ranks[:] = [r + lo for r in ranks]
    return log, rightmost


def _balance_steps(steps: tuple[int, ...], ranks: list[int], cap: int) -> tuple[list[int], dict[int, int]]:
    """:func:`_balance` on the row count as a step function over
    breakpoints, with the column pointers in a dictionary keyed by height:
    time and memory independent of the step magnitudes."""
    n = len(steps)
    rightmost = {r: j for j, r in enumerate(ranks)}

    # The row count as a step function: count[p] holds from breakpoint p up to
    # the next one.  Breakpoints are added, never removed, and the start and
    # end height of every arrow stay among them.
    count = _step_function(_jumps(steps, ranks))
    points = list(count)
    # Min-heap holding the start of every positive interval but the working
    # row; starts no longer positive are dropped lazily when they reach the
    # top.  Listed in increasing order, it is a heap already.
    positive = [p for p, c in count.items() if c > 0]
    log: list[int] = []
    append = log.append
    last = n - 1
    moved = 0
    # The working row (the lowest positive row) and its count, handed from
    # move to move; None when it must be read off the heap.
    row = value = None

    while True:
        if row is None:
            while positive and count[positive[0]] <= 0:
                heappop(positive)
            if not positive:
                break
            row = heappop(positive)
            value = count[row]
        column = rightmost.get(row, -1)
        if column < 0 or ranks[column] != row:
            # Provably impossible while a positive row exists (a stale
            # pointer is never read then); the loop cannot continue.
            raise InvariantViolation(
                f"no arrow starts at working row {row}; diagram state is corrupt"
            )
        b = steps[column]
        length = 1
        # The first two rows of a run decide most cases cheaply; on paths
        # with small steps nearly every run is a single move.
        if (
            value == 1
            and (b > 1 or b < -1)
            and count.get(row + 1, 1) == 1
            and (b > 0 or count[row + b] < 0)
        ):
            limit = b if b > 0 else -b
            if column < last:
                limit = min(limit, ranks[column + 1] - row)
            length = _run_length(points, count, row, b, limit)
        moved += length
        if moved > cap:
            raise StepLimitExceeded(
                f"balancing exceeded its safety cap of {cap} moves; "
                f"this indicates an implementation bug"
            )
        top = row + length
        ranks[column] = top
        # Columns leave a block from its right end and join one at its left
        # end or alone; an emptied block's pointer stays stale until a column
        # arrives there.
        rightmost[row] = column - 1
        if column == last or ranks[column + 1] != top:
            rightmost[top] = column
            if column != last and ranks[column + 1] < top:
                raise InvariantViolation(f"raising column {column + 1} broke the weakly increasing order")
        if length > 1:
            lowered = _add_to_rows(points, count, positive, row, top, -1)
            raised = _add_to_rows(points, count, positive, row + b, top + b, 1)
            _check(min(lowered) >= 0, "run on column %d took a row count below zero", column + 1)
            _check(
                b > 0 or max(raised) <= 0,
                "run on column %d made a row below its working rows positive",
                column + 1,
            )
            append(~column)
            append(top)
            row = None
        else:
            append(column)
            if b:
                # One unit move, inline: row ``row`` loses a segment end, row
                # ``row + b`` gains one; each is first split off its interval.
                above = row + 1
                if above not in count:
                    insort(points, above)
                    count[above] = value
                    heappush(positive, above)
                value -= 1
                count[row] = value
                end = row + b
                end_value = count[end]
                above = end + 1
                if above not in count:
                    insort(points, above)
                    count[above] = end_value
                    if end_value > 0:
                        heappush(positive, above)
                count[end] = end_value + 1
                # Hand the working row on.  Only rows ``row`` and ``end``
                # changed, and ``end`` turned positive exactly when it was 0
                # (no count below the working row is positive).  It is then
                # the lowest positive row if it lies below ``row``, or above
                # a spent ``row`` with no heap entry under it.  A row left
                # while positive goes on the heap; else the heap is read.
                if end_value:
                    if not value:
                        row = None
                elif b < 0:
                    if value:
                        heappush(positive, row)
                    row, value = end, 1
                elif value:
                    heappush(positive, end)
                elif not positive or positive[0] >= end:
                    row, value = end, 1
                else:
                    heappush(positive, end)
                    row = None

    _check(not any(count.values()), "balancing stopped with a nonzero row count")
    return log, rightmost


def vib(diagram: PathDiagram) -> tuple[PathDiagram, VibTrace]:
    """Raise arrows until the diagram balances.

    Repeatedly: take the lowest row with positive count, take the rightmost
    arrow starting at that height, raise it one.  Stops when no row count is
    positive, at which point all counts are exactly zero.  The input must be
    weakly increasing with no arrow ending below height zero, and its steps
    must form a Dyck path.

    Once an arrow is picked, every further move the rule would make on it,
    row after row, is made at once as one run.  The safety cap
    (:func:`_step_cap`) still counts unit moves.
    """
    steps = diagram.steps
    ranks = list(diagram.ranks)
    dyck = (diagram._kind if diagram._kind is not None else _kind_of(steps)) is PathKind.DYCK
    if not (dyck and ranks == sorted(ranks) and (not ranks or min(map(add, ranks, steps)) >= 0)):
        _refuse("vib", steps, ranks, dyck)
    log, _ = _balance(steps, ranks)
    final = PathDiagram._make(steps=steps, ranks=tuple(ranks), _kind=PathKind.DYCK)  # as the check made sure
    return final, VibTrace._make(log=tuple(log), initial_ranks=diagram.ranks, final_ranks=final.ranks)


def _label(
    steps: tuple[int, ...], ranks: Sequence[int], rightmost: list[int] | dict[int, int],
    inverse: tuple[int, ...],
) -> tuple[list[int], list[bool], int]:
    """One labeling round of :func:`hpath` on plain lists, whose height-zero
    columns are the first ``len(inverse)``; it consumes the ``rightmost``
    pointers, in either form :func:`_balance` returns, read by indexing.  A
    height with no pointer (a ``LookupError``) or a stale one ends the
    walk; so does a height below zero, whose list slot counts from the end
    and so is stale, as no rank is negative.  Returns the columns in label
    order, which columns are labeled, and the height the walk stopped at;
    the round completed when every column is labeled."""
    labeled = [False] * len(steps)
    order: list[int] = []
    k = len(inverse)
    level = zero_visits = 0
    for _ in steps:
        if level == 0:
            if zero_visits == k:
                break
            j = inverse[zero_visits] - 1
            zero_visits += 1
            if labeled[j]:
                # A fresh visit index through a bijection cannot repeat a
                # column; a hit here means corrupted input or schedule.
                raise InvariantViolation(f"height-zero selection landed on already-labeled column {j + 1}")
        else:
            try:
                j = rightmost[level]
            except LookupError:  # no pointer at that height
                break
            if j < 0 or ranks[j] != level:
                break
            rightmost[level] = j - 1
        labeled[j] = True
        order.append(j)
        level = ranks[j] + steps[j]
    return order, labeled, level


def _first_round(
    steps: tuple[int, ...], ranks: list[int], schedule: PermSchedule
) -> tuple[list[int], list[bool], int]:
    """The first labeling round, as :func:`_label` returns it, once the
    diagram passed :func:`hpath`'s input check, which refuses it otherwise.
    The round runs on steps that sum to zero and ranks that weakly increase
    from zero or above; if it completes, it walks from zero through every
    arrow, each starting where the last ended, back to zero, so the start
    and end heights agree and none is below zero: the check would pass."""
    if not sum(steps) and ranks == sorted(ranks) and (not ranks or ranks[0] >= 0):
        k = bisect_right(ranks, 0)  # the ranks increase from 0: columns 0..k-1 are at 0
        labeling = _label(steps, ranks, {r: j for j, r in enumerate(ranks)}, schedule.inverse_perm(k))
        if len(labeling[0]) == len(steps):
            return labeling
    # steps that do not sum to zero leave a row count nonzero, so input that
    # skipped the round is always refused here
    _refuse("hpath", steps, ranks)
    return labeling


def hpath(diagram: PathDiagram, schedule: PermSchedule) -> tuple[Path, HPathTrace]:
    """Reconstruct the order-sweep preimage of a balanced increasing diagram.

    Each round walks the diagram from height zero: at height zero the next
    arrow is picked by the inverse schedule among the height-zero arrows
    (counted left to right, labeled or not); at any other height it is the
    rightmost unlabeled arrow starting there.  Labeling arrow ``j`` with ``i``
    moves the walk to that arrow's end height.  If the walk strands (only
    possible back at height zero), every unlabeled arrow shifts down one and
    the round restarts.  Whatever schedule is supplied, whether the first
    round completes depends only on the diagram.

    Returns the preimage (columns read in label order) plus the full trace.
    The order sweep of the result equals the diagram's step sequence.
    """
    steps = diagram.steps
    n = len(steps)
    ranks = list(diagram.ranks)
    rounds: list[HPathRound] = []
    order, labeled, level = _first_round(steps, ranks, schedule)
    k = bisect_right(ranks, 0)
    round_budget = sum(ranks) + 1  # every restart lowers the total rank
    # Restart until a round completes.  The columns of one height form a
    # block labeled from its right end: one pointer tracks its rightmost.
    while len(order) < n:
        # Stuck state: everything the structure theory promises, re-checked.
        _check(level == 0, "labeling walk stranded at height %d, not zero", level)
        _check(
            all(labeled[:k]),
            "stuck with an unlabeled height-zero arrow",
        )
        prefix = tuple([steps[j] for j in order])
        _check(_kind_of(prefix) is PathKind.DYCK, "labeled prefix is not a Dyck path")
        # drawn connected, the Dyck prefix starts at height zero
        _check(
            not any(_jumps(prefix, accumulate(prefix, initial=0)).values()),
            "labeled prefix is not balanced",
        )
        left = [c for c in range(n) if not labeled[c]]
        _check(
            not any(_jumps([steps[c] for c in left], [ranks[c] for c in left]).values()),
            "unlabeled remainder is not balanced",
        )

        for c in left:
            ranks[c] -= 1
        _check(ranks == sorted(ranks), "downshift broke the increasing order")
        _check(not any(_jumps(steps, ranks).values()), "downshift broke balance")
        if k > 0:
            # With height-zero arrows present the first column keeps rank 0.
            _check(ranks[0] == 0, "downshift moved the first rank off zero")
        after = PathDiagram._make(steps=steps, ranks=tuple(ranks), _kind=diagram._kind)
        rounds.append(HPathRound._make(
            k=k, order=tuple(order), stop_reason="stuck-at-level-0", diagram_after=after,
            number=len(rounds) + 1,
        ))
        if len(rounds) > round_budget:
            raise InvariantViolation(
                "labeling restarted more times than the total rank allows; "
                "this indicates an implementation bug"
            )
        k = bisect_right(ranks, 0)
        rightmost = {r: j for j, r in enumerate(ranks)}
        order, labeled, level = _label(steps, ranks, rightmost, schedule.inverse_perm(k))

    # A first round leaves the ranks as they came, so it keeps the input.
    final = PathDiagram._make(steps=steps, ranks=tuple(ranks), _kind=diagram._kind) if rounds else diagram
    rounds.append(HPathRound._make(
        k=k, order=tuple(order), stop_reason="completed", diagram_after=final, number=len(rounds) + 1
    ))
    return Path._make(steps=tuple([steps[j] for j in order])), HPathTrace._make(rounds=tuple(rounds))


def is_stable(diagram: PathDiagram, schedule: PermSchedule = REVERSE) -> bool:
    """True iff the labeling tour of :func:`hpath` finishes in its first round.

    One round runs, with no restart and no trace, and the input is checked
    as :func:`hpath` checks it unless the round completes, which proves it
    valid: O(n) whatever the ranks.  The answer is a
    property of the diagram alone; the schedule only reorders the walk's
    departures from height zero.
    """
    return len(_first_round(diagram.steps, list(diagram.ranks), schedule)[0]) == len(diagram.steps)


def invert_pipeline(
    path: Path,
    schedule: PermSchedule,
    *,
    checks: str = "error",
) -> InversionResult:
    """Run the full inversion (minimal placement, balancing, labeling tour).

    Takes a Dyck or an incomplete Dyck path; an incomplete one runs on its
    completion under ``schedule.lift()`` and its preimage is stripped.  The
    balanced diagram reached from the minimal placement is always stable, so
    the labeling never restarts; that claim is itself checked.  The
    invariant checks always run, and ``checks`` takes only ``"error"``.
    """
    if checks != "error":
        raise PreconditionError(f"checks must be 'error', got {checks!r}")
    _require_kind(path, "inversion", PathKind.DYCK, PathKind.INCOMPLETE)
    dyck = path
    if path._kind is PathKind.INCOMPLETE:  # as _require_kind decided it
        dyck, schedule = complete(path), schedule.lift()
    minimal = minimal_diagram(dyck)
    balanced, vib_trace = vib(minimal)
    preimage, hpath_trace = hpath(balanced, schedule)
    _check(
        len(hpath_trace.rounds) == 1,
        "balanced diagram from the minimal placement was not stable",
    )
    return InversionResult._make(
        preimage=preimage if dyck is path else Path._make(steps=_strip(preimage.steps)),
        minimal=minimal,
        balanced=balanced,
        vib_trace=vib_trace,
        hpath_trace=hpath_trace,
    )


def inv_osweep(path: Path, schedule: PermSchedule) -> Path:
    """The preimage of ``path``, a Dyck or an incomplete Dyck path, under the
    order sweep map with ``schedule``.

    The stages of :func:`invert_pipeline` on the step tuple, with no diagram
    or trace built.  An incomplete path runs completed, as
    ``(-sum(steps), *steps)``, under the lifted schedule, and its
    preimage's suffix is stripped and checked.  Balancing hands its final
    ranks and column pointers straight to one labeling round.  A round that
    completes on increasing ranks from zero walks a closed path through
    every arrow, so the diagram was balanced.  Valid input gives nothing
    else; otherwise the balanced ranks are checked as :func:`hpath` checks
    its input, and a stranded round on ranks that pass raises
    :class:`~sweepmap.errors.InvariantViolation`.
    """
    return Path._make(steps=_inverse(path.steps, path.classify(), schedule))


def _inverse(steps: tuple[int, ...], kind: PathKind, schedule: PermSchedule) -> tuple[int, ...]:
    """:func:`inv_osweep` on a step tuple of kind ``kind``; it builds a
    :class:`Path` only to refuse a kind the map does not take."""
    dyck = steps
    if kind is PathKind.INCOMPLETE:
        dyck, schedule = (-sum(steps), *steps), schedule.lift()
    elif kind is not PathKind.DYCK:
        _require_kind(Path(steps), "inversion", PathKind.DYCK, PathKind.INCOMPLETE)
    ranks = _minimal_ranks(dyck)
    # minimal ranks increase from zero up and end at or above zero, and the
    # kind makes the completion a Dyck path, so balancing's input needs no
    # check, and the row kernel's pointer list is indexed by height
    _, rightmost = _balance(dyck, ranks)
    # screened as :func:`_first_round` screens; the completion sums to zero
    if ranks == sorted(ranks) and (not ranks or ranks[0] >= 0):
        order = _label(dyck, ranks, rightmost, schedule.inverse_perm(bisect_right(ranks, 0)))[0]
        if len(order) == len(dyck):
            preimage = tuple([dyck[j] for j in order])
            return preimage if dyck is steps else _strip(preimage)
    _refuse("hpath", dyck, ranks)
    raise InvariantViolation("balanced diagram from the minimal placement was not stable")
