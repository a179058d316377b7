"""Inverting the order sweep map.

The pipeline runs in three stages on a Dyck path ``D``:

1. place the arrows minimally (:func:`sweepmap.paths.minimal_diagram`);
2. raise arrows one height at a time until every row count vanishes
   (:func:`vib`);
3. walk the balanced diagram as a labeling tour that reads the preimage off
   column by column (:func:`hpath`).

Both algorithms log every move into a trace, and the facts their correctness
proofs rely on are re-checked at runtime as they go.  The ``checks`` argument
selects what happens when such a fact fails: ``"error"`` raises
:class:`~sweepmap.errors.InvariantViolation`, ``"off"`` skips the checks.  On
valid input the checks can never fire; they exist to turn latent bugs into
loud ones.

Cost: a balancing move is O(log n) (a heap of positive rows and a bisection
of the sorted ranks) and a labeling round is O(n) (one pointer per height).
Row counting and balancing still work one unit row and one unit move at a
time, so both stages remain linear in the step magnitudes |b|.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import NamedTuple, Sequence

from .errors import InvariantViolation, PreconditionError, StepLimitExceeded
from .paths import Path, PathDiagram, connected_diagram, is_balanced, minimal_diagram, row_counts
from .schedules import REVERSE, PermSchedule

CHECK_MODES = ("error", "off")


def _check(condition: bool, mode: str, message: str, *args) -> None:
    """Raise unless ``condition`` holds; ``message % args`` is built only then."""
    if not condition and mode != "off":
        raise InvariantViolation(message % args)


def _validate_mode(mode: str) -> str:
    if mode not in CHECK_MODES:
        raise PreconditionError(f"checks must be one of {CHECK_MODES}, got {mode!r}")
    return mode


class VibMove(NamedTuple):
    """One arrow raise: 1-based ``column`` left row ``row``, rank ``before -> after``."""

    step: int
    row: int
    column: int
    before: int
    after: int

    def as_record(self) -> dict:
        return self._asdict()


@dataclass(frozen=True)
class VibTrace:
    moves: tuple[VibMove, ...]
    initial_ranks: tuple[int, ...]
    final_ranks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.moves)


@dataclass(frozen=True)
class HPathLabel:
    """Label ``i`` placed on the arrow in 1-based ``column``, selected at ``level``."""

    round: int
    i: int
    column: int
    level: int

    def as_record(self) -> dict:
        return {
            "round": self.round,
            "i": self.i,
            "column": self.column,
            "level": self.level,
        }


@dataclass(frozen=True)
class HPathRound:
    """One labeling attempt: either it labels everything or it gets stuck at
    height zero, in which case every unlabeled arrow is shifted down one."""

    k: int
    labels: tuple[HPathLabel, ...]
    stop_reason: str  # "completed" | "stuck-at-level-0"
    diagram_after: PathDiagram


@dataclass(frozen=True)
class HPathTrace:
    rounds: tuple[HPathRound, ...]

    @property
    def labels(self) -> tuple[HPathLabel, ...]:
        return tuple(label for rnd in self.rounds for label in rnd.labels)


@dataclass(frozen=True)
class InversionResult:
    """Everything the inversion pipeline produced, traces included."""

    preimage: Path
    minimal: PathDiagram
    balanced: PathDiagram
    vib_trace: VibTrace
    hpath_trace: HPathTrace


def rank_leq(left: Sequence[int], right: Sequence[int]) -> bool:
    """Pointwise comparison of two rank sequences of equal length."""
    if len(left) != len(right):
        raise PreconditionError(
            f"rank sequences differ in length: {len(left)} vs {len(right)}"
        )
    return all(a <= b for a, b in zip(left, right))


def default_step_cap(diagram: PathDiagram) -> int:
    """Safety cap on balancing moves: ``N * (max end rank + N)``.

    Termination is proven, so the cap never binds on valid input; it only
    converts an implementation bug into a clean error.
    """
    n = len(diagram)
    top = max(diagram.end_ranks, default=0)
    return n * (top + n)


def vib(
    diagram: PathDiagram,
    *,
    checks: str = "error",
    step_cap: int | None = None,
) -> tuple[PathDiagram, VibTrace]:
    """Raise arrows until the diagram balances.

    Repeatedly: take the lowest row with positive count, take the rightmost
    arrow starting at that height, raise it one.  Stops when no row count is
    positive, at which point all counts are exactly zero.  The input must be
    weakly increasing with no arrow ending below height zero, and its steps
    must form a Dyck path.
    """
    mode = _validate_mode(checks)
    problems = []
    if not diagram.is_increasing:
        problems.append("ranks are not weakly increasing")
    if any(e < 0 for e in diagram.end_ranks):
        problems.append("an arrow ends below height zero")
    if not Path(diagram.steps).is_dyck:
        problems.append("steps do not form a Dyck path")
    if problems:
        raise PreconditionError("vib input rejected: " + "; ".join(problems))

    steps = diagram.steps
    n = len(steps)
    ranks = list(diagram.ranks)
    counts = dict(row_counts(diagram).counts())
    # Rows currently below zero; a count may rise out of this set but a row
    # that has ever been >= 0 must never drop below zero again.
    still_negative = {j for j, c in counts.items() if c < 0}
    # Min-heap holding every positive row; rows no longer positive are
    # dropped lazily when they reach the top.
    positive = [j for j, c in counts.items() if c > 0]
    heapify(positive)
    cap = default_step_cap(diagram) if step_cap is None else step_cap
    moves: list[VibMove] = []

    def bump(row: int, delta: int) -> None:
        value = counts.get(row, 0) + delta
        counts[row] = value
        if value >= 0:
            still_negative.discard(row)
            if delta > 0 and value == 1:  # just turned positive
                heappush(positive, row)
        else:
            _check(
                row in still_negative,
                mode,
                "row %d count dropped below zero after having been nonnegative",
                row,
            )

    while positive:
        row = positive[0]
        if counts[row] <= 0:
            heappop(positive)
            continue
        # Ranks stay weakly increasing, so the rightmost arrow starting at
        # ``row`` is the last one not above it.
        column = bisect_right(ranks, row) - 1
        if column < 0 or ranks[column] != row:
            # Provably impossible while a positive row exists; the loop
            # cannot continue, so this is a hard error in every mode.
            raise InvariantViolation(
                f"no arrow starts at working row {row}; diagram state is corrupt"
            )
        if len(moves) >= cap:
            raise StepLimitExceeded(
                f"balancing exceeded its safety cap of {cap} moves; "
                f"this indicates an implementation bug"
            )
        before = ranks[column]
        ranks[column] += 1
        _check(
            column == n - 1 or ranks[column] <= ranks[column + 1],
            mode,
            "raising column %d broke the weakly increasing order",
            column + 1,
        )
        b = steps[column]
        if b != 0:
            bump(row, -1)
            bump(row + b, +1)
        moves.append(VibMove(len(moves) + 1, row, column + 1, before, before + 1))

    _check(
        all(c == 0 for c in counts.values()),
        mode,
        "balancing stopped with a nonzero row count",
    )
    final = PathDiagram(steps, ranks)
    trace = VibTrace(
        moves=tuple(moves),
        initial_ranks=diagram.ranks,
        final_ranks=final.ranks,
    )
    return final, trace


def _validate_hpath_input(diagram: PathDiagram) -> None:
    problems = []
    if not diagram.is_increasing:
        problems.append("ranks are not weakly increasing")
    if any(r < 0 for r in diagram.ranks):
        problems.append("a rank is negative")
    if any(e < 0 for e in diagram.end_ranks):
        problems.append("an arrow ends below height zero")
    if not is_balanced(diagram):
        problems.append("the diagram is not balanced")
    if problems:
        raise PreconditionError("hpath input rejected: " + "; ".join(problems))


def hpath(
    diagram: PathDiagram,
    schedule: PermSchedule,
    *,
    checks: str = "error",
) -> tuple[Path, HPathTrace]:
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
    mode = _validate_mode(checks)
    _validate_hpath_input(diagram)
    steps = diagram.steps
    n = len(steps)
    ranks = list(diagram.ranks)
    rounds: list[HPathRound] = []
    round_budget = sum(ranks) + 1  # every restart lowers the total rank

    while True:
        zero_columns = [i for i in range(n) if ranks[i] == 0]
        k = len(zero_columns)
        inverse = schedule.inverse_perm(k)
        # The columns of one height form a contiguous block, labeled from its
        # right end, so one pointer per height tracks its rightmost unlabeled.
        rightmost = {r: c for c, r in enumerate(ranks)}
        labeled = [False] * n
        label_order: list[int] = []
        labels: list[HPathLabel] = []
        level = 0
        zero_visits = 0
        stuck = False

        for i in range(1, n + 1):
            if level == 0:
                zero_visits += 1
                if zero_visits > k:
                    stuck = True
                    break
                j = zero_columns[inverse[zero_visits - 1] - 1]
                if labeled[j]:
                    # A fresh visit index through a bijection cannot repeat a
                    # column; a hit here means corrupted input or schedule.
                    raise InvariantViolation(
                        f"height-zero selection landed on already-labeled column {j + 1}"
                    )
            else:
                j = rightmost.get(level, -1)
                if j < 0 or ranks[j] != level:
                    stuck = True
                    break
                rightmost[level] = j - 1
            labeled[j] = True
            label_order.append(j)
            labels.append(
                HPathLabel(round=len(rounds) + 1, i=i, column=j + 1, level=ranks[j])
            )
            level = ranks[j] + steps[j]

        if not stuck:
            final = PathDiagram(steps, ranks)
            rounds.append(
                HPathRound(k=k, labels=tuple(labels), stop_reason="completed", diagram_after=final)
            )
            preimage = Path(steps[j] for j in label_order)
            return preimage, HPathTrace(rounds=tuple(rounds))

        # Stuck state: everything the structure theory promises, re-checked.
        _check(level == 0, mode, "labeling walk stranded at height %d, not zero", level)
        _check(
            all(labeled[c] for c in zero_columns),
            mode,
            "stuck with an unlabeled height-zero arrow",
        )
        prefix = Path(steps[j] for j in label_order)
        _check(prefix.is_dyck, mode, "labeled prefix is not a Dyck path")
        _check(
            is_balanced(connected_diagram(prefix)),
            mode,
            "labeled prefix is not balanced",
        )
        leftover = PathDiagram(
            (steps[c] for c in range(n) if not labeled[c]),
            (ranks[c] for c in range(n) if not labeled[c]),
        )
        _check(is_balanced(leftover), mode, "unlabeled remainder is not balanced")

        for c in range(n):
            if not labeled[c]:
                ranks[c] -= 1
        shifted = PathDiagram(steps, ranks)
        _check(shifted.is_increasing, mode, "downshift broke the increasing order")
        _check(is_balanced(shifted), mode, "downshift broke balance")
        if k > 0:
            # With height-zero arrows present the first column keeps rank 0.
            _check(ranks[0] == 0, mode, "downshift moved the first rank off zero")
        rounds.append(
            HPathRound(
                k=k,
                labels=tuple(labels),
                stop_reason="stuck-at-level-0",
                diagram_after=shifted,
            )
        )
        if len(rounds) > round_budget:
            raise InvariantViolation(
                "labeling restarted more times than the total rank allows; "
                "this indicates an implementation bug"
            )


def is_stable(
    diagram: PathDiagram,
    schedule: PermSchedule = REVERSE,
    *,
    checks: str = "error",
) -> bool:
    """True iff the labeling tour finishes in its first round.

    The answer is a property of the diagram alone; the schedule only reorders
    the walk's departures from height zero.
    """
    _, trace = hpath(diagram, schedule, checks=checks)
    return trace.rounds[0].stop_reason == "completed"


def invert_pipeline(
    path: Path,
    schedule: PermSchedule,
    *,
    checks: str = "error",
    step_cap: int | None = None,
) -> InversionResult:
    """Run the full inversion (minimal placement, balancing, labeling tour).

    The balanced diagram reached from the minimal placement is always stable,
    so the labeling never restarts; that claim is itself checked.
    """
    mode = _validate_mode(checks)
    if not path.is_dyck:
        raise PreconditionError(
            f"inversion is defined for Dyck paths only, got {path.to_text()!r}"
        )
    minimal = minimal_diagram(path)
    balanced, vib_trace = vib(minimal, checks=checks, step_cap=step_cap)
    preimage, hpath_trace = hpath(balanced, schedule, checks=checks)
    _check(
        len(hpath_trace.rounds) == 1,
        mode,
        "balanced diagram from the minimal placement was not stable",
    )
    return InversionResult(
        preimage=preimage,
        minimal=minimal,
        balanced=balanced,
        vib_trace=vib_trace,
        hpath_trace=hpath_trace,
    )


def inv_osweep(path: Path, schedule: PermSchedule, *, checks: str = "error") -> Path:
    """The preimage of ``path`` under the order sweep map with ``schedule``."""
    return invert_pipeline(path, schedule, checks=checks).preimage
