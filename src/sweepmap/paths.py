"""Integer lattice paths, path diagrams, and row-count geometry.

A path is a finite sequence of integer steps ``b_1..b_N``; step ``i`` is
drawn as the arrow ``(1, b_i)``.  A path diagram places arrow ``i`` in column
``i`` starting at height ``ranks[i]``, so the same step sequence can be drawn
connected or pulled apart vertically.  Row ``j`` is the horizontal strip
between heights ``j`` and ``j+1``; its count is the number of up-arrow
segments crossing it minus the number of down-arrow segments.  A diagram is
*balanced* when every row count is zero, the pivotal property for inverting
the sweep maps defined in :mod:`sweepmap.sweep`.  The counts form a step
function built one way only, from the jump table :func:`_jumps` records
(+1 where an arrow starts, -1 where it ends), which :func:`row_counts`,
:func:`is_balanced` and the inversion in :mod:`sweepmap.invert` (the
labeling's input check and restarts, and tall-diagram balancing) all
read.  :func:`complete` and :func:`strip` carry incomplete Dyck paths to
Dyck paths and back.

All values here are immutable and all operations are pure functions, so they
can be shared freely across threads.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ParseError, PreconditionError

_INT_TOKEN = re.compile(r"[+-]?\d+$")
_MULTISET_TOKEN = re.compile(r"(?P<value>[+-]?\d+)(?:\^(?P<mult>\d+))?$")


def parse_int_list(text: str, label: str = "value") -> tuple[int, ...]:
    """Parse comma-separated signed integers; whitespace is ignored.

    An empty (or all-whitespace) string parses to the empty tuple.
    """
    compact = "".join(text.split())
    if not compact:
        return ()
    values = []
    for token in compact.split(","):
        if not _INT_TOKEN.match(token):
            raise ParseError(f"invalid {label} token {token!r} in {text!r}")
        values.append(int(token))
    return tuple(values)


class PathKind(Enum):
    """Coarse label for an integer step sequence, decided by :meth:`Path.classify`.

    DYCK: sums to zero and never dips below its start height.
    INCOMPLETE: sums to a negative value -a and never dips below zero when
    started from height a (so it still ends at height 0).
    OTHER: positive total, or a dip below the start height.
    FREE names whole families (every reordering of a zero-sum multiset) for
    enumeration purposes; ``classify`` reports a dipping zero-sum sequence as
    OTHER, so use :attr:`Path.is_free` when you need the plain predicate.
    """

    DYCK = "dyck"
    FREE = "free"
    INCOMPLETE = "incomplete"
    OTHER = "other"


@dataclass(frozen=True)
class Path:
    """An immutable sequence of integer steps."""

    steps: tuple[int, ...]

    def __init__(self, steps: Iterable[int] = ()) -> None:
        object.__setattr__(self, "steps", tuple(map(operator.index, steps)))

    @classmethod
    def _trusted(cls, steps: tuple[int, ...], kind: PathKind | None = None) -> "Path":
        """A path on an int tuple the library built, of ``kind`` if known, taken as is."""
        path = object.__new__(cls)
        object.__setattr__(path, "__dict__", {"steps": steps, "_kind": kind})
        return path

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[int]:
        return iter(self.steps)

    def __getitem__(self, index):
        return self.steps[index]

    @property
    def total(self) -> int:
        return sum(self.steps)

    @property
    def start_level(self) -> int:
        """Height the connected drawing starts at so that it ends at height 0."""
        return -self.total

    def connected_ranks(self) -> tuple[int, ...]:
        """Starting height of each arrow when the path is drawn connected."""
        return tuple(accumulate(self.steps, initial=-sum(self.steps)))[:-1]

    def type_of(self) -> "StepMultiset":
        """The multiset of step values."""
        return StepMultiset.from_steps(self.steps)

    @property
    def is_free(self) -> bool:
        return self.total == 0

    @property
    def is_dyck(self) -> bool:
        return self.classify() is PathKind.DYCK

    @property
    def is_incomplete(self) -> bool:
        return self.classify() is PathKind.INCOMPLETE

    _kind = None  # set by classify(); not a field, and cheaper than a cached_property

    def classify(self) -> PathKind:
        """DYCK, INCOMPLETE or OTHER, decided on the first call and kept on the path."""
        if self._kind is None:
            object.__setattr__(self, "_kind", _kind_of(self.steps))
        return self._kind

    @classmethod
    def from_text(cls, text: str) -> "Path":
        """Parse the comma-separated form, e.g. ``"2,0,2,-3,1,-2"``."""
        return cls(parse_int_list(text, label="step"))

    def to_text(self) -> str:
        return ",".join(str(b) for b in self.steps)


def _kind_of(steps: tuple[int, ...]) -> PathKind:
    """DYCK, INCOMPLETE or OTHER for a step sequence, in one scan: Dyck and
    incomplete paths never dip below the height they end at."""
    low, end = min(accumulate(steps, initial=0)), sum(steps)
    return PathKind.OTHER if low != end else PathKind.DYCK if end == 0 else PathKind.INCOMPLETE


def _require_kind(path: Path, op: str, *kinds: PathKind) -> None:
    """Refuse ``path`` for ``op`` unless it classifies as one of ``kinds``."""
    kind = path.classify()
    if kind not in kinds:
        wanted = " or ".join(k.value for k in kinds)
        raise PreconditionError(f"{op} takes {wanted} paths; {path.to_text()!r} classifies as {kind.value}")


def complete(path: Path) -> Path:
    """Prefix the up step that closes the height deficit, yielding a Dyck path."""
    _require_kind(path, "complete", PathKind.INCOMPLETE)
    return Path._trusted((path.start_level, *path.steps), PathKind.DYCK)  # as completing makes it


def strip(path: Path) -> Path:
    """Drop the first step; inverse of :func:`complete`.

    The first step must be positive and the remainder must be an incomplete
    Dyck path whose deficit equals that first step.
    """
    return Path(_strip(path.steps))


def _strip(steps: tuple[int, ...]) -> tuple[int, ...]:
    """:func:`strip` on a step tuple, with the same checks and messages."""
    if not steps:
        raise PreconditionError("strip needs a nonempty path")
    head, rest = steps[0], steps[1:]
    if head <= 0:
        raise PreconditionError(f"strip needs a positive first step, got {head}")
    if _kind_of(rest) is not PathKind.INCOMPLETE or -sum(rest) != head:
        raise PreconditionError(
            f"suffix of {','.join(map(str, steps))!r} is not an incomplete Dyck path "
            f"with deficit {head}"
        )
    return rest


def arrow_color(step: int) -> str:
    """Drawing color of an arrow: up steps red, down blue, level purple."""
    if step > 0:
        return "red"
    if step < 0:
        return "blue"
    return "purple"


@dataclass(frozen=True)
class PathDiagram:
    """Steps paired with the starting height of each column's arrow."""

    steps: tuple[int, ...]
    ranks: tuple[int, ...]

    _kind = None  # the steps' kind, kept from a path that had decided it; not a field

    def __init__(self, steps: Iterable[int], ranks: Iterable[int]) -> None:
        object.__setattr__(self, "steps", tuple(map(operator.index, steps)))
        object.__setattr__(self, "ranks", tuple(map(operator.index, ranks)))
        if len(self.steps) != len(self.ranks):
            raise PreconditionError(
                f"diagram needs one rank per step: {len(self.steps)} steps, "
                f"{len(self.ranks)} ranks"
            )

    @classmethod
    def _trusted(cls, steps: tuple[int, ...], ranks: tuple[int, ...], kind: PathKind | None = None) -> "PathDiagram":
        """A diagram on int tuples of one length the library built, of ``kind`` if known, taken as is."""
        diagram = object.__new__(cls)
        object.__setattr__(diagram, "__dict__", {"steps": steps, "ranks": ranks, "_kind": kind})
        return diagram

    def __len__(self) -> int:
        return len(self.steps)

    @cached_property
    def end_ranks(self) -> tuple[int, ...]:
        return tuple(r + b for r, b in zip(self.ranks, self.steps))

    @property
    def is_increasing(self) -> bool:
        return all(a <= b for a, b in zip(self.ranks, self.ranks[1:]))

    @property
    def is_positive(self) -> bool:
        return self.is_increasing and all(e >= 0 for e in self.end_ranks)


def _jumps(steps: Iterable[int], ranks: Iterable[int]) -> dict[int, int]:
    """The row count's jumps: +1 where an arrow starts, -1 where it ends
    (level arrows add none).

    The jumps are the one source of row counts: ``count(j)`` is the sum of
    the jumps at heights up to ``j``.
    """
    jump: dict[int, int] = {}
    for b, r in zip(steps, ranks):
        if b:
            jump[r] = jump.get(r, 0) + 1
            jump[r + b] = jump.get(r + b, 0) - 1
    return jump


def _step_function(jump: dict[int, int]) -> dict[int, int]:
    """The row count on each interval ``[p, q)`` between consecutive
    breakpoints of the jumps, keyed by ``p`` in increasing order; the count
    is zero below the first point and from the last one on.  Two
    breakpoints per arrow: O(n log n) in the number of arrows, whatever the
    step sizes."""
    count = {}
    total = 0
    for p in sorted(jump):
        total += jump[p]
        count[p] = total
    return count


class RowCounts:
    """Per-row counts; rows never touched count as zero.

    Built by :func:`row_counts`.  The counts are kept per breakpoint
    interval, so a lookup is a bisection.
    """

    __slots__ = ("_points", "_counts")

    def __init__(self, points: list[int], counts: list[int]) -> None:
        self._points = points
        self._counts = counts

    def count(self, row: int) -> int:
        i = bisect_right(self._points, row) - 1
        return self._counts[i] if i >= 0 else 0


def row_counts(diagram: PathDiagram) -> RowCounts:
    """Up segments minus down segments per row.

    An up arrow from height ``r`` covers rows ``r .. r+b-1``, a down arrow
    rows ``r+b .. r-1``, and a level arrow none.
    """
    count = _step_function(_jumps(diagram.steps, diagram.ranks))
    return RowCounts(list(count), list(count.values()))


def is_balanced(diagram: PathDiagram) -> bool:
    """True iff every row count of the diagram is zero.

    ``count(j) - count(j-1)`` is the jump at height ``j``, and the counts
    are zero below every arrow, so every count vanishes exactly when every
    jump does.
    """
    return not any(_jumps(diagram.steps, diagram.ranks).values())


def minimal_diagram(path: Path) -> PathDiagram:
    """The pointwise-least weakly increasing placement with no arrow ending
    below height zero.

    Ranks follow ``r_1 = max(0, -b_1)`` and ``r_{i+1} = max(r_i, -b_{i+1})``.
    The diagram keeps the path's kind if the path has decided it.
    """
    return PathDiagram._trusted(path.steps, tuple(_minimal_ranks(path.steps)), path._kind)


def _minimal_ranks(steps: Sequence[int]) -> list[int]:
    """The ranks of :func:`minimal_diagram`, as a list."""
    ranks = []
    prev = 0
    for b in steps:
        prev = -b if -b > prev else prev
        ranks.append(prev)
    return ranks


def connected_diagram(path: Path) -> PathDiagram:
    """The diagram of the path drawn connected, ending at height zero."""
    return PathDiagram(path.steps, path.connected_ranks())


@dataclass(frozen=True)
class StepMultiset:
    """A multiset of step values, stored as (value, multiplicity) pairs."""

    entries: tuple[tuple[int, int], ...]

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> None:
        merged: Counter[int] = Counter()
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        for value, mult in pairs:
            value = operator.index(value)
            mult = operator.index(mult)
            if mult <= 0:
                raise PreconditionError(f"multiplicity of {value} must be positive, got {mult}")
            merged[value] += mult
        normalized = tuple(sorted(merged.items(), key=lambda vm: -vm[0]))
        object.__setattr__(self, "entries", normalized)

    @classmethod
    def from_steps(cls, steps: Iterable[int]) -> "StepMultiset":
        return cls(Counter(steps))

    @classmethod
    def from_text(cls, text: str) -> "StepMultiset":
        """Parse ``value^multiplicity`` terms, ``^1`` omissible: ``"1^3,-1^3"``."""
        compact = "".join(text.split())
        if not compact:
            return cls()
        pairs = []
        for token in compact.split(","):
            m = _MULTISET_TOKEN.match(token)
            if not m:
                raise ParseError(f"invalid multiset token {token!r} in {text!r}")
            pairs.append((int(m.group("value")), int(m.group("mult") or 1)))
        return cls(pairs)

    def to_text(self) -> str:
        return ",".join(
            f"{v}^{m}" if m > 1 else str(v) for v, m in self.entries
        )

    def counts(self) -> dict[int, int]:
        return dict(self.entries)

    @property
    def total(self) -> int:
        return sum(v * m for v, m in self.entries)

    @property
    def size(self) -> int:
        return sum(m for _, m in self.entries)
