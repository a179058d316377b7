"""Forward maps: the order sweep map and its special case, the sweep map.

The order sweep map re-emits the arrows of a path sorted by starting height
(heights 0, 1, 2, ... first, then the negative heights from the bottom up)
and breaks ties within a height right to left, except at height zero, where
a permutation schedule chooses the order.  The sweep map is the order sweep
map with the reverse schedule.  The starting heights are those of the path's
own connected drawing (ending at height zero), so the same routine covers
Dyck, free and incomplete paths alike.

The emission is a stable bucket sort by starting height, never a comparison
sort, so the tie order is controlled explicitly.
"""

from __future__ import annotations

from bisect import bisect_left

from .paths import Path, PathDiagram, PathKind, _require_kind
from .schedules import REVERSE, PermSchedule


def _emission_order(steps: tuple[int, ...], schedule: PermSchedule) -> list[int]:
    """0-based column emission order of the connected drawing of ``steps``."""
    # scanned right to left down from the end height 0, so every bucket
    # already lists its ties in emission order; the height-zero arrows
    # C_1..C_k sit reversed in theirs
    buckets: dict[int, list[int]] = {}
    rank = 0
    for column in range(len(steps) - 1, -1, -1):
        rank -= steps[column]
        if rank in buckets:
            buckets[rank].append(column)
        else:
            buckets[rank] = [column]
    zero = buckets.pop(0, None)
    order = [zero[-p] for p in schedule.perm(len(zero))] if zero else []
    heights = sorted(buckets)
    split = bisect_left(heights, 0)
    for height in heights[split:] + heights[:split]:
        order += buckets[height]
    return order


def sweep_order(path: Path, schedule: PermSchedule = REVERSE) -> tuple[int, ...]:
    """Emission order of the path's arrows as 1-based column indices.

    All ties break right to left except in the height-zero group, which
    follows the schedule.  The result is always a permutation of 1..N.
    """
    order = _emission_order(path.steps, schedule)
    return tuple(column + 1 for column in order)


def sweep(path: Path) -> Path:
    """The sweep map: emit arrows by starting height, ties right to left.

    This is :func:`osweep` with the reverse schedule.
    """
    return osweep(path, REVERSE)


def osweep(path: Path, schedule: PermSchedule) -> Path:
    """The order sweep map.

    Defined for any integer sequence, drawn connected so that it ends at
    height zero.  If ``C_1..C_k`` are the height-zero arrows left to right,
    position ``j`` of that group emits ``C_{perm(j)}``; every other height
    emits right to left.
    """
    return Path(_osweep(path.steps, schedule))


def _osweep(steps: tuple[int, ...], schedule: PermSchedule) -> tuple[int, ...]:
    """:func:`osweep` on a step tuple."""
    return tuple([steps[i] for i in _emission_order(steps, schedule)])


def hib(path: Path, schedule: PermSchedule) -> PathDiagram:
    """Re-column the arrows of a Dyck path into emission order, keeping each
    arrow's original starting height.

    The result is a weakly increasing balanced diagram whose step sequence is
    exactly ``osweep(path, schedule)``; it is the geometric bridge between the
    forward map and its inversion.
    """
    _require_kind(path, "hib", PathKind.DYCK)
    ranks = path.connected_ranks()
    order = _emission_order(path.steps, schedule)
    return PathDiagram(
        (path.steps[i] for i in order),
        (ranks[i] for i in order),
    )
