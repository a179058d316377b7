"""Sweep maps on incomplete Dyck paths.

An incomplete Dyck path sums to ``-a`` for some ``a > 0`` and stays at or
above height zero when started from height ``a``.  Its forward maps are
``osweep`` and ``sweep`` on its own connected drawing, which starts at ``a``.

Prefixing the up step ``a`` (completion) gives a Dyck path, and the order
sweep with schedule ``s`` equals strip-of-osweep-of-completion with the lift
of ``s``: the lift emits the added arrow first, which is what makes the two
agree (the tests check it).  Inversion takes the conjugated route, since the
inversion pipeline needs a Dyck path.
"""

from __future__ import annotations

from .errors import PreconditionError
from .invert import inv_osweep
from .paths import Path
from .schedules import PermSchedule
from .sweep import osweep, sweep


def _require_incomplete(path: Path, op: str) -> None:
    if not path.is_incomplete:
        raise PreconditionError(
            f"{op} needs an incomplete Dyck path (negative total, no dip "
            f"below zero from its start height), got {path.to_text()!r}"
        )


def complete(path: Path) -> Path:
    """Prefix the up step that closes the height deficit, yielding a Dyck path."""
    _require_incomplete(path, "complete")
    return Path((path.start_level, *path.steps))


def strip(path: Path) -> Path:
    """Drop the first step; inverse of :func:`complete`.

    The first step must be positive and the remainder must be an incomplete
    Dyck path whose deficit equals that first step.
    """
    if len(path) == 0:
        raise PreconditionError("strip needs a nonempty path")
    head, rest = path.steps[0], Path(path.steps[1:])
    if head <= 0:
        raise PreconditionError(f"strip needs a positive first step, got {head}")
    if not rest.is_incomplete or rest.start_level != head:
        raise PreconditionError(
            f"suffix of {path.to_text()!r} is not an incomplete Dyck path "
            f"with deficit {head}"
        )
    return rest


def sweep_incomplete(path: Path) -> Path:
    """The sweep map on an incomplete Dyck path."""
    _require_incomplete(path, "sweep_incomplete")
    return sweep(path)


def osweep_incomplete(path: Path, schedule: PermSchedule) -> Path:
    """The order sweep map on an incomplete Dyck path."""
    _require_incomplete(path, "osweep_incomplete")
    return osweep(path, schedule)


def inv_osweep_incomplete(
    path: Path, schedule: PermSchedule, *, checks: str = "error"
) -> Path:
    """Preimage of ``path`` under :func:`osweep_incomplete` with ``schedule``:
    the completion inverted under the lifted schedule, then stripped."""
    _require_incomplete(path, "inv_osweep_incomplete")
    return strip(inv_osweep(complete(path), schedule.lift(), checks=checks))
