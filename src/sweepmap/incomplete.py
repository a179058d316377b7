"""Sweep maps on incomplete Dyck paths.

An incomplete Dyck path sums to ``-a`` for some ``a > 0`` and stays at or
above height zero when started from height ``a``.  Its forward maps are
``osweep`` and ``sweep`` on its own connected drawing, which starts at ``a``.

Prefixing the up step ``a`` (:func:`complete`) gives a Dyck path, and the
order sweep with schedule ``s`` equals strip-of-osweep-of-completion with the
lift of ``s``: the lift emits the added arrow first, which is what makes the
two agree (the tests check it).  ``inv_osweep`` and
:func:`~sweepmap.invert.invert_pipeline` invert an incomplete path along that
conjugation; the wrappers here only add the kind check every entry shares.
"""

from __future__ import annotations

from .invert import inv_osweep
from .paths import Path, PathKind, _require_kind, complete, strip  # noqa: F401 (re-exported)
from .schedules import PermSchedule
from .sweep import osweep, sweep


def sweep_incomplete(path: Path) -> Path:
    """The sweep map on an incomplete Dyck path."""
    _require_kind(path, "sweep_incomplete", PathKind.INCOMPLETE)
    return sweep(path)


def osweep_incomplete(path: Path, schedule: PermSchedule) -> Path:
    """The order sweep map on an incomplete Dyck path."""
    _require_kind(path, "osweep_incomplete", PathKind.INCOMPLETE)
    return osweep(path, schedule)


def inv_osweep_incomplete(path: Path, schedule: PermSchedule) -> Path:
    """Preimage of ``path`` under :func:`osweep_incomplete` with ``schedule``."""
    _require_kind(path, "inv_osweep_incomplete", PathKind.INCOMPLETE)
    return inv_osweep(path, schedule)
