"""Sweep maps on general Dyck paths, and how to invert them.

The sweep map re-reads a lattice path's steps in order of starting height;
the order sweep map generalizes it by letting a permutation schedule choose
the emission order at height zero.  Both permute every finite family of Dyck
paths with a fixed step multiset.  This package provides the forward maps,
an inversion pipeline built from balanced increasing path diagrams, the same
constructions conjugated onto incomplete Dyck paths, exhaustive enumeration
and verification tooling, and a CLI with SVG/ASCII figure output.
"""

from .errors import (
    BijectionError,
    FamilyCapExceeded,
    InvariantViolation,
    ParseError,
    PreconditionError,
    ScheduleError,
    StepLimitExceeded,
    SweepMapError,
)
from .families import (
    DEFAULT_CAP,
    EnumerationSpec,
    VerificationReport,
    enumerate_paths,
    family_size,
    oracle_invert,
    verify_bijection,
)
from .incomplete import (
    complete,
    inv_osweep_incomplete,
    osweep_incomplete,
    strip,
    sweep_incomplete,
)
from .invert import (
    HPathLabel,
    HPathRound,
    HPathTrace,
    InversionResult,
    VibMove,
    VibTrace,
    hpath,
    inv_osweep,
    invert_pipeline,
    is_stable,
    vib,
)
from .paths import (
    Path,
    PathDiagram,
    PathKind,
    RowCounts,
    StepMultiset,
    arrow_color,
    connected_diagram,
    is_balanced,
    minimal_diagram,
    parse_int_list,
    row_counts,
)
from .render import render_ascii, render_svg
from .schedules import CYCLE, IDENTITY, REVERSE, PermSchedule, builtin, table_schedule
from .sweep import hib, osweep, sweep, sweep_order

__version__ = "0.1.0"

__all__ = [
    "BijectionError",
    "CYCLE",
    "DEFAULT_CAP",
    "EnumerationSpec",
    "FamilyCapExceeded",
    "HPathLabel",
    "HPathRound",
    "HPathTrace",
    "IDENTITY",
    "InvariantViolation",
    "InversionResult",
    "ParseError",
    "Path",
    "PathDiagram",
    "PathKind",
    "PermSchedule",
    "PreconditionError",
    "REVERSE",
    "RowCounts",
    "ScheduleError",
    "StepLimitExceeded",
    "StepMultiset",
    "SweepMapError",
    "VerificationReport",
    "VibMove",
    "VibTrace",
    "arrow_color",
    "builtin",
    "complete",
    "connected_diagram",
    "enumerate_paths",
    "family_size",
    "hib",
    "hpath",
    "inv_osweep",
    "inv_osweep_incomplete",
    "invert_pipeline",
    "is_balanced",
    "is_stable",
    "minimal_diagram",
    "oracle_invert",
    "osweep",
    "osweep_incomplete",
    "parse_int_list",
    "render_ascii",
    "render_svg",
    "row_counts",
    "strip",
    "sweep",
    "sweep_incomplete",
    "sweep_order",
    "table_schedule",
    "verify_bijection",
    "vib",
    "__version__",
]
