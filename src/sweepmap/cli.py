"""Command-line interface.

One binary with subcommands; ``--json`` switches any of them to a stable
machine-readable schema (documented in ``docs/formats.md``).  Exit codes:
0 success, 1 verification failure or violated runtime invariant, 2 malformed
input or usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import chain, islice

from . import families, render, schedules
from .errors import (
    BijectionError,
    FamilyCapExceeded,
    InvariantViolation,
    ParseError,
    PreconditionError,
    ScheduleError,
)
from .invert import invert_pipeline
from .paths import Path, PathDiagram, PathKind, StepMultiset, _require_kind, connected_diagram, parse_int_list
from .sweep import osweep, sweep

# Output bounds, past which ``trace`` and ``render`` exit 2 instead of
# writing.  At the limits a JSON trace is about 17 MB and an SVG figure
# about 60 MB, an ASCII figure at most about 16 MB; each takes under 3 s and
# 260 MB of memory on a 2-core Xeon.
MAX_TRACE_RECORDS = 200_000  # unit moves and labels listed
MAX_FIGURE_SIZE = 1_000_000  # ASCII cells (columns x rows) or SVG lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweepmap",
        description="Sweep maps on general Dyck paths: forward maps, inversion, "
        "exhaustive verification, and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_path(p):
        p.add_argument("--path", required=True, help="comma-separated steps, e.g. 2,0,2,-3,1,-2")

    def add_schedule(p):
        p.add_argument(
            "--schedule",
            default="reverse",
            help="builtin name (reverse|identity|cycle), inline JSON, or a JSON file",
        )

    def add_kind(p, kinds=("dyck", "free", "incomplete")):
        p.add_argument(
            "--kind",
            choices=["auto", *kinds],
            default="auto",
            help="require the path to be of this kind, else exit 2 (default: any kind)",
        )

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_sweep = sub.add_parser("sweep", help="apply the sweep map")
    add_path(p_sweep)
    add_kind(p_sweep)
    add_json(p_sweep)

    p_osweep = sub.add_parser("osweep", help="apply the order sweep map")
    add_path(p_osweep)
    add_schedule(p_osweep)
    add_kind(p_osweep)
    add_json(p_osweep)

    p_invert = sub.add_parser("invert", help="invert the order sweep map")
    add_path(p_invert)
    add_schedule(p_invert)
    add_kind(p_invert, ("dyck", "incomplete"))  # what the pipeline inverts
    p_invert.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the result against exhaustive table inversion",
    )
    add_json(p_invert)

    p_enum = sub.add_parser("enumerate", help="list every path of a family")
    p_enum.add_argument("--type", required=True, dest="multiset", help='step multiset, e.g. "1^3,-1^3"')
    p_enum.add_argument("--kind", choices=["dyck", "free", "incomplete"], required=True)
    p_enum.add_argument("--count-only", action="store_true", help="print the family size only")
    p_enum.add_argument("--cap", type=int, default=families.DEFAULT_CAP)
    add_json(p_enum)

    p_verify = sub.add_parser("verify", help="exhaustively verify bijectivity on a family")
    p_verify.add_argument("--type", required=True, dest="multiset")
    p_verify.add_argument("--kind", choices=["dyck", "incomplete"], required=True)
    add_schedule(p_verify)
    p_verify.add_argument("--cap", type=int, default=families.DEFAULT_CAP)
    p_verify.add_argument("--dry-run", action="store_true", help="report the family size and stop")
    add_json(p_verify)

    p_trace = sub.add_parser("trace", help="show the inversion pipeline's step log")
    add_path(p_trace)
    add_schedule(p_trace)
    p_trace.add_argument("--algorithm", choices=["vib", "hpath", "invosweep"], required=True)
    add_json(p_trace)

    p_render = sub.add_parser("render", help="draw a path diagram")
    add_path(p_render)
    p_render.add_argument("--ranks", help="explicit ranks; default places the path connected")
    p_render.add_argument("--out", required=True, help="output file; .svg or .txt picks the format")
    add_json(p_render)

    return parser


def _interpret(args) -> Path:
    path = Path.from_text(args.path)
    forced = getattr(args, "kind", "auto")
    if forced == "free" and not path.is_free:
        raise PreconditionError(f"--kind free but {args.path!r} does not sum to zero")
    if forced in ("dyck", "incomplete"):
        _require_kind(path, f"--kind {forced}", PathKind(forced))
    return path


def _emit_path(path: Path, as_json: bool) -> None:
    if as_json:
        print(json.dumps(list(path.steps)))
    else:
        print(path.to_text())


def _cmd_sweep(args) -> int:
    path = _interpret(args)
    _emit_path(sweep(path), args.json)
    return 0


def _cmd_osweep(args) -> int:
    path = _interpret(args)
    _emit_path(osweep(path, schedules.from_text(args.schedule)), args.json)
    return 0


def _cmd_invert(args) -> int:
    path = _interpret(args)
    schedule = schedules.from_text(args.schedule)
    preimage = invert_pipeline(path, schedule).preimage
    if args.oracle:
        expected = families.oracle_invert(path, schedule)
        if expected != preimage:
            print(
                f"oracle mismatch: pipeline {preimage.to_text()}, "
                f"table {expected.to_text()}",
                file=sys.stderr,
            )
            return 1
    _emit_path(preimage, args.json)
    return 0


def _cmd_enumerate(args) -> int:
    multiset = StepMultiset.from_text(args.multiset)
    spec = families.EnumerationSpec(multiset, PathKind(args.kind), cap=args.cap)
    if args.count_only:
        size = families.family_size(spec)
        if args.json:
            print(json.dumps({"family": multiset.to_text(), "kind": args.kind, "size": size}))
        else:
            print(size)
        return 0
    members = list(families.enumerate_paths(spec))
    if args.json:
        print(json.dumps([list(p.steps) for p in members]))
    else:
        for p in members:
            print(p.to_text())
    return 0


def _cmd_verify(args) -> int:
    multiset = StepMultiset.from_text(args.multiset)
    spec = families.EnumerationSpec(multiset, PathKind(args.kind), cap=args.cap)
    if args.dry_run:
        size = families.family_size(spec)
        if args.json:
            print(json.dumps({"family": multiset.to_text(), "kind": args.kind, "size": size}))
        else:
            print(f"family {multiset.to_text()} ({args.kind}): {size} paths")
        return 0
    schedule = schedules.from_text(args.schedule)
    report = families.verify_bijection(spec, schedule)
    if args.json:
        print(json.dumps(report.as_record()))
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def _cmd_trace(args) -> int:
    path = Path.from_text(args.path)
    result = invert_pipeline(path, schedules.from_text(args.schedule))
    moves = result.vib_trace.moves if args.algorithm != "hpath" else ()
    rounds = result.hpath_trace.rounds if args.algorithm != "vib" else ()
    size = len(moves) + sum(len(rnd.labels) for rnd in rounds)
    if size > MAX_TRACE_RECORDS:
        raise PreconditionError(
            f"the {args.algorithm} trace has {size} records; the limit is {MAX_TRACE_RECORDS}"
        )
    # Written as produced, so memory stays flat whatever the trace's length.
    write = sys.stdout.write
    if args.json:
        # the bytes of one json.dumps of the whole list, encoded in batches
        records = chain(
            (move.as_record() for move in moves),
            (label.as_record() for rnd in rounds for label in rnd.labels),
        )
        write("[")
        for i, batch in enumerate(iter(lambda: list(islice(records, 1024)), [])):
            write((", " if i else "") + json.dumps(batch)[1:-1])
        write("]\n")
        return 0
    if args.algorithm != "hpath":
        for move in moves:
            write(
                f"move {move.step}: row {move.row}, column {move.column}, "
                f"rank {move.before} -> {move.after}\n"
            )
        write(f"{len(moves)} moves; final ranks {','.join(map(str, result.vib_trace.final_ranks))}\n")
    if args.algorithm != "vib":
        for rnd in rounds:
            for label in rnd.labels:
                write(
                    f"round {label.round}: label {label.i} -> column {label.column} "
                    f"(level {label.level})\n"
                )
            if rnd.stop_reason == "completed":
                write(f"round {rnd.labels[-1].round if rnd.labels else 1}: completed\n")
        write(f"preimage {result.preimage.to_text()}\n")
    return 0


def _cmd_render(args) -> int:
    path = Path.from_text(args.path)
    if args.ranks is not None:
        ranks = parse_int_list(args.ranks, label="rank")
        diagram = PathDiagram(path.steps, ranks)
    else:
        diagram = connected_diagram(path)
    out = args.out
    heights = (0, *diagram.ranks, *diagram.end_ranks)
    rows, columns = max(heights) - min(heights) + 1, len(diagram)
    if out.endswith(".svg"):
        fmt, size, unit = "svg", 3 * rows + 2 * columns, "lines"
    elif out.endswith(".txt"):
        fmt, size, unit = "ascii", rows * columns, "cells"
    else:
        raise PreconditionError(f"--out must end in .svg or .txt, got {out!r}")
    if size > MAX_FIGURE_SIZE:
        raise PreconditionError(
            f"a {columns}-column, {rows}-row {fmt} figure is {size} {unit}; "
            f"the limit is {MAX_FIGURE_SIZE}"
        )
    document = render.render_svg(diagram) if fmt == "svg" else render.render_ascii(diagram)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(document)
    if args.json:
        print(json.dumps({"out": out, "format": fmt, "bytes": len(document.encode("utf-8"))}))
    return 0


_HANDLERS = {
    "sweep": _cmd_sweep,
    "osweep": _cmd_osweep,
    "invert": _cmd_invert,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "render": _cmd_render,
}


# flags whose values may legitimately start with a minus sign
_LIST_FLAGS = ("--path", "--ranks", "--type")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join ``--path -1,1,-1`` into ``--path=-1,1,-1`` so argparse does not
    mistake the value for an option."""
    merged = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _LIST_FLAGS and i + 1 < len(argv) and re.match(r"-\d", argv[i + 1]):
            merged.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            merged.append(token)
            i += 1
    return merged


def run(argv: list[str] | None = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, ScheduleError, PreconditionError, FamilyCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, BijectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
