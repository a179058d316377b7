"""Command-line interface.

One binary with subcommands; ``--json`` switches any of them to a stable
machine-readable schema (documented in ``docs/formats.md``).  Exit codes:
0 success, 1 verification failure or violated runtime invariant, 2 malformed
input or usage error.  A reader that closes stdout early (``| head``) ends the
``sweepmap`` script by ``SIGPIPE``, where the platform has it, without a traceback.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
from itertools import chain, islice
from typing import Iterable

from . import families, render, schedules
from .errors import (
    BijectionError,
    FamilyCapExceeded,
    InvariantViolation,
    ParseError,
    PreconditionError,
    ScheduleError,
)
from .invert import inv_osweep, invert_pipeline
from .paths import Path, PathDiagram, PathKind, StepMultiset, _require_kind, connected_diagram, parse_int_list
from .sweep import osweep, sweep

# Output bounds, past which ``trace`` and ``render`` exit 2 instead of
# writing.  At the limits a JSON trace is about 17 MB and an SVG figure
# about 60 MB, an ASCII figure at most about 16 MB; each takes under 3 s and
# 260 MB of memory on a 2-core Xeon.
MAX_TRACE_RECORDS = 200_000  # unit moves and labels listed
MAX_FIGURE_SIZE = 1_000_000  # ASCII cells (columns x rows) or SVG lines

# a handler's exit code, JSON value (a record, an array or None) and text lines
_Output = tuple[int, object, Iterable[str]]


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


def _path_output(path: Path) -> _Output:
    return 0, list(path.steps), (path.to_text(),)


def _size_output(spec: families.EnumerationSpec, text_format: str) -> _Output:
    record = {"family": spec.multiset.to_text(), "kind": spec.kind.value, "size": families.family_size(spec)}
    return 0, record, (text_format.format(**record),)


def _family_spec(args) -> families.EnumerationSpec:
    multiset = StepMultiset.from_text(args.multiset)
    return families.EnumerationSpec(multiset, PathKind(args.kind), cap=args.cap)


def _cmd_sweep(args) -> _Output:
    return _path_output(sweep(_interpret(args)))


def _cmd_osweep(args) -> _Output:
    return _path_output(osweep(_interpret(args), schedules.from_text(args.schedule)))


def _cmd_invert(args) -> _Output:
    path = _interpret(args)
    schedule = schedules.from_text(args.schedule)
    preimage = inv_osweep(path, schedule)
    if args.oracle:
        expected = families.oracle_invert(path, schedule)
        if expected != preimage:
            print(
                f"oracle mismatch: pipeline {preimage.to_text()}, "
                f"table {expected.to_text()}",
                file=sys.stderr,
            )
            return 1, None, ()
    return _path_output(preimage)


def _cmd_enumerate(args) -> _Output:
    spec = _family_spec(args)
    if args.count_only:
        return _size_output(spec, "{size}")
    members = list(families.enumerate_paths(spec))  # a cap is refused before any output
    return 0, (list(p.steps) for p in members), (p.to_text() for p in members)


def _cmd_verify(args) -> _Output:
    spec = _family_spec(args)
    if args.dry_run:
        return _size_output(spec, "family {family} ({kind}): {size} paths")
    report = families.verify_bijection(spec, schedules.from_text(args.schedule))
    return (0 if report.passed else 1), report.as_record(), (report.to_text(),)


def _trace_lines(algorithm: str, result, moves, rounds) -> Iterable[str]:
    if algorithm != "hpath":
        for move in moves:
            yield f"move {move.step}: row {move.row}, column {move.column}, rank {move.before} -> {move.after}"
        yield f"{len(moves)} moves; final ranks {','.join(map(str, result.vib_trace.final_ranks))}"
    if algorithm != "vib":
        for rnd in rounds:
            for label in rnd.labels:
                yield f"round {label.round}: label {label.i} -> column {label.column} (level {label.level})"
            if rnd.stop_reason == "completed":
                yield f"round {rnd.labels[-1].round if rnd.labels else 1}: completed"
        yield f"preimage {result.preimage.to_text()}"


def _cmd_trace(args) -> _Output:
    path = Path.from_text(args.path)
    result = invert_pipeline(path, schedules.from_text(args.schedule))
    moves = result.vib_trace.moves if args.algorithm != "hpath" else ()
    rounds = result.hpath_trace.rounds if args.algorithm != "vib" else ()
    size = len(moves) + sum(len(rnd.labels) for rnd in rounds)
    if size > MAX_TRACE_RECORDS:
        raise PreconditionError(
            f"the {args.algorithm} trace has {size} records; the limit is {MAX_TRACE_RECORDS}"
        )
    records = chain(
        (move.as_record() for move in moves),
        (label.as_record() for rnd in rounds for label in rnd.labels),
    )
    return 0, records, _trace_lines(args.algorithm, result, moves, rounds)


def _cmd_render(args) -> _Output:
    path = Path.from_text(args.path)
    if args.ranks is not None:
        ranks = parse_int_list(args.ranks, label="rank")
        diagram = PathDiagram(path.steps, ranks)
    else:
        diagram = connected_diagram(path)
    out = args.out
    low, high = render._extent(diagram)
    rows, columns = high - low + 1, len(diagram)
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
    try:  # opened before drawing, so an unwritable --out costs no rendering
        with open(out, "w", encoding="utf-8") as handle:
            document = render.render_svg(diagram) if fmt == "svg" else render.render_ascii(diagram)
            handle.write(document)
    except OSError as exc:
        raise PreconditionError(f"cannot write {out!r}: {exc.strerror}") from None
    return 0, {"out": out, "format": fmt, "bytes": len(document.encode("utf-8"))}, ()


def _emit(args, value: object, lines: Iterable[str]) -> None:
    """The one writer of stdout: a handler's text lines, or with ``--json`` its
    value, a record as one document or an array in batches."""
    write = sys.stdout.write  # looked up per call: callers may redirect stdout
    if not args.json:
        for line in lines:  # written as produced, so a long trace keeps memory flat
            write(line + "\n")
    elif isinstance(value, dict):
        write(json.dumps(value) + "\n")
    elif value is not None:
        # the bytes of one json.dumps of the whole array, encoded in batches
        items = iter(value)
        write("[")
        for i, batch in enumerate(iter(lambda: list(islice(items, 1024)), [])):
            write((", " if i else "") + json.dumps(batch)[1:-1])
        write("]\n")


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
        code, value, lines = _HANDLERS[args.command](args)
        _emit(args, value, lines)
        return code
    except (ParseError, ScheduleError, PreconditionError, FamilyCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, BijectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    if hasattr(signal, "SIGPIPE"):  # not in run(), which callers may give a StringIO stdout
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
