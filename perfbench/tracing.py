"""Spans around the library's public functions, installed from outside.

A traced run replaces each public function listed in ``LAYERS`` with a
wrapper that records a span (name, start, end, parent span, item) and then
calls the original.  ``from .paths import row_counts`` binds a second name
in the importing module, so a function is replaced under every name in every
``sweepmap`` module that holds it.  Methods are replaced on their class.
Nothing under ``src/`` is edited; ``uninstall`` puts every original back.

Spans live in typed arrays while the run lasts and are written out once,
when it ends.  A span's self time is its duration minus the durations of its
direct children, accumulated as the spans close.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# (module, attribute, span name, kind); kind is "function", "method",
# "classmethod" or "generator".
LAYERS = (
    ("sweepmap.paths", "Path.__init__", "paths.path_init", "method"),
    ("sweepmap.paths", "Path.from_text", "paths.parse", "classmethod"),
    ("sweepmap.paths", "StepMultiset.from_text", "paths.parse", "classmethod"),
    ("sweepmap.paths", "parse_int_list", "paths.parse", "function"),
    ("sweepmap.paths", "minimal_diagram", "paths.minimal_diagram", "function"),
    ("sweepmap.paths", "row_counts", "paths.row_counts", "function"),
    ("sweepmap.paths", "is_balanced", "paths.is_balanced", "function"),
    ("sweepmap.schedules", "PermSchedule.perm", "schedules.perm", "method"),
    ("sweepmap.schedules", "PermSchedule.lift", "schedules.lift", "method"),
    ("sweepmap.schedules", "from_text", "schedules.from_text", "function"),
    ("sweepmap.sweep", "osweep", "sweep.osweep", "function"),
    ("sweepmap.invert", "vib", "invert.vib", "function"),
    ("sweepmap.invert", "hpath", "invert.hpath", "function"),
    ("sweepmap.invert", "invert_pipeline", "invert.pipeline", "function"),
    ("sweepmap.incomplete", "osweep_incomplete", "incomplete.osweep", "function"),
    ("sweepmap.incomplete", "inv_osweep_incomplete", "incomplete.inv_osweep", "function"),
    ("sweepmap.incomplete", "complete", "incomplete.complete_strip", "function"),
    ("sweepmap.incomplete", "strip", "incomplete.complete_strip", "function"),
    ("sweepmap.families", "enumerate_paths", "families.enumerate", "generator"),
    ("sweepmap.families", "verify_bijection", "families.verify", "function"),
    ("sweepmap.render", "render_svg", "render.svg", "function"),
    ("sweepmap.cli", "run", "cli.run", "function"),
)


def _unit_rows(args, _result) -> tuple[str, int]:
    return "paths.unit_rows", sum(abs(b) for b in args[0].steps)


def _vib_moves(_args, result) -> tuple[str, int]:
    return "invert.vib_moves", len(result[1].moves)


def _hpath_rounds(_args, result) -> tuple[str, int]:
    return "invert.hpath_rounds", len(result[1].rounds)


def _svg_bytes(_args, result) -> tuple[str, int]:
    return "render.svg_bytes", len(result.encode("utf-8"))


# Work counts taken from a call's arguments or result after its span closes.
COUNTERS: dict[str, Callable[[tuple, Any], tuple[str, int]]] = {
    "paths.row_counts": _unit_rows,
    "invert.vib": _vib_moves,
    "invert.hpath": _hpath_rounds,
    "render.svg": _svg_bytes,
}


class Tracer:
    """In-memory span recorder with per-name self time, calls and counts."""

    FIELDS = (("name", "I"), ("start", "d"), ("end", "d"), ("parent", "q"), ("item", "q"))

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.columns = {field: array(code) for field, code in self.FIELDS}
        self._stack: list[list] = []  # [span index, name, child seconds]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.item = -1
        self._restore: list[Callable[[], None]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> list:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        cols = self.columns
        index = len(cols["start"])
        cols["name"].append(name_id)
        cols["parent"].append(self._stack[-1][0] if self._stack else -1)
        cols["item"].append(self.item)
        cols["end"].append(0.0)
        frame = [index, name, 0.0]
        self._stack.append(frame)
        cols["start"].append(perf_counter())
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        index, name, child_s = frame
        cols = self.columns
        cols["end"][index] = end
        duration = end - cols["start"][index]
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {name} closed out of order")
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if counter is not None:
                key, amount = counter(args, result)
                self.counts[key] += amount
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Span the call and every ``next``; time between items is the caller's."""
        traced_call = self.wrap(name, fn)

        def iterate(inner):
            while True:
                frame = self.open(name)
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(frame)
                self.counts[name + "_items"] += 1
                yield value

        @wraps(fn)
        def traced(*args, **kwargs):
            return iterate(traced_call(*args, **kwargs))

        return traced

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        for module_name, attribute, name, kind in LAYERS:
            module = sys.modules[module_name]
            if kind in ("method", "classmethod"):
                owner_name, member = attribute.split(".")
                self._replace_member(getattr(module, owner_name), member, name, kind)
            else:
                original = getattr(module, attribute)
                wrapper = (self.wrap_generator if kind == "generator" else self.wrap)(name, original)
                self._replace_everywhere(original, wrapper)

    def _replace_member(self, owner: type, member: str, name: str, kind: str) -> None:
        original = owner.__dict__[member]
        if kind == "classmethod":
            replacement = classmethod(self.wrap(name, original.__func__))
        else:
            replacement = self.wrap(name, original)
        setattr(owner, member, replacement)
        self._restore.append(lambda: setattr(owner, member, original))

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "sweepmap" and not module_name.startswith("sweepmap."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)
                    self._restore.append(
                        lambda m=module, a=attribute: setattr(m, a, original)
                    )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output -------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.columns["start"])

    def write(self, stem: Path) -> None:
        """Write ``<stem>.json`` (names and layout) and ``<stem>.bin`` (the
        columns, one after another, in native byte order)."""
        header = {
            "names": self.names,
            "count": self.span_count,
            "byteorder": sys.byteorder,
            "columns": [[field, code] for field, code in self.FIELDS],
            "note": "parent and item are -1 when absent; times are perf_counter seconds",
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")
        with open(stem.with_suffix(".bin"), "wb") as handle:
            for field, _ in self.FIELDS:
                self.columns[field].tofile(handle)
