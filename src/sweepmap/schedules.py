"""Permutation schedules: one permutation of {1..k} for every k >= 1.

The order sweep map needs an emission order for the arrows starting at height
zero, and that group can have any size, so a schedule is a total rule rather
than a finite table.  Explicit tables therefore carry a builtin fallback for
the sizes they do not cover.
"""

from __future__ import annotations

import json
from typing import Callable, Mapping, Sequence

from .errors import ParseError, ScheduleError
from .paths import _Record


def _validate_permutation(perm: Sequence[int], k: int, origin: str) -> tuple[int, ...]:
    """``perm`` as a tuple, if it is a sequence of ints (not bools) that permutes 1..k."""
    if isinstance(perm, Sequence):
        perm = tuple(perm)
    if not (
        isinstance(perm, tuple)
        and all(type(v) is not bool and isinstance(v, int) for v in perm)
        and sorted(perm) == list(range(1, k + 1))
    ):
        raise ScheduleError(f"{origin} is not a permutation of 1..{k}: {perm}")
    return perm


class PermSchedule:
    """A named total rule ``k -> one-line permutation of {1..k}``.

    Each size is validated on its first query and its permutation and inverse
    kept on the instance; a failed validation keeps nothing, so it raises on every query.
    The rule must be pure: concurrent first queries may both run it.  A
    schedule is immutable and equal only to itself.
    """

    def __init__(self, name: str, rule: Callable[[int], Sequence[int]]) -> None:
        vars(self).update(name=name, rule=rule, _perms={}, _inverses={}, _lifted=None)

    __setattr__ = __delattr__ = _Record._refuse

    def perm(self, k: int) -> tuple[int, ...]:
        """The one-line permutation for size ``k`` (validated)."""
        perm = self._perms.get(k)
        if perm is None:
            if k < 0:
                raise ScheduleError(f"schedule queried for negative size {k}")
            perm = _validate_permutation(self.rule(k), k, f"schedule {self.name!r} at k={k}")
            self._perms[k] = perm
        return perm

    def inverse_perm(self, k: int) -> tuple[int, ...]:
        """The inverse of :meth:`perm` for size ``k``, kept per size the same way."""
        inverse = self._inverses.get(k)
        if inverse is None:
            perm = self.perm(k)
            inverse = self._inverses[k] = tuple(sorted(range(1, k + 1), key=lambda p: perm[p - 1]))
        return inverse

    def lift(self) -> "PermSchedule":
        """Shift the whole schedule one slot right, fixing position 1.

        ``lift(s).perm(k)`` is ``(1, s.perm(k-1)[0]+1, ..., s.perm(k-1)[k-2]+1)``;
        the size-1 permutation is the identity.  Lifting the reverse schedule
        yields the cycle schedule.  Every call returns the same schedule.
        """
        if self._lifted is None:

            def rule(k: int) -> tuple[int, ...]:
                if k <= 1:
                    return (1,)[:k]
                return (1,) + tuple(v + 1 for v in self.perm(k - 1))

            object.__setattr__(self, "_lifted", PermSchedule(f"lift({self.name})", rule))
        return self._lifted

    def __repr__(self) -> str:  # rule callables are noise in test output
        return f"PermSchedule({self.name!r})"


REVERSE = PermSchedule("reverse", lambda k: tuple(range(k, 0, -1)))
IDENTITY = PermSchedule("identity", lambda k: tuple(range(1, k + 1)))
# one-line (1, k, k-1, ..., 2): fixes 1, rotates the rest
CYCLE = PermSchedule("cycle", lambda k: (1,)[:k] + tuple(range(k, 1, -1)))
_BUILTINS = {schedule.name: schedule for schedule in (REVERSE, IDENTITY, CYCLE)}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> PermSchedule:
    """The shared builtin schedule of that name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ScheduleError(
            f"unknown builtin schedule {name!r}; expected one of {', '.join(BUILTIN_NAMES)}"
        ) from None


def table_schedule(
    table: Mapping[int, Sequence[int]],
    default: str = "reverse",
    name: str | None = None,
) -> PermSchedule:
    """A schedule from an explicit table, falling back to a builtin elsewhere.

    Every table entry is validated on load.
    """
    fallback = builtin(default)
    frozen: dict[int, tuple[int, ...]] = {}
    for k, perm in table.items():
        k = int(k)
        if k < 1:
            raise ScheduleError(f"table key must be a positive size, got {k}")
        frozen[k] = _validate_permutation(perm, k, f"table entry for k={k}")

    def rule(k: int) -> tuple[int, ...]:
        return frozen.get(k) or fallback.rule(k)

    label = name or f"table(default={default})"
    return PermSchedule(label, rule)


def from_json_doc(doc: Mapping, name: str | None = None) -> PermSchedule:
    """Build a schedule from ``{"default": <builtin>, "table": {"k": [...]}}``."""
    if not isinstance(doc, Mapping):
        raise ParseError(f"schedule document must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {"default", "table"}
    if unknown:
        raise ParseError(f"unknown schedule keys: {sorted(unknown)}")
    default = doc.get("default", "reverse")
    if default not in BUILTIN_NAMES:
        raise ParseError(f"schedule default must be a builtin name, got {default!r}")
    table = doc.get("table", {})
    if not isinstance(table, Mapping):
        raise ParseError("schedule table must be an object mapping sizes to permutations")
    parsed: dict[int, Sequence[int]] = {}
    for key, perm in table.items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise ParseError(f"schedule table key {key!r} is not an integer") from None
        parsed[k] = perm
    return table_schedule(parsed, default=default, name=name)


def from_text(text: str) -> PermSchedule:
    """Resolve a schedule argument: builtin name, inline JSON, or a JSON file."""
    token = text.strip()
    if token in BUILTIN_NAMES:
        return builtin(token)
    if token.startswith("{"):
        try:
            doc = json.loads(token)
        except json.JSONDecodeError as exc:
            raise ParseError(f"schedule JSON is invalid: {exc}") from None
        return from_json_doc(doc, name="inline-table")
    try:
        with open(token, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError:
        raise ParseError(
            f"invalid schedule {token!r}: not a builtin "
            f"({', '.join(BUILTIN_NAMES)}), inline JSON, or readable file"
        ) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"schedule file {token!r} holds invalid JSON: {exc}") from None
    return from_json_doc(doc, name=token)
