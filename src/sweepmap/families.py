"""Exhaustive enumeration of path families and brute-force verification.

These are the desk-scale tools that certify the bijection claims: enumerate
every path of a given step multiset and kind, push the whole family through
a map, and check injectivity, closure, and both round trips against the
inversion.  The enumeration is lexicographic with prefix pruning, so
hopeless prefixes are abandoned as soon as the height condition fails.
Verification runs both maps on the members' step tuples, through the
kernels behind ``osweep`` and ``inv_osweep``, memoized by those tuples;
members are inverted as of the family's kind, which the enumerator marks
on each member's unchecked :class:`Path`.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from .errors import BijectionError, FamilyCapExceeded, PreconditionError
from .invert import _inverse
from .paths import Path, PathKind, StepMultiset, _kind_of, _Record, _require_kind
from .schedules import PermSchedule
from .sweep import _osweep, osweep

DEFAULT_CAP = 10**6


class EnumerationSpec(_Record):
    """A path family: the step multiset, which kind of paths, and a size cap."""

    multiset: StepMultiset
    kind: PathKind
    cap: int = DEFAULT_CAP

    def __init__(self, multiset: StepMultiset, kind: PathKind, cap: int = DEFAULT_CAP) -> None:
        super().__init__(multiset, kind, cap)
        if self.cap < 1:
            raise PreconditionError(f"cap must be positive, got {self.cap}")
        total = self.multiset.total
        if self.kind in (PathKind.DYCK, PathKind.FREE):
            if total != 0:
                raise PreconditionError(
                    f"{self.kind.value} families need a zero-sum multiset, "
                    f"got {self.multiset.to_text()!r} with sum {total}"
                )
        elif self.kind is PathKind.INCOMPLETE:
            if total >= 0:
                raise PreconditionError(
                    f"incomplete families need a negative-sum multiset, "
                    f"got {self.multiset.to_text()!r} with sum {total}"
                )
        else:
            raise PreconditionError(f"cannot enumerate kind {self.kind.value!r}")


def enumerate_paths(spec: EnumerationSpec) -> Iterator[Path]:
    """Yield every path of the family in lexicographic order, no duplicates.

    Depth-first over an explicit stack, so path length is not bounded by the
    interpreter's recursion limit.  Raises :class:`FamilyCapExceeded` when
    the path after the first ``spec.cap`` is reached.
    """
    counts = spec.multiset.counts()
    values = sorted(counts)
    left = [counts[v] for v in values]
    size = spec.multiset.size
    pruned = spec.kind is not PathKind.FREE
    kind = spec.kind if pruned else None  # the pruned walk keeps to the family's kind
    level = 0 if spec.kind is not PathKind.INCOMPLETE else -spec.multiset.total
    prefix: list[int] = []
    picks: list[int] = []  # index into ``values`` of each prefix step
    i = 0  # next value index to try after the prefix
    yielded = 0
    while True:
        if len(prefix) == size:
            yielded += 1
            if yielded > spec.cap:
                raise FamilyCapExceeded(
                    f"family {spec.multiset.to_text()!r} ({spec.kind.value}) "
                    f"exceeds the cap of {spec.cap} paths"
                )
            yield Path._make(steps=tuple(prefix), _kind=kind)
        else:
            while i < len(values) and (left[i] == 0 or pruned and level + values[i] < 0):
                i += 1
            if i < len(values):
                left[i] -= 1
                prefix.append(values[i])
                picks.append(i)
                level += values[i]
                i = 0
                continue
        if not picks:
            return
        i = picks.pop()
        left[i] += 1
        level -= prefix.pop()
        i += 1


def family_size(spec: EnumerationSpec) -> int:
    """Number of paths in the family (still subject to the cap)."""
    return sum(1 for _ in enumerate_paths(spec))


def oracle_invert(path: Path, schedule: PermSchedule, cap: int = DEFAULT_CAP) -> Path:
    """Invert the order sweep map by exhausting the whole family.

    Completely independent of the inversion pipeline: enumerate every path
    of the same type and kind (Dyck or incomplete), apply the forward map,
    and return the unique preimage.  Zero or several preimages would falsify
    bijectivity and raise :class:`BijectionError`.
    """
    _require_kind(path, "oracle_invert", PathKind.DYCK, PathKind.INCOMPLETE)
    spec = EnumerationSpec(path.type_of(), path.classify(), cap=cap)
    preimages = [q for q in enumerate_paths(spec) if osweep(q, schedule) == path]
    if len(preimages) != 1:
        raise BijectionError(
            f"{len(preimages)} preimages of {path.to_text()!r} under schedule "
            f"{schedule.name!r}; expected exactly one"
        )
    return preimages[0]


class VerificationReport(_Record):
    """Outcome of an exhaustive bijectivity check over one family.

    ``counterexample`` is the first member, in enumeration order, whose image
    repeats an earlier member's, leaves the family, or fails a round trip;
    ``None`` when the check passed.
    """

    family: str
    kind: str
    size: int
    schedule: str
    injective: bool
    closed: bool
    roundtrip: bool
    passed: bool
    counterexample: str | None = None

    def as_record(self) -> dict:
        return {
            "family": self.family,
            "kind": self.kind,
            "size": self.size,
            "schedule": self.schedule,
            "injective": self.injective,
            "closed": self.closed,
            "roundtrip": self.roundtrip,
            "pass": self.passed,
            "counterexample": self.counterexample,
        }

    def to_text(self) -> str:
        lines = [
            f"family:    {self.family}",
            f"kind:      {self.kind}",
            f"size:      {self.size}",
            f"schedule:  {self.schedule}",
            f"injective: {str(self.injective).lower()}",
            f"closed:    {str(self.closed).lower()}",
            f"roundtrip: {str(self.roundtrip).lower()}",
        ]
        if not self.passed:
            lines.append(f"counterexample: {self.counterexample}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def verify_bijection(spec: EnumerationSpec, schedule: PermSchedule) -> VerificationReport:
    """Exhaustively check that the order sweep map permutes the family.

    The maps are ``osweep`` and ``inv_osweep`` for Dyck and incomplete
    families alike.  Both round trips, ``backward(forward(p)) == p`` and
    ``forward(backward(p)) == p``, are checked for every member, but within
    one call each map runs at most once per distinct path: on a family the
    map permutes, every member is mapped and inverted exactly once.  On
    failure, finding the first counterexample may apply the maps to members
    the short-circuited checks skipped.
    """
    if spec.kind not in (PathKind.DYCK, PathKind.INCOMPLETE):
        raise PreconditionError(
            f"verification covers dyck and incomplete families, not {spec.kind.value!r}"
        )
    members = [p.steps for p in enumerate_paths(spec)]
    # every member has the family's kind; only a path outside it is classified
    family = dict.fromkeys(members, spec.kind)
    forward = cache(lambda steps: _osweep(steps, schedule))
    backward = cache(lambda steps: _inverse(steps, family.get(steps) or _kind_of(steps), schedule))
    images = [forward(p) for p in members]
    injective = len(set(images)) == len(members)
    closed = all(image in family for image in images)
    roundtrip = all(backward(image) == p for p, image in zip(members, images)) and all(
        forward(backward(p)) == p for p in members
    )
    passed = injective and closed and roundtrip
    counterexample = None
    if not passed:
        # An image shared by two members inverts to at most one of them, so
        # the first round trip fails at or before the member that repeats it.
        counterexample = next(
            (
                ",".join(map(str, p))
                for p, image in zip(members, images)
                if image not in family or backward(image) != p or forward(backward(p)) != p
            ),
            None,
        )
    return VerificationReport(
        family=spec.multiset.to_text(),
        kind=spec.kind.value,
        size=len(members),
        schedule=schedule.name,
        injective=injective,
        closed=closed,
        roundtrip=roundtrip,
        passed=passed,
        counterexample=counterexample,
    )
