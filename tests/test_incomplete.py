from itertools import accumulate, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepmap import (
    CYCLE,
    IDENTITY,
    REVERSE,
    EnumerationSpec,
    Path,
    PathKind,
    PreconditionError,
    StepMultiset,
    complete,
    enumerate_paths,
    hib,
    inv_osweep,
    inv_osweep_incomplete,
    invert_pipeline,
    oracle_invert,
    osweep,
    osweep_incomplete,
    strip,
    sweep,
    sweep_incomplete,
)
import sweepmap.paths
from helpers import random_schedule

SCHEDULES = (REVERSE, IDENTITY, CYCLE)


def incomplete_family(text):
    m = StepMultiset.from_text(text)
    return list(enumerate_paths(EnumerationSpec(m, PathKind.INCOMPLETE)))


def small_deficit_multisets(max_n=5, deficits=(-1, -2), lo=-3, hi=3):
    for n in range(1, max_n + 1):
        for values in combinations_with_replacement(range(lo, hi + 1), n):
            if sum(values) in deficits:
                yield StepMultiset.from_steps(values)


class TestCompleteStrip:
    @pytest.mark.parametrize(
        "steps,completed",
        [
            ((1, -1, -1), (1, 1, -1, -1)),
            ((-1, 1, -1), (1, -1, 1, -1)),
            ((-2,), (2, -2)),
        ],
    )
    def test_complete(self, steps, completed):
        result = complete(Path(steps))
        assert result == Path(completed)
        assert result.is_dyck

    def test_strip(self):
        assert strip(Path((1, 1, -1, -1))) == Path((1, -1, -1))
        assert strip(Path((2, -2))) == Path((-2,))

    def test_mutually_inverse_on_family(self):
        for p in incomplete_family("1,-1^2"):
            assert strip(complete(p)) == p

    def test_complete_rejects_non_incomplete(self):
        with pytest.raises(PreconditionError):
            complete(Path((1, -1)))
        with pytest.raises(PreconditionError):
            complete(Path((-1, -1, 1)))

    def test_strip_rejects_bad_heads(self):
        with pytest.raises(PreconditionError, match="positive first step"):
            strip(Path((-1, 1)))
        with pytest.raises(PreconditionError, match="nonempty"):
            strip(Path())
        # suffix dips below zero from the head's height
        with pytest.raises(PreconditionError, match="incomplete"):
            strip(Path((1, -2, 1)))
        # head larger than the suffix deficit
        with pytest.raises(PreconditionError, match="deficit"):
            strip(Path((2, -1)))


class TestSweepIncomplete:
    def test_two_element_family_swaps(self):
        assert sweep_incomplete(Path((1, -1, -1))) == Path((-1, 1, -1))
        assert sweep_incomplete(Path((-1, 1, -1))) == Path((1, -1, -1))

    def test_singleton(self):
        assert sweep_incomplete(Path((-2,))) == Path((-2,))

    def test_equals_conjugation_by_hand(self):
        p = Path((1, -1, -1))
        assert sweep_incomplete(p) == strip(osweep(complete(p), CYCLE))

    def test_equals_direct_sweep_of_connected_drawing(self):
        for m in small_deficit_multisets(max_n=5):
            for p in incomplete_family(m.to_text()):
                assert sweep_incomplete(p) == sweep(p)

    def test_permutes_small_families(self):
        for text in ("1,-1^2", "1^2,-1^3", "2,-1^3", "0,1,-1^3"):
            family = incomplete_family(text)
            images = [sweep_incomplete(p) for p in family]
            assert sorted(images, key=lambda q: q.steps) == family


class TestOsweepIncomplete:
    def test_reverse_schedule_reduces_to_sweep(self):
        for m in small_deficit_multisets(max_n=5):
            for p in incomplete_family(m.to_text()):
                assert osweep_incomplete(p, REVERSE) == sweep_incomplete(p)

    def test_singleton(self):
        for schedule in (REVERSE, IDENTITY, CYCLE):
            assert osweep_incomplete(Path((-2,)), schedule) == Path((-2,))

    def test_permutes_families_for_each_schedule(self):
        for text in ("1^2,-1^3", "2,1,-1^2,-2", "1^3,-2^2"):
            family = incomplete_family(text)
            for schedule in (REVERSE, IDENTITY, CYCLE, random_schedule(7)):
                images = [osweep_incomplete(p, schedule) for p in family]
                assert sorted(images, key=lambda q: q.steps) == family

    def test_equals_plain_osweep_of_connected_drawing(self):
        # the lift exists precisely so the conjugation matches the path's own
        # height-zero group order
        for text in ("1^2,-1^3", "2,-1^3"):
            for p in incomplete_family(text):
                for schedule in (REVERSE, IDENTITY, CYCLE):
                    assert osweep_incomplete(p, schedule) == osweep(p, schedule)

    def test_added_arrow_emitted_first(self):
        for text in ("1^2,-1^3", "2,-1^3", "0,1,-1^3"):
            for p in incomplete_family(text):
                for schedule in (REVERSE, IDENTITY):
                    image = osweep(complete(p), schedule.lift())
                    assert image.steps[0] == p.start_level

    def test_rejects_non_incomplete(self):
        with pytest.raises(PreconditionError):
            osweep_incomplete(Path((1, -1)), REVERSE)


class TestInversionConjugation:
    def test_round_trips(self):
        for text in ("1,-1^2", "1^2,-1^3", "2,1,-1^2,-2"):
            family = incomplete_family(text)
            for schedule in (REVERSE, IDENTITY, CYCLE, random_schedule(3)):
                for p in family:
                    image = osweep_incomplete(p, schedule)
                    assert inv_osweep_incomplete(image, schedule) == p
                    assert osweep_incomplete(inv_osweep_incomplete(p, schedule), schedule) == p

    def test_rejects_non_incomplete(self):
        with pytest.raises(PreconditionError):
            inv_osweep_incomplete(Path((1, -1)), REVERSE)

    def test_pipeline_inverts_through_the_completion(self):
        for text in ("1,-1^2", "1^2,-1^3", "2,1,-1^2,-2", "0,1,-1^3"):
            for schedule in (REVERSE, IDENTITY, CYCLE, random_schedule(5)):
                for p in incomplete_family(text):
                    result = invert_pipeline(p, schedule)
                    completed = invert_pipeline(complete(p), schedule.lift())
                    assert result.preimage == strip(completed.preimage)
                    assert (result.minimal, result.balanced) == (completed.minimal, completed.balanced)
                    # the table inversion enumerates the incomplete family itself
                    assert oracle_invert(p, schedule) == inv_osweep(p, schedule)


@st.composite
def incomplete_walks(draw, max_step=60, max_size=10):
    """Incomplete Dyck paths of at most ``max_size`` steps in
    [-max_step, max_step]: a walk from a positive height that never dips
    below zero, closed to zero by down steps."""
    level = draw(st.integers(1, max_step))
    steps = []
    for b in draw(st.lists(st.integers(-max_step, max_step), max_size=max_size)):
        room = max_size - len(steps) - 1  # steps left to close the walk after b
        b = min(max(b, -level), max_step * room - level)
        steps.append(b)
        level += b
    while level:
        steps.append(-min(max_step, level))
        level -= min(max_step, level)
    return Path(steps)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(incomplete_walks(), st.sampled_from(SCHEDULES))
def test_property_large_step_round_trips(path, schedule):
    assert path.is_incomplete and len(path) <= 10
    assert max(map(abs, path)) <= 60
    assert inv_osweep_incomplete(osweep_incomplete(path, schedule), schedule) == path
    assert osweep_incomplete(inv_osweep_incomplete(path, schedule), schedule) == path


@pytest.mark.slow
def test_exhaustive_bijectivity_up_to_size_eight():
    """Full sweep of every deficit multiset with values in [-4, 4], size 8.

    Sizes up to 7 run in the acceptance suite; this adds the size-8 layer
    (about 1.8 million paths, a couple of minutes). Run with ``-m slow``.
    """
    for values in combinations_with_replacement(range(-4, 5), 8):
        if sum(values) not in (-1, -2, -3):
            continue
        family = incomplete_family(StepMultiset.from_steps(values).to_text())
        if not family:
            continue
        images = sorted((sweep_incomplete(p) for p in family), key=lambda q: q.steps)
        assert images == family
        for schedule in (REVERSE, IDENTITY):
            images = sorted(
                (osweep_incomplete(p, schedule) for p in family), key=lambda q: q.steps
            )
            assert images == family


# entry -> (call, operation its refusal names, kinds it takes)
KIND_ENTRIES = {
    "complete": (complete, "complete", ("incomplete",)),
    "sweep_incomplete": (sweep_incomplete, "sweep_incomplete", ("incomplete",)),
    "osweep_incomplete": (
        lambda p: osweep_incomplete(p, REVERSE), "osweep_incomplete", ("incomplete",)
    ),
    "inv_osweep_incomplete": (
        lambda p: inv_osweep_incomplete(p, REVERSE), "inv_osweep_incomplete", ("incomplete",)
    ),
    "invert_pipeline": (
        lambda p: invert_pipeline(p, REVERSE), "inversion", ("dyck", "incomplete")
    ),
    "inv_osweep": (lambda p: inv_osweep(p, REVERSE), "inversion", ("dyck", "incomplete")),
    "hib": (lambda p: hib(p, REVERSE), "hib", ("dyck",)),
    "oracle_invert": (
        lambda p: oracle_invert(p, REVERSE), "oracle_invert", ("dyck", "incomplete")
    ),
}
PATH_KINDS = {"-1,1": "other", "1,1": "other", "1,-1": "dyck", "1,-1,-1": "incomplete"}


class TestKindDecidedOnce:
    """A path's kind is decided in one scan, and every entry that needs a
    kind refuses the others with the same message."""

    @pytest.fixture
    def scans(self, monkeypatch):
        # every kind scan in ``sweepmap.paths`` is an ``accumulate``
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return accumulate(*args, **kwargs)

        monkeypatch.setattr(sweepmap.paths, "accumulate", counting)
        return calls

    def test_incomplete_inversion(self, scans):
        # the input's kind once, which makes the completion Dyck, then the
        # stripped suffix in ``strip``, a check on the output
        assert inv_osweep_incomplete(Path((1, -1, -1)), REVERSE) == Path((-1, 1, -1))
        assert len(scans) <= 2

    def test_incomplete_pipeline(self, scans):
        # the input's kind, which makes the completion Dyck for ``vib`` too,
        # then the stripped suffix in ``strip``
        assert invert_pipeline(Path((1, -1, -1)), REVERSE).preimage == Path((-1, 1, -1))
        assert len(scans) <= 2

    def test_criterion_8_member(self, scans):
        p = Path((1, -1, -1))
        assert strip(osweep(complete(p), CYCLE)) == sweep_incomplete(p)
        osweep_incomplete(p, REVERSE)
        osweep_incomplete(p, IDENTITY)
        assert len(scans) <= 2

    @pytest.mark.parametrize(
        "entry,text",
        [
            (entry, text)
            for entry, (_, _, takes) in KIND_ENTRIES.items()
            for text, kind in PATH_KINDS.items()
            if kind not in takes
        ],
    )
    def test_refusal_names_operation_path_and_kind(self, entry, text):
        call, op, takes = KIND_ENTRIES[entry]
        with pytest.raises(PreconditionError) as refused:
            call(Path.from_text(text))
        message = str(refused.value)
        assert message.startswith(f"{op} ") and repr(text) in message
        assert f"classifies as {PATH_KINDS[text]}" in message
        assert all(kind in message for kind in takes)
