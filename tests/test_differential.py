"""The fast balancing and labeling tour against the unit-scan oracles.

Each case demands the same final ranks, move list, label list, rounds, stop
reasons and preimage from :func:`sweepmap.vib`/:func:`sweepmap.hpath` as from
``helpers.ref_vib``/``helpers.ref_hpath``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepmap import (
    CYCLE,
    IDENTITY,
    REVERSE,
    Path,
    PathDiagram,
    hib,
    hpath,
    invert_pipeline,
    minimal_diagram,
    vib,
)
from helpers import (
    random_dyck_path,
    random_positive_diagram,
    random_schedule,
    random_walk,
    ref_hpath,
    ref_osweep,
    ref_vib,
)

SCHEDULES = (REVERSE, IDENTITY, CYCLE)


def assert_vib_matches(diagram):
    balanced, trace = vib(diagram)
    ranks, moves = ref_vib(diagram.steps, diagram.ranks)
    assert balanced.ranks == trace.final_ranks == ranks
    assert [(m.row, m.column, m.before, m.after) for m in trace.moves] == moves
    assert [m.step for m in trace.moves] == list(range(1, len(moves) + 1))
    return balanced


def assert_hpath_matches(diagram, schedule):
    """Compare one labeling tour with the oracle; return its round count."""
    preimage, trace = hpath(diagram, schedule)
    ref_preimage, ref_rounds = ref_hpath(diagram.steps, diagram.ranks, schedule)
    assert preimage.steps == ref_preimage
    assert len(trace.rounds) == len(ref_rounds)
    for rnd, (k, labels, stop_reason, ranks_after) in zip(trace.rounds, ref_rounds):
        assert rnd.k == k
        assert [(x.round, x.i, x.column, x.level) for x in rnd.labels] == list(labels)
        assert rnd.stop_reason == stop_reason
        assert rnd.diagram_after.ranks == ranks_after
    return len(trace.rounds)


@pytest.mark.parametrize("schedule", [REVERSE, IDENTITY, random_schedule(11, max_k=60)], ids=lambda s: s.name)
def test_random_walk_inversions(schedule):
    rng = random.Random(f"walks/{schedule.name}")
    for n in (1, 5, 20, 60, 120, 200, 300):
        walk = random_walk(rng, n)
        image = Path(ref_osweep(walk.steps, schedule))
        result = invert_pipeline(image, schedule)
        assert assert_vib_matches(result.minimal) == result.balanced
        assert assert_hpath_matches(result.balanced, schedule) == 1
        assert result.preimage == walk


def test_random_non_minimal_positive_diagrams():
    rng = random.Random(2024)
    restarts = 0
    for _ in range(300):
        diagram = random_positive_diagram(rng, raises=rng.choice((6, 20)))
        balanced = assert_vib_matches(diagram)
        schedule = rng.choice((*SCHEDULES, random_schedule(rng.randrange(100))))
        restarts += assert_hpath_matches(balanced, schedule) > 1
    assert restarts > 0


def test_restarting_diagrams():
    # criterion 7's pool: hib images, balanced raised placements, and the
    # diagram left after the first stuck round of an unstable one
    rng = random.Random(77)
    pool = [PathDiagram((1, -1), (2, 3)), PathDiagram((1, 1, -1, -1), (0, 1, 1, 2))]
    while len(pool) < 300:
        if rng.random() < 0.5:
            base = hib(random_dyck_path(rng), rng.choice(SCHEDULES))
        else:
            base, _ = vib(random_positive_diagram(rng))
        pool.append(base)
        _, trace = hpath(base, REVERSE)
        if trace.rounds[0].stop_reason != "completed":
            pool.append(trace.rounds[0].diagram_after)
    restarted = 0
    for diagram in pool:
        for schedule in SCHEDULES:
            restarted += assert_hpath_matches(diagram, schedule) > 1
    assert restarted > 0


@st.composite
def positive_diagrams(draw):
    """Dyck steps in [-3, 3], minimally placed, then raised in order."""
    steps = []
    level = 0
    for b in draw(st.lists(st.integers(-3, 3), max_size=24)):
        b = max(b, -level)
        steps.append(b)
        level += b
    while level:
        steps.append(-min(3, level))
        level -= min(3, level)
    ranks = list(minimal_diagram(Path(steps)).ranks)
    for i in draw(st.lists(st.integers(0, len(steps)), max_size=12)):
        if i == len(ranks) - 1 or (i < len(ranks) - 1 and ranks[i] < ranks[i + 1]):
            ranks[i] += 1
    return PathDiagram(steps, ranks)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(positive_diagrams(), st.sampled_from(SCHEDULES))
def test_property_fast_equals_reference(diagram, schedule):
    assert_hpath_matches(assert_vib_matches(diagram), schedule)
