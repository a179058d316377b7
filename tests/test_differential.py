"""The fast balancing, labeling tour and row counts against the unit-scan
oracles.

Each case demands the same final ranks, move list, label list, rounds, stop
reasons and preimage from :func:`sweepmap.vib`/:func:`sweepmap.hpath` as from
``helpers.ref_vib``/``helpers.ref_hpath``, and the same tallies from
:func:`sweepmap.row_counts` as from the row scan.  The trace-free
:func:`sweepmap.inv_osweep` must give the traced pipeline's preimage, which
the reference forward map takes back to its input.
"""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepmap import (
    CYCLE,
    IDENTITY,
    REVERSE,
    EnumerationSpec,
    Path,
    PathDiagram,
    PathKind,
    PreconditionError,
    StepMultiset,
    VibMove,
    enumerate_paths,
    hib,
    hpath,
    inv_osweep,
    invert_pipeline,
    is_balanced,
    is_stable,
    minimal_diagram,
    row_counts,
    vib,
)
from sweepmap.invert import _balance_rows, _balance_steps, _step_cap
from helpers import (
    CRITERION_3_MULTISETS,
    CRITERION_8_MULTISETS,
    least_balanced_ranks,
    random_dyck_path,
    random_positive_diagram,
    random_schedule,
    random_walk,
    ref_hpath,
    ref_osweep,
    ref_vib,
    spiked_walk,
    stability_pool,
    tally_row_counts,
)

SCHEDULES = (REVERSE, IDENTITY, CYCLE)


def reference_moves(diagram):
    """The oracle's final ranks and its moves as numbered ``VibMove`` records."""
    ranks, moves = ref_vib(diagram.steps, diagram.ranks)
    return ranks, tuple(VibMove(step, *move) for step, move in enumerate(moves, 1))


def assert_vib_matches(diagram):
    balanced, trace = vib(diagram)
    ranks, moves = reference_moves(diagram)
    assert balanced.ranks == trace.final_ranks == ranks
    assert len(trace.moves) == len(moves)
    assert tuple(trace.moves) == moves
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
def positive_diagrams(draw, max_step=3, max_size=24):
    """Dyck steps in [-max_step, max_step], minimally placed, then raised in
    order."""
    steps = []
    level = 0
    for b in draw(st.lists(st.integers(-max_step, max_step), max_size=max_size)):
        b = max(b, -level)
        steps.append(b)
        level += b
    while level:
        steps.append(-min(max_step, level))
        level -= min(max_step, level)
    ranks = list(minimal_diagram(Path(steps)).ranks)
    for i in draw(st.lists(st.integers(0, len(steps)), max_size=12)):
        if i == len(ranks) - 1 or (i < len(ranks) - 1 and ranks[i] < ranks[i + 1]):
            ranks[i] += 1
    return PathDiagram(steps, ranks)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(positive_diagrams(), st.sampled_from(SCHEDULES))
def test_property_fast_equals_reference(diagram, schedule):
    assert_hpath_matches(assert_vib_matches(diagram), schedule)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(positive_diagrams(max_step=60, max_size=10), st.sampled_from(SCHEDULES))
def test_property_large_steps_equal_reference(diagram, schedule):
    assert_hpath_matches(assert_vib_matches(diagram), schedule)


def refilled_heights(diagram, runs):
    """Heights whose block of columns empties and later takes a column again."""
    ranks = list(diagram.ranks)
    emptied, refilled = set(), []
    for column, start, stop in runs:
        ranks[column - 1] = stop
        if start not in ranks:
            emptied.add(start)
        if stop in emptied:
            refilled.append(stop)
    return refilled


EMPTIED_BLOCKS = [
    # column 3 empties height 1, then column 2 climbs into it
    ((2, 2, -1, -3), (0, 0, 1, 3), [1]),
    # column 4 passes through height 2 and leaves it empty; column 3 follows
    ((3, -1, -1, -1), (0, 1, 1, 1), [2]),
    # the two-column block at height 1 empties right to left
    ((2, 2, -1, 1, -3, -1), (0, 0, 1, 1, 3, 3), [1]),
    # heights 3, 4 and 5 each empty and take a column again
    ((1, 2, -2, 3, -3, -1), (0, 0, 2, 2, 3, 3), [4, 3, 5]),
]


@pytest.mark.parametrize("steps,ranks,heights", EMPTIED_BLOCKS)
def test_block_end_map_survives_an_emptied_block(steps, ranks, heights):
    # the rightmost column at a height is looked up from a per-height
    # pointer, which an emptied block leaves stale until a column arrives there
    diagram = PathDiagram(steps, ranks)
    _, trace = vib(diagram)
    assert refilled_heights(diagram, trace.runs) == heights
    assert_vib_matches(diagram)


HAND_OFFS = [
    # down landing: column 4 lands on row 1 while the working row 2 keeps
    # a count of 2, so row 1 is worked next and row 2 waits on the heap
    (
        (2, 1, 1, -1, -3),
        (0, 0, 1, 2, 6),
        ((2, 0, 1), (1, 0, 1), (3, 1, 2), (2, 1, 2), (4, 2, 3), (1, 1, 2), (3, 2, 3),
         (2, 2, 3), (4, 3, 4), (1, 2, 3), (3, 3, 4), (4, 4, 5), (2, 3, 4), (3, 4, 5)),
    ),
    # level arrow: column 2 leaves row 0, which stays the working row
    ((1, 0, -1), (0, 0, 2), ((2, 0, 1), (1, 0, 1))),
    # up landing below the heap top: row 0 empties, row 1 turns positive
    # and the heap holds only row 2, so row 1 is worked next
    ((1, 1, -2), (0, 2, 5), ((1, 0, 1), (1, 1, 2), (2, 2, 3), (1, 2, 3), (2, 3, 4))),
    # up landing above the heap top: row 0 empties and row 2 turns
    # positive, but row 1 is on the heap below it and is worked first
    ((2, 0, -2), (0, 0, 5), ((2, 0, 1), (1, 0, 1), (2, 1, 2), (1, 1, 2), (2, 2, 3), (1, 2, 3))),
    # multi-row run: column 1 climbs rows 0 and 1, and the heap hands on
    # row 3, not the run's top row 2
    ((2, -1, -1), (0, 3, 3), ((1, 0, 2), (3, 3, 4))),
]


@pytest.mark.parametrize(
    "steps,ranks,runs",
    HAND_OFFS,
    ids=["down-landing", "level-arrow", "up-below-heap-top", "up-above-heap-top", "run-then-heap"],
)
def test_working_row_hand_offs(steps, ranks, runs):
    # after each move the next working row is known without the heap, or
    # read off it; each case takes one of the step-function kernel's
    # hand-offs, which test_balancing_kernels_agree runs it on
    diagram = PathDiagram(steps, ranks)
    assert vib(diagram)[1].runs == runs
    assert_vib_matches(diagram)


@pytest.mark.parametrize(
    "steps,ranks,balanced",
    [((1, -1), (-1, 1), (0, 1)), ((1, 1, -1, -1), (-1, -1, 1, 1), (0, 0, 1, 1))],
)
def test_first_ranks_below_zero(steps, ranks, balanced):
    # vib takes a first rank below zero when its arrow ends at or above zero;
    # the row kernel must then index its lists from below zero
    assert assert_vib_matches(PathDiagram(steps, ranks)).ranks == balanced


def balance_with_both_kernels(diagram):
    """Balance ``diagram`` with the step-function kernel and with the row
    kernel on a row layout worked out here; check they agree and return
    the log."""
    steps, ranks = diagram.steps, list(diagram.ranks)
    up = sum(b for b in steps if b > 0)
    cap = _step_cap(len(steps), ranks[-1], up)
    lo = min(ranks[0], *(r + b for r, b in zip(ranks, steps)))
    size = ranks[-1] + up + max(steps) - lo + 2
    final = list(ranks)
    log, pointers = _balance_steps(steps, final, cap)

    def read(pointers, height, lo=0):
        # as _label reads a pointer, by indexing: a column at that height, or
        # none; the row kernel's list holds height ``lo + i`` in slot ``i``
        try:
            j = pointers[height - lo]
        except LookupError:
            return -1
        return j if j >= 0 and final[j] == height else -1

    by_rows = list(ranks)
    row_log, row_pointers = _balance_rows(steps, by_rows, cap, lo, size)
    assert row_log == log
    assert by_rows == final
    assert len(row_pointers) == size
    for height in range(lo, lo + size):
        assert read(row_pointers, height, lo) == read(pointers, height)
    assert tuple(final) == ref_vib(steps, diagram.ranks)[0]
    return log


def test_balancing_kernels_agree():
    # Tier-1's small diagrams take the row kernel and its tall ones the step
    # function, so each kernel also runs here on the other's inputs.
    rng = random.Random("kernels")
    pool = [PathDiagram(steps, ranks) for steps, ranks, _ in EMPTIED_BLOCKS + HAND_OFFS]
    pool += [PathDiagram((1, -1), (-1, 1)), PathDiagram((1, 1, -1, -1), (-1, -1, 1, 1))]
    for k in (2, 3, 5, 37, 100, 300):
        pool += [minimal_diagram(Path(steps)) for steps in ((2 * k, -k, -k), (k, -1, k, -(2 * k - 1)), (k, -k))]
    # lifted far above zero, the row kernel offsets its lists by about 10**9
    pool += [PathDiagram(d.steps, [r + 10**9 for r in d.ranks]) for d in pool]
    for text in CRITERION_3_MULTISETS:
        pool += map(minimal_diagram, enumerate_paths(EnumerationSpec(StepMultiset.from_text(text), PathKind.DYCK)))
    for max_step, sizes in ((3, (1, 10, 50, 150)), (30, (5, 10, 20, 40)), (300, (3, 5, 10))):
        for n in sizes:
            for _ in range(3):
                walk = random_walk(rng, n, max_step)
                pool.append(minimal_diagram(Path(ref_osweep(walk.steps, rng.choice(SCHEDULES)))))
    for diagram in pool:
        balance_with_both_kernels(diagram)
    # walk images at |b| <= 30 whose logs hold multi-row runs
    with_runs = 0
    for _ in range(200):
        walk = random_walk(rng, rng.randint(5, 20), 30)
        log = balance_with_both_kernels(minimal_diagram(Path(ref_osweep(walk.steps, rng.choice(SCHEDULES)))))
        with_runs += any(entry < 0 for entry in log)
    assert with_runs >= 10, with_runs


def test_counting_moves_leaves_the_log_unexpanded():
    rng = random.Random("count")
    for diagram in (
        minimal_diagram(spiked_walk(rng, 120)),
        minimal_diagram(Path((2 * 10**9, -(10**9), -(10**9)))),
    ):
        _, trace = vib(diagram)
        size = sum(trace.final_ranks) - sum(trace.initial_ranks)
        assert len(trace.moves) == len(trace) == size > 0
        assert "runs" not in trace.__dict__


def test_a_read_trace_is_freed_without_the_cycle_collector():
    _, trace = vib(minimal_diagram(Path((2, 0, 2, -3, 1, -2))))
    assert len(trace.moves) == len(trace.runs) == 5
    freed = weakref.ref(trace)
    gc.disable()
    try:
        del trace
        assert freed() is None
    finally:
        gc.enable()


def test_expanded_runs_equal_reference_moves_on_spiked_walks():
    rng = random.Random("spikes")
    long_runs = 0
    for n in (100, 120, 150):
        for _ in range(2):
            diagram = minimal_diagram(spiked_walk(rng, n))
            assert_vib_matches(diagram)
            long_runs += sum(stop - start > 1 for _, start, stop in vib(diagram)[1].runs)
    assert long_runs > 0


def assert_least_fixed_point(path):
    minimal = minimal_diagram(path)
    assert vib(minimal)[0].ranks == least_balanced_ranks(minimal.steps, minimal.ranks)


def test_balancing_reaches_the_least_fixed_point():
    rng = random.Random("fixed point")
    for max_step, sizes in ((3, (1, 10, 40, 100, 300)), (300, (5, 10, 20, 40))):
        for n in sizes:
            for _ in range(3):
                assert_least_fixed_point(random_walk(rng, n, max_step))
    for text in CRITERION_3_MULTISETS:
        for path in enumerate_paths(EnumerationSpec(StepMultiset.from_text(text), PathKind.DYCK)):
            assert_least_fixed_point(path)


@pytest.mark.slow
@pytest.mark.parametrize("max_step,sizes", [(3, (1000, 2000)), (3000, (100, 100, 100))])
def test_balancing_reaches_the_least_fixed_point_at_scale(max_step, sizes):
    # the oracle makes thousands of O(n log n) rounds: about a minute in all
    rng = random.Random(f"fixed point/{max_step}")
    for n in sizes:
        assert_least_fixed_point(random_walk(rng, n, max_step))


@st.composite
def damaged_diagrams(draw):
    """A valid balancing or labeling input with up to three steps or ranks
    redrawn, so that some break the rank order, go negative, leave the Dyck
    paths or unbalance the diagram, alone or together."""
    diagram = draw(positive_diagrams(max_size=8))
    if draw(st.booleans()):
        diagram = vib(diagram)[0]
    steps, ranks = list(diagram.steps), list(diagram.ranks)
    for _ in range(draw(st.integers(0, 3)) if steps else 0):
        i = draw(st.integers(0, len(steps) - 1))
        if draw(st.booleans()):
            steps[i] = draw(st.integers(-4, 4))
        else:
            ranks[i] = draw(st.integers(-3, 9))
    return PathDiagram(steps, ranks)


def refusal(stage, diagram):
    """The message ``stage`` must refuse ``diagram`` with, from the diagram's
    own predicates, or None if it must accept it."""
    problems = {
        "ranks are not weakly increasing": not diagram.is_increasing,
        "a rank is negative": stage == "hpath" and any(r < 0 for r in diagram.ranks),
        "an arrow ends below height zero": any(e < 0 for e in diagram.end_ranks),
        "steps do not form a Dyck path": stage == "vib" and not Path(diagram.steps).is_dyck,
        "the diagram is not balanced": stage == "hpath" and not is_balanced(diagram),
    }
    named = [problem for problem, found in problems.items() if found]
    return f"{stage} input rejected: " + "; ".join(named) if named else None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(
        damaged_diagrams(),
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 9)), max_size=8).map(
            lambda arrows: PathDiagram([b for b, _ in arrows], [r for _, r in arrows])
        ),
    )
)
def test_property_input_checks_match_the_predicates(diagram):
    # is_stable checks its input as hpath does, with hpath's message
    for stage, run in (
        ("vib", lambda: vib(diagram)),
        ("hpath", lambda: hpath(diagram, REVERSE)),
        ("hpath", lambda: is_stable(diagram)),
    ):
        expected = refusal(stage, diagram)
        if expected is None:
            run()
        else:
            with pytest.raises(PreconditionError) as refused:
                run()
            assert str(refused.value) == expected


def test_hpath_and_is_stable_on_the_stability_pool():
    # criterion 7's pool holds stranded first rounds, which take hpath past
    # its first-round shortcut to the checked scan and the restarts
    stranded = 0
    for d in stability_pool(random.Random(16)):
        for schedule in (REVERSE, IDENTITY, random_schedule(16, max_k=10)):
            assert_hpath_matches(d, schedule)
            first = ref_hpath(d.steps, d.ranks, schedule)[1][0]
            assert is_stable(d, schedule) == (first[2] == "completed")
            stranded += first[2] != "completed"
    assert stranded > 0


@pytest.mark.parametrize("k", (2, 3, 5, 37, 1000))
def test_tall_shapes(k):
    # long runs on one column: (2K,-K,-K) balances in one run of K moves,
    # (K,-1,K,-(2K-1)) in a run of K-1 and one more move, (K,-K) in none
    for steps in ((2 * k, -k, -k), (k, -1, k, -(2 * k - 1)), (k, -k)):
        result = invert_pipeline(Path(steps), REVERSE)
        assert assert_vib_matches(result.minimal) == result.balanced
        assert assert_hpath_matches(result.balanced, REVERSE) == 1
        assert ref_osweep(result.preimage.steps, REVERSE) == steps


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-10, 60)), max_size=10))
def test_row_counts_match_row_scan(arrows):
    steps = [b for b, _ in arrows]
    ranks = [r for _, r in arrows]
    rc = row_counts(PathDiagram(steps, ranks))
    oracle = tally_row_counts(steps, ranks)
    for j in range(-62, 112):
        assert rc.count(j) == oracle.get(j, 0)
    assert is_balanced(PathDiagram(steps, ranks)) == all(c == 0 for c in oracle.values())


def test_move_view_reads_as_the_tuple_of_moves():
    diagram = minimal_diagram(Path((6, -1, 6, -11, 5, -5)))
    _, trace = vib(diagram)
    _, expected = reference_moves(diagram)
    moves = trace.moves
    assert len(moves) == len(expected) > len(trace.runs)
    assert tuple(moves) == expected
    _, empty = vib(PathDiagram((), ()))
    assert len(empty.moves) == 0 and tuple(empty.moves) == ()


def assert_inv_osweep_matches(path, schedule):
    preimage = inv_osweep(path, schedule)
    assert preimage == invert_pipeline(path, schedule).preimage
    assert ref_osweep(preimage.steps, schedule) == path.steps
    return preimage


@pytest.mark.parametrize("text", CRITERION_3_MULTISETS)
def test_inv_osweep_on_criterion_3_families(text):
    spec = EnumerationSpec(StepMultiset.from_text(text), PathKind.DYCK)
    for schedule in (*SCHEDULES, random_schedule(3)):
        for path in enumerate_paths(spec):
            assert_inv_osweep_matches(path, schedule)


def test_inv_osweep_on_a_criterion_8_sample():
    rng = random.Random(8)
    schedules = (*SCHEDULES, random_schedule(8))
    inverted = 0
    for values in rng.sample(CRITERION_8_MULTISETS, 80):
        family = list(enumerate_paths(EnumerationSpec(StepMultiset.from_steps(values), PathKind.INCOMPLETE)))
        for path in rng.sample(family, min(len(family), 12)):
            assert_inv_osweep_matches(path, rng.choice(schedules))
            inverted += 1
    assert inverted > 400


@pytest.mark.parametrize("max_step,sizes", [(3, (1, 5, 20, 60, 200, 600)), (300, (1, 5, 20, 40, 100))])
def test_inv_osweep_on_random_walks(max_step, sizes):
    rng = random.Random(f"inv_osweep/{max_step}")
    for n in sizes:
        for schedule in (REVERSE, IDENTITY, random_schedule(n, max_k=60)):
            walk = random_walk(rng, n, max_step)
            image = Path(ref_osweep(walk.steps, schedule))
            assert assert_inv_osweep_matches(image, schedule) == walk


@pytest.mark.parametrize("k", (100, 300, 1000, 3000, 10_000, 300_000))
def test_inv_osweep_on_tall_shapes(k):
    # the invert_tall benchmark's shapes and sizes
    for steps in ((2 * k, -k, -k), (k, -1, k, -(2 * k - 1)), (k, -k)):
        assert_inv_osweep_matches(Path(steps), REVERSE)
