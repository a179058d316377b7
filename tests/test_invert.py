import inspect
import random
import time
import tracemalloc
from bisect import bisect_right

import pytest

import sweepmap.invert
from sweepmap import (
    CYCLE,
    IDENTITY,
    REVERSE,
    EnumerationSpec,
    InvariantViolation,
    Path,
    PathDiagram,
    PathKind,
    PreconditionError,
    StepLimitExceeded,
    StepMultiset,
    complete,
    enumerate_paths,
    hib,
    hpath,
    inv_osweep,
    inv_osweep_incomplete,
    invert_pipeline,
    is_balanced,
    is_stable,
    minimal_diagram,
    osweep,
    vib,
)
from helpers import (
    forbid_pipeline,
    random_dyck_path,
    random_positive_diagram,
    random_ranks_between,
    random_schedule,
    random_walk,
    rank_leq,
    ref_osweep,
    stability_pool,
    tally_row_counts,
    vpath,
)

SMALL_DYCK_FAMILIES = ("1^2,-1^2", "1^3,-1^3", "3^2,-2^3", "2,0,-1,-1")
SCHEDULES = (REVERSE, IDENTITY, CYCLE)


def dyck_family(text):
    return list(enumerate_paths(EnumerationSpec(StepMultiset.from_text(text), PathKind.DYCK)))


def replay_vib_moves(diagram, trace):
    """Re-derive each move from scratch with the row-scan oracle."""
    ranks = list(diagram.ranks)
    for move in trace.moves:
        counts = tally_row_counts(diagram.steps, ranks)
        positive = [j for j, c in counts.items() if c > 0]
        assert positive, "a move happened while no row count was positive"
        assert move.row == min(positive)
        starters = [i for i in range(len(ranks)) if ranks[i] == move.row]
        assert starters, "working row hosts no starting arrow"
        assert move.column - 1 == max(starters)
        assert move.before == ranks[move.column - 1]
        ranks[move.column - 1] += 1
        assert move.after == ranks[move.column - 1]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
    assert tuple(ranks) == trace.final_ranks
    assert all(c == 0 for c in tally_row_counts(diagram.steps, ranks).values())


class TestVib:
    def test_worked_example_exact_trace(self, fig_path):
        start = PathDiagram(fig_path.steps, (0, 0, 0, 3, 3, 3))
        balanced, trace = vib(start)
        assert balanced.ranks == (0, 0, 2, 3, 4, 5)
        assert [(m.row, m.column) for m in trace.moves] == [
            (0, 3),
            (3, 6),
            (1, 3),
            (3, 5),
            (4, 6),
        ]
        assert is_balanced(balanced)
        assert balanced.is_increasing

    def test_already_balanced(self):
        d = PathDiagram((1, 1, -1, -1), (0, 0, 1, 1))
        balanced, trace = vib(d)
        assert balanced == d
        assert len(trace.moves) == 0

    def test_empty(self):
        balanced, trace = vib(PathDiagram((), ()))
        assert balanced == PathDiagram((), ())
        assert tuple(trace.moves) == ()

    def test_rejects_bad_inputs(self):
        with pytest.raises(PreconditionError, match="increasing"):
            vib(PathDiagram((1, 1, -1, -1), (1, 0, 1, 1)))
        with pytest.raises(PreconditionError, match="ends below"):
            vib(PathDiagram((0, -1), (0, 0)))
        with pytest.raises(PreconditionError, match="Dyck"):
            vib(PathDiagram((-1, 1), (1, 1)))

    def test_names_every_problem_in_order(self):
        with pytest.raises(PreconditionError) as refused:
            vib(PathDiagram((-2, 1), (1, 0)))
        assert str(refused.value) == (
            "vib input rejected: ranks are not weakly increasing; "
            "an arrow ends below height zero; steps do not form a Dyck path"
        )

    def test_input_checks_leave_end_ranks_unread(self, fig_path):
        d = PathDiagram(fig_path.steps, (0, 0, 0, 3, 3, 3))
        balanced, _ = vib(d)
        hpath(balanced, REVERSE)
        assert "end_ranks" not in d.__dict__
        assert "end_ranks" not in balanced.__dict__

    def test_move_count_equals_rank_distance(self):
        rng = random.Random(100)
        for _ in range(150):
            d = random_positive_diagram(rng)
            balanced, trace = vib(d)
            distance = sum(balanced.ranks) - sum(d.ranks)
            assert distance == len(trace.moves)

    def test_random_traces_replay_against_oracle(self):
        rng = random.Random(101)
        for _ in range(150):
            d = random_positive_diagram(rng)
            balanced, trace = vib(d)
            replay_vib_moves(d, trace)
            assert balanced.is_increasing
            assert vpath(balanced) == vpath(d)

    def test_a_diagram_lifted_far_above_zero_balances_as_unlifted(self):
        # rows are indexed from the lowest one balancing can touch, so the
        # lift costs no memory
        lift = 10**9
        minimal = minimal_diagram(Path(ref_osweep(random_walk(random.Random("lifted"), 300).steps)))
        tracemalloc.start()
        try:
            lifted, trace = vib(PathDiagram(minimal.steps, [r + lift for r in minimal.ranks]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        balanced, unlifted = vib(minimal)
        assert lifted.ranks == tuple(r + lift for r in balanced.ranks)
        expected = []
        entries = iter(unlifted.log)
        for column in entries:
            expected.append(column)
            if column < 0:  # a run logs the rank it raised its column to
                expected.append(next(entries) + lift)
        assert trace.log == tuple(expected)
        assert len(trace.log) > 1000
        assert peak < 2**20

    def test_step_cap_turns_bug_into_error(self, fig_path, monkeypatch):
        start = PathDiagram(fig_path.steps, (0, 0, 0, 3, 3, 3))
        for cap in (2, 4):
            monkeypatch.setattr(sweepmap.invert, "_step_cap", lambda *_: cap)
            with pytest.raises(StepLimitExceeded):
                vib(start)
        monkeypatch.setattr(sweepmap.invert, "_step_cap", lambda *_: 5)
        assert vib(start)[0].ranks == (0, 0, 2, 3, 4, 5)

    @pytest.mark.parametrize(
        "steps,ranks,other",
        [((-1,), [1], "_balance_steps"), ((-10**9,), [10**9], "_balance_rows")],
        ids=["row kernel", "step function"],
    )
    def test_balancing_checks_its_final_row_counts(self, monkeypatch, steps, ranks, other):
        # _balance takes its input unchecked; steps that do not form a Dyck
        # path cannot balance, and each kernel's last check says so
        monkeypatch.setattr(sweepmap.invert, other, None)
        with pytest.raises(InvariantViolation) as stopped:
            sweepmap.invert._balance(steps, ranks)
        assert str(stopped.value) == "balancing stopped with a nonzero row count"

    def test_short_diagrams_balance_without_row_count_jumps(self, fig_path, monkeypatch):
        # vib checks its input with builtins, and the row kernel builds its
        # lists from the columns
        def no_jumps(*_):
            raise AssertionError("row count jumps were built")

        monkeypatch.setattr(sweepmap.invert, "_jumps", no_jumps)
        assert vib(minimal_diagram(fig_path))[0].ranks == (0, 0, 2, 3, 4, 5)

    def test_default_cap_covers_a_climb_above_the_end_ranks(self):
        # the last arrow must climb to rank 29, above every end rank of the
        # start: 129 moves, more than N * (max end rank + N) = 128
        d = PathDiagram((8, 8, 7, 4, 1, 0, 1, -29), (0, 0, 0, 0, 0, 0, 0, 29))
        balanced, trace = vib(d)
        assert balanced.ranks == (0, 8, 16, 23, 27, 27, 28, 29)
        assert len(trace.moves) == 129


class TestRankLeq:
    def test_examples(self):
        assert rank_leq((0, 0, 0, 3, 3, 3), (0, 0, 2, 3, 4, 5))
        assert rank_leq((0, 1), (0, 1))
        assert not rank_leq((0, 1), (1, 0))

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            rank_leq((0,), (0, 1))


class TestTightness:
    def test_any_start_between_minimal_and_final_lands_on_final(self):
        rng = random.Random(55)
        for text in ("1^3,-1^3", "3^2,-2^3"):
            for path in dyck_family(text):
                low = minimal_diagram(path).ranks
                high, _ = vib(minimal_diagram(path))
                for _ in range(40):
                    ranks = random_ranks_between(rng, low, high.ranks)
                    assert rank_leq(low, ranks) and rank_leq(ranks, high.ranks)
                    final, _ = vib(PathDiagram(path.steps, ranks))
                    assert final.ranks == high.ranks


# Bad labeling inputs and the problems the input check names for each, in
# its order.  A first labeling round completes on none of them, whether its
# cheap tests (steps summing to zero, ranks in order from zero) pass or not.
BAD_LABELING_INPUTS = [
    ((1, 1, -1, -1), (0, 1, 2, 1), "ranks are not weakly increasing"),
    ((-1, 1), (1, 0), "ranks are not weakly increasing"),
    ((2, -1, -1), (-1, 0, 1), "a rank is negative; an arrow ends below height zero"),
    ((0,), (-1,), "a rank is negative; an arrow ends below height zero"),
    ((1, -1), (-1, 1), "a rank is negative; the diagram is not balanced"),
    ((-1, 1), (0, 0), "an arrow ends below height zero; the diagram is not balanced"),
    ((1, -1), (0, 0), "an arrow ends below height zero; the diagram is not balanced"),
    ((1,), (0,), "the diagram is not balanced"),
    ((-1,), (1,), "the diagram is not balanced"),
    ((1, -1), (0, 2), "the diagram is not balanced"),
    ((2, -1, -1), (0, 1, 1), "the diagram is not balanced"),
    ((1, 1, -1, -1), (0, 1, 1, 3), "the diagram is not balanced"),
    ((1, -1, 1, -1), (0, 1, 2, 2), "the diagram is not balanced"),
    (
        (-2, 1),
        (1, -1),
        "ranks are not weakly increasing; a rank is negative; "
        "an arrow ends below height zero; the diagram is not balanced",
    ),
    (
        (1, -1),
        (1, 0),
        "ranks are not weakly increasing; an arrow ends below height zero; the diagram is not balanced",
    ),
]


@pytest.mark.parametrize("steps,ranks,problems", BAD_LABELING_INPUTS)
def test_labeling_refusals_name_every_problem(steps, ranks, problems):
    for schedule in SCHEDULES:
        for run in (hpath, is_stable):
            with pytest.raises(PreconditionError) as refused:
                run(PathDiagram(steps, ranks), schedule)
            assert str(refused.value) == "hpath input rejected: " + problems


# (steps, ranks, a pointer list indexed by height, where the walk stops,
# whether it labels every column); the dictionary is the ranks' own
LABEL_POINTERS = [
    ((1, -1, 1, -1), (0, 1, 2, 3), [0, 1, 2, 3], 0, False),  # stranded at zero
    ((1, 3, -4), (0, 1, 3), [0, 1, -1, 2], 4, False),  # past the list's end
    ((1, 3, -4), (0, 1, 3), [0, 1, -1, 2, 2], 4, False),  # a stale pointer
    ((1, 1, -2), (0, 1, 1), [0, 2], -1, False),  # below zero: a slot from the end
    ((1, 3, -4), (0, 1, 4), [0, 1, -1, 1, 2], 0, True),  # completed past a stale pointer
]


@pytest.mark.parametrize("steps,ranks,pointers,stop,completed", LABEL_POINTERS)
def test_labeling_reads_a_pointer_list_as_a_dictionary(steps, ranks, pointers, stop, completed):
    # the row kernel's pointer list labels as the dictionary of the heights
    # the ranks hold does, with the same order, labels and stopping height
    inverse = REVERSE.inverse_perm(bisect_right(ranks, 0))
    by_list = sweepmap.invert._label(steps, ranks, list(pointers), inverse)
    assert by_list == sweepmap.invert._label(steps, ranks, {r: j for j, r in enumerate(ranks)}, inverse)
    assert by_list[2] == stop and (len(by_list[0]) == len(steps)) == completed


@pytest.mark.parametrize("steps", [(2, 1, -2, 2, 0, -3), (3, -1, 2, -2, 1, -3), (5, 2, -1, -3, 1, -4), (2, -1, -1)])
def test_labeling_reads_the_row_kernels_pointers(steps):
    # balancing's own list, stale slots and all, labels as the dictionary
    # of its final ranks does, and the round completes
    ranks = sweepmap.invert._minimal_ranks(steps)
    _, pointers = sweepmap.invert._balance(steps, ranks)
    assert isinstance(pointers, list) and len(pointers) > max(ranks)
    for schedule in SCHEDULES:
        inverse = schedule.inverse_perm(bisect_right(ranks, 0))
        by_list = sweepmap.invert._label(steps, ranks, list(pointers), inverse)
        assert by_list == sweepmap.invert._label(steps, ranks, {r: j for j, r in enumerate(ranks)}, inverse)
        assert len(by_list[0]) == len(steps)


class TestHPath:
    def test_worked_example(self, fig_path):
        d = PathDiagram(fig_path.steps, (0, 0, 2, 3, 4, 5))
        preimage, trace = hpath(d, REVERSE)
        assert preimage == Path((0, 2, 2, 1, -2, -3))
        assert len(trace.rounds) == 1
        assert [label.column for label in trace.rounds[0].labels] == [2, 1, 3, 5, 6, 4]
        # forward map of the result reproduces the diagram's step sequence
        assert osweep(preimage, REVERSE) == vpath(d)

    def test_two_zero_arrows_with_reverse(self):
        d = PathDiagram((1, 1, -1, -1), (0, 0, 1, 1))
        preimage, trace = hpath(d, REVERSE)
        assert preimage == Path((1, -1, 1, -1))
        assert len(trace.rounds) == 1
        assert osweep(preimage, REVERSE) == Path((1, 1, -1, -1))

    def test_forced_single_tour(self):
        preimage, _ = hpath(PathDiagram((1, -1), (0, 1)), REVERSE)
        assert preimage == Path((1, -1))

    def test_empty(self):
        preimage, trace = hpath(PathDiagram((), ()), REVERSE)
        assert preimage == Path()
        assert len(trace.rounds) == 1

    def test_first_round_keeps_the_input_diagram(self, fig_path):
        # a completed first round moves no arrow, so it hands back its input
        for d in (PathDiagram(fig_path.steps, (0, 0, 2, 3, 4, 5)), PathDiagram((1, 1, -1, -1), (0, 0, 1, 1))):
            for schedule in SCHEDULES:
                assert hpath(d, schedule)[1].rounds[0].diagram_after is d
        # a later completed round has moved arrows and builds its own
        d = PathDiagram((1, 1, -1, -1), (0, 1, 1, 2))
        last = hpath(d, REVERSE)[1].rounds[-1]
        assert last.stop_reason == "completed" and last.diagram_after.ranks == (0, 0, 1, 1)

    def test_unstable_diagram_restarts_once(self):
        d = PathDiagram((1, 1, -1, -1), (0, 1, 1, 2))
        preimage, trace = hpath(d, REVERSE)
        assert len(trace.rounds) == 2
        assert trace.rounds[0].stop_reason == "stuck-at-level-0"
        assert trace.rounds[0].diagram_after.ranks == (0, 0, 1, 1)
        assert preimage == Path((1, -1, 1, -1))
        assert osweep(preimage, REVERSE) == vpath(d)

    @pytest.mark.parametrize(
        "steps,ranks", [((1, 1, -1, -1), (0, 1, 1, 2)), ((1, -1, 1, -1), (0, 1, 50, 51))], ids=["two-rounds", "h=50"]
    )
    def test_labels_each_round_once(self, monkeypatch, steps, ranks):
        # a stranded first round is the restart loop's first round too
        calls = []
        label = sweepmap.invert._label

        def counting(*args):
            calls.append(None)
            return label(*args)

        monkeypatch.setattr(sweepmap.invert, "_label", counting)
        rounds = hpath(PathDiagram(steps, ranks), REVERSE)[1].rounds
        assert len(rounds) > 1 and len(calls) == len(rounds)

    def test_rejects_bad_inputs(self):
        with pytest.raises(PreconditionError, match="balanced"):
            hpath(PathDiagram((1, -1), (0, 2)), REVERSE)
        with pytest.raises(PreconditionError, match="increasing"):
            hpath(PathDiagram((-1, 1), (1, 0)), REVERSE)
        with pytest.raises(PreconditionError, match="negative"):
            hpath(PathDiagram((1, -1), (-1, 0)), REVERSE)

    def test_names_every_problem_in_order(self):
        with pytest.raises(PreconditionError) as refused:
            hpath(PathDiagram((-2, 1), (1, -1)), REVERSE)
        assert str(refused.value) == (
            "hpath input rejected: ranks are not weakly increasing; a rank is negative; "
            "an arrow ends below height zero; the diagram is not balanced"
        )

    def test_guarantee_on_random_stable_and_unstable_diagrams(self):
        rng = random.Random(321)
        for _ in range(150):
            d, _ = vib(random_positive_diagram(rng))
            schedule = rng.choice((*SCHEDULES, random_schedule(77)))
            preimage, trace = hpath(d, schedule)
            assert osweep(preimage, schedule) == vpath(d)
            for rnd in trace.rounds[:-1]:
                assert rnd.stop_reason == "stuck-at-level-0"
                assert rnd.diagram_after.is_increasing
                assert is_balanced(rnd.diagram_after)
            assert trace.rounds[-1].stop_reason == "completed"

    def test_no_zero_arrow_diagram_shifts_to_zero(self):
        # valid but floating placement: whole diagram descends before labeling
        d = PathDiagram((1, -1), (2, 3))
        preimage, trace = hpath(d, REVERSE)
        assert preimage == Path((1, -1))
        assert len(trace.rounds) == 3
        assert all(r.stop_reason == "stuck-at-level-0" for r in trace.rounds[:-1])

    def test_widely_separated_arrows_climb_then_descend(self):
        # balancing climbs the up arrow four rows; the balanced placement has
        # no height-zero arrow, so labeling downshifts the whole diagram
        balanced, trace = vib(PathDiagram((1, -1), (0, 5)))
        assert balanced.ranks == (4, 5)
        assert len(trace.moves) == 4
        preimage, hp_trace = hpath(balanced, REVERSE)
        assert preimage == Path((1, -1))
        assert len(hp_trace.rounds) == 5


class TestIsStable:
    def test_worked_example_stable(self, fig_path):
        assert is_stable(PathDiagram(fig_path.steps, (0, 0, 2, 3, 4, 5)))

    def test_raised_placement_unstable_and_downshift_stabilizes(self):
        d = PathDiagram((1, 1, -1, -1), (0, 1, 1, 2))
        assert not is_stable(d)
        _, trace = hpath(d, REVERSE)
        assert is_stable(trace.rounds[0].diagram_after)

    def test_empty_diagram_stable(self):
        assert is_stable(PathDiagram((), ()))

    def test_schedule_independent_on_random_diagrams(self):
        rng = random.Random(4321)
        seen_unstable = 0
        for _ in range(120):
            base, _ = vib(random_positive_diagram(rng))
            candidates = [base]
            _, trace = hpath(base, REVERSE)
            if trace.rounds[0].stop_reason != "completed":
                candidates.append(trace.rounds[0].diagram_after)
            for d in candidates:
                answers = {
                    is_stable(d, schedule)
                    for schedule in (*SCHEDULES, random_schedule(13))
                }
                assert len(answers) == 1
                if answers == {False}:
                    seen_unstable += 1
        assert seen_unstable > 0

    def test_answers_as_the_first_hpath_round(self):
        # criterion 7's pool under its schedules; both answers occur
        answers = set()
        for d in stability_pool(random.Random(20240817 + 1)):
            for schedule in (*SCHEDULES, random_schedule(20240817, max_k=10)):
                stable = is_stable(d, schedule)
                assert stable == (hpath(d, schedule)[1].rounds[0].stop_reason == "completed")
                answers.add(stable)
        assert answers == {True, False}

    def test_floating_diagrams_answer_in_one_round(self):
        # hpath would restart about h times on each: hours at h = 10^9
        h = 10**9
        tracemalloc.start()
        try:
            start = time.perf_counter()
            for d in (PathDiagram((1, -1), (h, h + 1)), PathDiagram((1, -1, 1, -1), (0, 1, h, h + 1))):
                assert not is_stable(d)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 10 * 2**20

    def test_hib_images_are_stable(self):
        rng = random.Random(777)
        for _ in range(80):
            path = random_dyck_path(rng)
            schedule = rng.choice(SCHEDULES)
            assert is_stable(hib(path, schedule), schedule)


class TestInvOsweep:
    def test_worked_example(self, fig_path):
        assert inv_osweep(fig_path, REVERSE) == Path((0, 2, 2, 1, -2, -3))

    def test_classical_pair(self):
        assert inv_osweep(Path((1, 1, -1, -1)), REVERSE) == Path((1, -1, 1, -1))

    def test_singleton(self):
        for schedule in SCHEDULES:
            assert inv_osweep(Path((1, -1)), schedule) == Path((1, -1))

    def test_rejects_non_dyck(self):
        with pytest.raises(PreconditionError):
            inv_osweep(Path((-1, 1)), REVERSE)

    def test_round_trips_exhaustive(self):
        table = random_schedule(2025)
        for text in SMALL_DYCK_FAMILIES:
            for p in dyck_family(text):
                for schedule in (*SCHEDULES, table):
                    image = osweep(p, schedule)
                    assert inv_osweep(image, schedule) == p
                    assert osweep(inv_osweep(p, schedule), schedule) == p

    @pytest.mark.parametrize(
        "fault,refusal",
        [
            ("stops before balancing", "the diagram is not balanced"),
            ("raises the last arrow too far", "the diagram is not balanced"),
            ("breaks the rank order", "ranks are not weakly increasing"),
            ("lowers the first arrow below zero", "a rank is negative"),
        ],
    )
    def test_faulty_balancing_is_refused(self, fig_path, monkeypatch, fault, refusal):
        # the labeling input is checked as hpath checks it, without the
        # traced pipeline; on (0,2,-2) the level arrow keeps the order and
        # sign faults balanced, and the labeling round would complete on them
        balance = sweepmap.invert._balance

        def faulty(steps, ranks):
            if fault == "stops before balancing":
                return balance(steps, list(ranks))
            result = balance(steps, ranks)
            if fault == "raises the last arrow too far":
                ranks[-1] += 1
            elif fault == "breaks the rank order":
                ranks[0] = ranks[-1]
            else:
                ranks[0] -= 1
            return result

        monkeypatch.setattr(sweepmap.invert, "_balance", faulty)
        forbid_pipeline(monkeypatch)
        paths = [fig_path, Path((1, 2, -3)), complete(Path((2, -1, -1, -1)))]
        if fault != "stops before balancing":  # (0,2,-2) starts balanced
            paths.append(Path((0, 2, -2)))
        for path in paths:
            with pytest.raises(PreconditionError, match=refusal):
                inv_osweep(path, REVERSE)

    @pytest.mark.parametrize("steps", [(2, 0, 2, -3, 1, -2), (2, -1, -1, -1)])
    def test_stranded_round_is_an_invariant_violation(self, monkeypatch, steps):
        # valid input never strands the round after balancing; a labeling
        # kernel that drops its last label must not make the map restart
        label = sweepmap.invert._label
        monkeypatch.setattr(sweepmap.invert, "_label", lambda *args: (label(*args)[0][:-1], None, None))
        forbid_pipeline(monkeypatch)
        with pytest.raises(InvariantViolation) as stranded:
            inv_osweep(Path(steps), REVERSE)
        assert str(stranded.value) == "balanced diagram from the minimal placement was not stable"

    def test_pipeline_calls_each_stage_once(self, fig_path, monkeypatch):
        # the benchmark's tracer wraps vib and hpath by name, and reads their
        # moves and rounds only if the pipeline calls them
        calls = []

        def counting(name, stage):
            def run(*args, **kwargs):
                calls.append(name)
                return stage(*args, **kwargs)

            return run

        for name in ("vib", "hpath"):
            monkeypatch.setattr(sweepmap.invert, name, counting(name, getattr(sweepmap.invert, name)))
        for path in (fig_path, Path((2, -1, -1, -1))):
            invert_pipeline(path, REVERSE)
            assert sorted(calls) == ["hpath", "vib"]
            calls.clear()

    @pytest.mark.parametrize("checks", ["off", "loud", "panic"])
    def test_invariant_checks_cannot_be_turned_off(self, fig_path, checks):
        # the pipeline keeps its keyword with one value
        with pytest.raises(PreconditionError):
            invert_pipeline(fig_path, REVERSE, checks=checks)

    @pytest.mark.parametrize("entry", [vib, hpath, inv_osweep, inv_osweep_incomplete], ids=lambda f: f.__name__)
    def test_no_other_entry_has_a_checks_keyword(self, entry):
        assert "checks" not in inspect.signature(entry).parameters

    def test_pipeline_never_restarts(self):
        rng = random.Random(60)
        for _ in range(120):
            p = random_dyck_path(rng)
            result = invert_pipeline(p, rng.choice(SCHEDULES))
            assert len(result.hpath_trace.rounds) == 1

    def test_pipeline_exposes_stages(self, fig_path):
        result = invert_pipeline(fig_path, REVERSE)
        assert result.minimal.ranks == (0, 0, 0, 3, 3, 3)
        assert result.balanced.ranks == (0, 0, 2, 3, 4, 5)
        assert len(result.vib_trace.moves) == 5
        assert result.preimage == Path((0, 2, 2, 1, -2, -3))
        assert rank_leq(result.vib_trace.initial_ranks, result.vib_trace.final_ranks)

    def test_huge_steps_invert_in_milliseconds(self):
        """Steps of size 10^9: the cost must not grow with the magnitudes."""
        moves_by_shape = {
            (10**9, -(10**9)): 0,
            (2 * 10**9, -(10**9), -(10**9)): 10**9,
            (10**9, -1, 10**9, -(2 * 10**9 - 1)): 10**9,
        }
        tracemalloc.start()
        try:
            start = time.perf_counter()
            for steps, moves in moves_by_shape.items():
                result = invert_pipeline(Path(steps), REVERSE)
                assert ref_osweep(result.preimage.steps, REVERSE) == steps
                assert len(result.vib_trace.moves) == moves
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 2.0
        assert peak < 10 * 2**20


@pytest.mark.slow
@pytest.mark.parametrize("n", [3000, 10_000])
def test_long_random_walks_invert_in_bounded_time(n):
    """Sweep images of long random walks invert back to the walk.

    The unit-scan balancing took minutes per call at n = 10^4; the bound
    leaves an order of magnitude over a few seconds on a 2-core Xeon.
    """
    walk = random_walk(random.Random(n), n)
    image = Path(ref_osweep(walk.steps))
    start = time.perf_counter()
    preimage = inv_osweep(image, REVERSE)
    elapsed = time.perf_counter() - start
    assert preimage == walk
    assert ref_osweep(preimage.steps) == image.steps
    assert elapsed < 60.0
