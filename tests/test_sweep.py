import random

import pytest

from sweepmap import (
    CYCLE,
    IDENTITY,
    REVERSE,
    EnumerationSpec,
    Path,
    PathKind,
    PreconditionError,
    StepMultiset,
    enumerate_paths,
    hib,
    is_balanced,
    osweep,
    sweep,
    sweep_order,
)
from helpers import random_schedule, ref_osweep, vpath

SMALL_DYCK_FAMILIES = ("1^2,-1^2", "1^3,-1^3", "3^2,-2^3", "2,0,-1,-1", "2,1,-1,-2")
SCHEDULES = (REVERSE, IDENTITY, CYCLE)


def dyck_family(text):
    return list(enumerate_paths(EnumerationSpec(StepMultiset.from_text(text), PathKind.DYCK)))


class TestSweep:
    def test_worked_example(self, fig_path):
        assert sweep(fig_path) == Path((2, 1, -2, 2, 0, -3))

    def test_single_pair(self):
        assert sweep(Path((1, -1))) == Path((1, -1))

    def test_alternating(self):
        # height-zero arrows 3 then 1, then height-one arrows 4 then 2
        assert sweep(Path((1, -1, 1, -1))) == Path((1, 1, -1, -1))

    def test_empty(self):
        assert sweep(Path()) == Path()

    def test_matches_sort_oracle_on_random_sequences(self):
        rng = random.Random(2024)
        for _ in range(400):
            steps = [rng.randint(-4, 4) for _ in range(rng.randint(0, 10))]
            assert sweep(Path(steps)).steps == ref_osweep(steps)


class TestOsweep:
    def test_reverse_reduces_to_sweep(self, fig_path):
        assert osweep(fig_path, REVERSE) == Path((2, 1, -2, 2, 0, -3))

    def test_identity_on_alternating(self):
        assert osweep(Path((1, -1, 1, -1)), IDENTITY) == Path((1, 1, -1, -1))

    def test_reverse_reduction_on_random_free_paths(self):
        rng = random.Random(5)
        for _ in range(300):
            steps = [rng.randint(-4, 4) for _ in range(rng.randint(0, 10))]
            p = Path(steps)
            assert osweep(p, REVERSE) == sweep(p)

    def test_matches_sort_oracle(self):
        rng = random.Random(12)
        schedules = [REVERSE, IDENTITY, CYCLE, random_schedule(31, max_k=12)]
        for _ in range(300):
            steps = [rng.randint(-4, 4) for _ in range(rng.randint(0, 10))]
            schedule = rng.choice(schedules)
            assert osweep(Path(steps), schedule).steps == ref_osweep(steps, schedule)

    def test_single_zero_arrow_schedule_irrelevant(self):
        rng = random.Random(8)
        checked = 0
        for _ in range(400):
            steps = [rng.randint(-4, 4) for _ in range(rng.randint(1, 9))]
            p = Path(steps)
            if sum(1 for r in p.connected_ranks() if r == 0) != 1:
                continue
            checked += 1
            expected = sweep(p)
            for schedule in (*SCHEDULES, random_schedule(99)):
                assert osweep(p, schedule) == expected
        assert checked > 30

    def test_level_arrows_count_toward_height_zero_group(self):
        # (0,1,-1) drawn connected: heights 0,0,1; the level arrow shares the
        # height-zero group, so the schedule decides whether it leads
        p = Path((0, 1, -1))
        assert osweep(p, IDENTITY) == Path((0, 1, -1))
        assert osweep(p, REVERSE) == Path((1, 0, -1))

    def test_two_block_order_on_negative_heights(self):
        # heights 0,-2,-1: the nonnegative block first, then bottom-up
        assert sweep(Path((-2, 1, 1))) == Path((-2, 1, 1))
        assert sweep_order(Path((-2, 1, 1))) == (1, 2, 3)

    def test_type_preserved(self):
        rng = random.Random(21)
        for _ in range(200):
            steps = [rng.randint(-4, 4) for _ in range(rng.randint(0, 9))]
            p = Path(steps)
            for schedule in SCHEDULES:
                assert osweep(p, schedule).type_of() == p.type_of()

    def test_dyck_closure_exhaustive(self):
        for text in SMALL_DYCK_FAMILIES:
            for p in dyck_family(text):
                for schedule in SCHEDULES:
                    assert osweep(p, schedule).classify() is PathKind.DYCK

    def test_injective_on_each_family(self):
        for text in SMALL_DYCK_FAMILIES:
            family = dyck_family(text)
            for schedule in (*SCHEDULES, random_schedule(47)):
                images = {osweep(p, schedule) for p in family}
                assert len(images) == len(family)


class TestSweepOrder:
    def test_is_permutation(self):
        rng = random.Random(40)
        for _ in range(200):
            steps = [rng.randint(-3, 3) for _ in range(rng.randint(0, 9))]
            order = sweep_order(Path(steps))
            assert sorted(order) == list(range(1, len(steps) + 1))

    def test_worked_example_order(self, fig_path):
        # heights: 0 -> arrow 1; 1 -> arrow 5; 2 -> arrows 6,3,2; 4 -> arrow 4
        assert sweep_order(fig_path) == (1, 5, 6, 3, 2, 4)

    def test_schedule_affects_only_height_zero(self):
        p = Path((1, -1, 1, -1))
        assert sweep_order(p) == (3, 1, 4, 2)
        assert sweep_order(p, IDENTITY) == (1, 3, 4, 2)


class TestHib:
    def test_worked_example(self, fig_path):
        d = hib(fig_path, REVERSE)
        assert d.steps == (2, 1, -2, 2, 0, -3)
        assert d.ranks == (0, 1, 2, 2, 2, 4)

    def test_single_pair(self):
        for schedule in SCHEDULES:
            d = hib(Path((1, -1)), schedule)
            assert d.steps == (1, -1)
            assert d.ranks == (0, 1)

    def test_rejects_non_dyck(self):
        with pytest.raises(PreconditionError):
            hib(Path((-1, 1)), REVERSE)
        with pytest.raises(PreconditionError):
            hib(Path((1, 1)), REVERSE)

    def test_vpath_of_hib_is_osweep_exhaustive(self):
        for p in dyck_family("1^3,-1^3"):
            for schedule in SCHEDULES:
                assert vpath(hib(p, schedule)) == osweep(p, schedule)

    def test_increasing_and_balanced_exhaustive(self):
        for text in SMALL_DYCK_FAMILIES:
            for p in dyck_family(text):
                for schedule in SCHEDULES:
                    d = hib(p, schedule)
                    assert d.is_increasing
                    assert is_balanced(d)
                    assert d.is_positive
