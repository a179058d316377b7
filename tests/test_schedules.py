import json
from collections import Counter

import pytest

from sweepmap import (
    CYCLE,
    IDENTITY,
    REVERSE,
    ParseError,
    PermSchedule,
    ScheduleError,
    builtin,
    table_schedule,
)
from sweepmap import schedules
from helpers import random_schedule


class TestBuiltins:
    def test_reverse(self):
        assert REVERSE.perm(4) == (4, 3, 2, 1)
        assert REVERSE.perm(1) == (1,)
        assert REVERSE.perm(0) == ()

    def test_identity(self):
        assert IDENTITY.perm(5) == (1, 2, 3, 4, 5)

    def test_cycle(self):
        assert CYCLE.perm(1) == (1,)
        assert CYCLE.perm(2) == (1, 2)
        assert CYCLE.perm(5) == (1, 5, 4, 3, 2)

    def test_builtin_lookup(self):
        assert builtin("reverse").perm(3) == (3, 2, 1)
        # one shared schedule, and so one permutation cache, per builtin name
        assert [builtin(name) for name in schedules.BUILTIN_NAMES] == [REVERSE, IDENTITY, CYCLE]
        assert schedules.from_text("cycle") is CYCLE
        with pytest.raises(ScheduleError):
            builtin("bogus")

    def test_inverse_composes_to_identity(self):
        for schedule in (REVERSE, IDENTITY, CYCLE, random_schedule(5), REVERSE.lift(), random_schedule(6).lift()):
            for k in range(9):
                perm = schedule.perm(k)
                inverse = schedule.inverse_perm(k)
                assert tuple(perm[inverse[j] - 1] for j in range(k)) == tuple(range(1, k + 1))
                assert tuple(inverse[perm[j] - 1] for j in range(k)) == tuple(range(1, k + 1))
                assert schedule.inverse_perm(k) is inverse


class TestLift:
    def test_lift_of_reverse_is_cycle(self):
        lifted = REVERSE.lift()
        for k in range(1, 7):
            assert lifted.perm(k) == CYCLE.perm(k)

    def test_lift_fixes_first_position(self):
        for schedule in (IDENTITY, CYCLE, random_schedule(9)):
            lifted = schedule.lift()
            for k in range(1, 8):
                assert lifted.perm(k)[0] == 1

    def test_lift_definition(self):
        lifted = IDENTITY.lift()
        assert lifted.perm(4) == (1, 2, 3, 4)
        shuffled = random_schedule(17)
        for k in range(2, 8):
            inner = shuffled.perm(k - 1)
            assert shuffled.lift().perm(k) == (1, *(v + 1 for v in inner))

    def test_lift_name(self):
        assert REVERSE.lift().name == "lift(reverse)"

    def test_lift_is_built_once(self):
        for schedule in (REVERSE, IDENTITY, random_schedule(9)):
            lifted = schedule.lift()
            perms = [lifted.perm(k) for k in range(8)]
            assert schedule.lift() is lifted
            assert [schedule.lift().perm(k) for k in range(8)] == perms
            assert perms[1:] == [(1, *(v + 1 for v in schedule.perm(k - 1))) for k in range(1, 8)]


class TestValidatedOnce:
    def test_rule_called_once_per_size(self):
        calls = Counter()

        def rule(k):
            calls[k] += 1
            return tuple(range(k, 0, -1))

        counting = PermSchedule("counting", rule)
        for _ in range(3):
            assert counting.perm(3) == (3, 2, 1)
            assert counting.perm(5) == (5, 4, 3, 2, 1)
            assert counting.lift().perm(4) == (1, 4, 3, 2)
        assert calls == {3: 1, 5: 1}

    def test_invalid_rule_raises_on_every_call(self):
        calls = []

        def rule(k):
            calls.append(k)
            return (1,) * k

        broken = PermSchedule("broken", rule)
        for _ in range(3):
            with pytest.raises(ScheduleError):
                broken.perm(2)
            with pytest.raises(ScheduleError):
                broken.inverse_perm(2)
        assert calls == [2] * 6
        assert broken.perm(1) == (1,)
        assert broken.inverse_perm(1) == (1,)

    def test_negative_size_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ScheduleError):
                REVERSE.perm(-1)
            with pytest.raises(ScheduleError):
                REVERSE.inverse_perm(-1)


class TestTables:
    def test_table_with_fallback(self):
        s = table_schedule({3: [2, 3, 1]}, default="identity")
        assert s.perm(3) == (2, 3, 1)
        assert s.perm(4) == (1, 2, 3, 4)

    def test_invalid_entry_rejected_on_load(self):
        with pytest.raises(ScheduleError):
            table_schedule({3: [1, 1, 2]})
        with pytest.raises(ScheduleError):
            table_schedule({2: [1, 2, 3]})
        with pytest.raises(ScheduleError):
            table_schedule({0: []})

    def test_default_is_reverse(self):
        s = table_schedule({2: [1, 2]})
        assert s.perm(3) == (3, 2, 1)


class TestTextForms:
    def test_builtin_names(self):
        for name in ("reverse", "identity", "cycle"):
            assert schedules.from_text(name).name == name

    def test_inline_json(self):
        s = schedules.from_text('{"default": "identity", "table": {"2": [2, 1]}}')
        assert s.perm(2) == (2, 1)
        assert s.perm(3) == (1, 2, 3)

    def test_json_file(self, tmp_path):
        doc = {"default": "reverse", "table": {"3": [1, 3, 2]}}
        f = tmp_path / "schedule.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        s = schedules.from_text(str(f))
        assert s.perm(3) == (1, 3, 2)
        assert s.perm(5) == (5, 4, 3, 2, 1)

    @pytest.mark.parametrize(
        "text",
        [
            "bogus-name",
            '{"default": "nope"}',
            '{"table": {"two": [1, 2]}}',
            '{"table": {"2": [2, 2]}}',
            '{"extra": 1}',
            "{not json",
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises((ParseError, ScheduleError)):
            schedules.from_text(text)
