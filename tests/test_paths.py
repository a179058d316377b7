import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sweepmap import (
    DEFAULT_CAP,
    REVERSE,
    EnumerationSpec,
    HPathRound,
    HPathTrace,
    InversionResult,
    ParseError,
    Path,
    PathDiagram,
    PathKind,
    PermSchedule,
    PreconditionError,
    StepMultiset,
    VerificationReport,
    VibTrace,
    connected_diagram,
    enumerate_paths,
    invert_pipeline,
    is_balanced,
    minimal_diagram,
    row_counts,
    verify_bijection,
)
from helpers import (
    loop_connected_ranks,
    loop_is_dyck,
    loop_is_incomplete,
    row_count_delta,
    tally_row_counts,
    vpath,
)

steps_lists = st.lists(st.integers(min_value=-5, max_value=5), max_size=10)


class TestRowCounts:
    def test_nine_arrow_diagram(self, nine_arrow_diagram):
        rc = row_counts(nine_arrow_diagram)
        assert [rc.count(j) for j in range(7)] == [0, -1, -1, -2, 1, 2, 1]
        assert rc.count(-1) == 0
        assert rc.count(7) == 0

    def test_matches_row_scan_oracle(self, nine_arrow_diagram):
        rc = row_counts(nine_arrow_diagram)
        oracle = tally_row_counts(nine_arrow_diagram.steps, nine_arrow_diagram.ranks)
        for j in range(-3, 10):
            assert rc.count(j) == oracle.get(j, 0)

    def test_single_pair(self):
        rc = row_counts(PathDiagram((1, -1), (0, 1)))
        assert rc.count(0) == 0

    def test_level_arrow_contributes_nothing(self):
        rc = row_counts(PathDiagram((0,), (5,)))
        assert rc.count(5) == 0


class TestBalance:
    def test_balanced_example(self):
        assert is_balanced(PathDiagram((2, 0, 2, -3, 1, -2), (0, 0, 2, 3, 4, 5)))

    def test_unbalanced_example(self, nine_arrow_diagram):
        assert not is_balanced(nine_arrow_diagram)

    def test_empty_diagram(self):
        assert is_balanced(PathDiagram((), ()))

    def test_closed_paths_are_balanced_exhaustively(self):
        # every rearrangement of a zero-sum multiset, drawn connected
        for text in ("1^2,-1^2", "2,-1^2", "1,0,-1", "2,1,-1,-2", "3,-2,-1"):
            spec = EnumerationSpec(StepMultiset.from_text(text), PathKind.FREE)
            for path in enumerate_paths(spec):
                assert is_balanced(connected_diagram(path)), path

    def test_row_support_nonnegative(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(0, 8)
            steps = [rng.randint(-4, 4) for _ in range(n)]
            ranks = [rng.randint(0, 6) for _ in range(n)]
            d = PathDiagram(steps, ranks)
            if any(e < 0 for e in d.end_ranks):
                continue
            rc = row_counts(d)
            assert all(rc.count(j) == 0 for j in range(-8, 0))


class TestMinimalDiagram:
    @pytest.mark.parametrize(
        "steps,expected",
        [
            ((2, 0, 2, -3, 1, -2), (0, 0, 0, 3, 3, 3)),
            ((1, 1, -1, -1), (0, 0, 1, 1)),
            ((1, -1), (0, 1)),
        ],
    )
    def test_recurrence(self, steps, expected):
        assert minimal_diagram(Path(steps)).ranks == expected

    def test_empty(self):
        assert minimal_diagram(Path()).ranks == ()

    def test_result_is_positive(self):
        rng = random.Random(3)
        for _ in range(200):
            steps = [rng.randint(-5, 5) for _ in range(rng.randint(1, 9))]
            d = minimal_diagram(Path(steps))
            assert d.is_positive

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(steps_lists, st.randoms(use_true_random=False))
    def test_minimality(self, steps, rng):
        d = minimal_diagram(Path(steps))
        # any other increasing placement with no arrow ending below zero
        # dominates the minimal one pointwise
        other = []
        prev = None
        for i, b in enumerate(steps):
            lo = max(0, -b) if prev is None else max(prev, -b)
            value = lo + rng.randint(0, 3)
            other.append(value)
            prev = value
        assert all(m <= o for m, o in zip(d.ranks, other))


class TestVPath:
    def test_identity_on_steps(self):
        d = PathDiagram((2, 0, 2, -3, 1, -2), (5, 5, 6, 7, 7, 9))
        assert vpath(d) == Path((2, 0, 2, -3, 1, -2))

    def test_empty(self):
        assert vpath(PathDiagram((), ())) == Path()

    def test_round_trip_with_minimal(self):
        p = Path((1, -1, 1, -1))
        assert vpath(minimal_diagram(p)) == p


class TestRowCountDelta:
    def test_symmetric_pair(self):
        assert row_count_delta(PathDiagram((1, -1), (0, 1)), 0) == (0, 1, 1)

    def test_level_arrow(self):
        assert row_count_delta(PathDiagram((0,), (3,)), 3) == (0, 1, 1)

    def test_nine_arrow_diagram_row_4(self, nine_arrow_diagram):
        assert row_count_delta(nine_arrow_diagram, 4) == (3, 3, 0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(steps_lists, st.data())
    def test_delta_equals_starts_minus_ends(self, steps, data):
        ranks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=8),
                min_size=len(steps),
                max_size=len(steps),
            )
        )
        d = PathDiagram(steps, ranks)
        for j in range(-6, 15):
            delta, starts, ends = row_count_delta(d, j)
            assert delta == starts - ends


class TestClassify:
    @pytest.mark.parametrize(
        "steps,kind",
        [
            ((2, 0, 2, -3, 1, -2), PathKind.DYCK),
            ((1, -1, -1), PathKind.INCOMPLETE),
            ((-1, 1), PathKind.OTHER),
            ((1, 1), PathKind.OTHER),
            ((), PathKind.DYCK),
        ],
    )
    def test_labels(self, steps, kind):
        assert Path(steps).classify() is kind

    def test_predicates_consistent(self):
        p = Path((2, 0, 2, -3, 1, -2))
        assert p.is_dyck and p.is_free and not p.is_incomplete
        q = Path((-1, 1))
        assert q.is_free and not q.is_dyck
        r = Path((1, -1, -1))
        assert r.is_incomplete and not r.is_free
        assert r.start_level == 1

    def test_incomplete_may_dip_from_zero(self):
        # valid from its start height even though it dips below a zero start
        assert Path((-1, 1, -1)).classify() is PathKind.INCOMPLETE

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(steps_lists)
    @example([])
    @example([1, -1, -1])
    @example([-1, 1, -1])
    @example([1, -2, 1])
    def test_predicates_match_loop_oracles(self, steps):
        p = Path(steps)
        assert p.connected_ranks() == loop_connected_ranks(steps)
        assert p.is_dyck == loop_is_dyck(steps)
        assert p.is_incomplete == loop_is_incomplete(steps)
        expected = (
            PathKind.DYCK if loop_is_dyck(steps)
            else PathKind.INCOMPLETE if loop_is_incomplete(steps)
            else PathKind.OTHER
        )
        assert p.classify() is expected


class TestTextForms:
    def test_path_round_trip(self, fig_path):
        assert Path.from_text("2,0,2,-3,1,-2") == fig_path
        assert fig_path.to_text() == "2,0,2,-3,1,-2"
        assert Path.from_text("") == Path()
        assert Path.from_text(" 1 , -1 ") == Path((1, -1))

    def test_path_bad_token(self):
        with pytest.raises(ParseError, match="x"):
            Path.from_text("1,x,-1")

    def test_multiset_round_trip(self):
        m = StepMultiset.from_text("1^3,-1^3")
        assert m.counts() == {1: 3, -1: 3}
        assert m.to_text() == "1^3,-1^3"
        assert StepMultiset.from_text("3^2,-2^3").to_text() == "3^2,-2^3"
        assert StepMultiset.from_text("2,1,0,-1,-2").to_text() == "2,1,0,-1,-2"

    def test_multiset_merges_duplicates(self):
        assert StepMultiset.from_text("1,1^2").counts() == {1: 3}

    def test_multiset_bad_token(self):
        with pytest.raises(ParseError, match="1\\^"):
            StepMultiset.from_text("1^,2")

    def test_multiset_properties(self):
        m = StepMultiset.from_text("2^2,-1^4")
        assert m.total == 0 and m.size == 6
        b = StepMultiset.from_text("1,-1^2")
        assert b.total == -1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(steps_lists)
    def test_path_text_round_trip_property(self, steps):
        p = Path(steps)
        assert Path.from_text(p.to_text()) == p


class TestDiagramType:
    def test_length_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            PathDiagram((1, -1), (0,))

    def test_end_ranks_and_predicates(self):
        d = PathDiagram((2, -1), (0, 3))
        assert d.end_ranks == (2, 2)
        assert d.is_increasing and d.is_positive
        assert not PathDiagram((1,), (-2,)).is_positive
        assert not PathDiagram((1, -1), (1, 0)).is_increasing

    def test_end_ranks_computed_once(self):
        d = PathDiagram((2, -1), (0, 3))
        assert d.end_ranks is d.end_ranks
        # the cached value is no field: equality, hash and repr are unchanged
        twin = PathDiagram((2, -1), (0, 3))
        assert d == twin and hash(d) == hash(twin)
        assert repr(d) == repr(twin) == "PathDiagram(steps=(2, -1), ranks=(0, 3))"

    def test_type_of(self, fig_path):
        assert fig_path.type_of() == StepMultiset.from_text("2^2,1,0,-2,-3")


# The value records: each case builds one record afresh on every call and
# gives the repr it must have.  The inversion's records come from the
# pipeline on the path 1,-1, so the library's own construction is covered.
ONE_UP_ONE_DOWN = StepMultiset({1: 1, -1: 1})
RECORDS = {
    "Path": (lambda: Path([1, -1]), "Path(steps=(1, -1))"),
    "PathDiagram": (lambda: PathDiagram((2, -1), (0, 3)), "PathDiagram(steps=(2, -1), ranks=(0, 3))"),
    "StepMultiset": (lambda: StepMultiset({-1: 2, 1: 2}), "StepMultiset(entries=((1, 2), (-1, 2)))"),
    "PermSchedule": (lambda: PermSchedule("reverse", REVERSE.rule), "PermSchedule('reverse')"),
    "VibTrace": (
        lambda: invert_pipeline(Path((1, -1)), REVERSE).vib_trace,
        "VibTrace(log=(), initial_ranks=(0, 1), final_ranks=(0, 1))",
    ),
    "HPathRound": (
        lambda: invert_pipeline(Path((1, -1)), REVERSE).hpath_trace.rounds[0],
        "HPathRound(k=1, order=(0, 1), stop_reason='completed', "
        "diagram_after=PathDiagram(steps=(1, -1), ranks=(0, 1)), number=1)",
    ),
    "HPathTrace": (
        lambda: invert_pipeline(Path((1, -1)), REVERSE).hpath_trace,
        "HPathTrace(rounds=(HPathRound(k=1, order=(0, 1), stop_reason='completed', "
        "diagram_after=PathDiagram(steps=(1, -1), ranks=(0, 1)), number=1),))",
    ),
    "InversionResult": (
        lambda: invert_pipeline(Path((1, -1)), REVERSE),
        "InversionResult(preimage=Path(steps=(1, -1)), "
        "minimal=PathDiagram(steps=(1, -1), ranks=(0, 1)), balanced=PathDiagram(steps=(1, -1), ranks=(0, 1)), "
        "vib_trace=VibTrace(log=(), initial_ranks=(0, 1), final_ranks=(0, 1)), "
        "hpath_trace=HPathTrace(rounds=(HPathRound(k=1, order=(0, 1), stop_reason='completed', "
        "diagram_after=PathDiagram(steps=(1, -1), ranks=(0, 1)), number=1),)))",
    ),
    "EnumerationSpec": (
        lambda: EnumerationSpec(ONE_UP_ONE_DOWN, PathKind.DYCK),
        "EnumerationSpec(multiset=StepMultiset(entries=((1, 1), (-1, 1))), kind=<PathKind.DYCK: 'dyck'>, cap=1000000)",
    ),
    "VerificationReport": (
        lambda: verify_bijection(EnumerationSpec(ONE_UP_ONE_DOWN, PathKind.DYCK), REVERSE),
        "VerificationReport(family='1,-1', kind='dyck', size=1, schedule='reverse', injective=True, "
        "closed=True, roundtrip=True, passed=True, counterexample=None)",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, text = RECORDS[name]
    record, twin = make(), make()
    assert type(record).__name__ == name and record is not twin
    assert repr(record) == text
    if name == "PermSchedule":  # compares by identity
        assert record != twin and record == record and hash(record) == hash(record)
    else:
        assert record == twin and hash(record) == hash(twin)
    # fields are read-only, and no other attribute can be set
    field = text[text.index("(") + 1:].split("=")[0] if "=" in text else "name"
    before = getattr(record, field)
    for attribute in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before
    # another class with the same fields is unequal either way round
    other = object.__new__(type("Other", (type(record),), {}))
    vars(other).update(vars(record))
    assert getattr(other, field) is before
    assert other != record and record != other


def test_record_constructors_keep_their_signatures():
    assert Path().steps == () and StepMultiset().entries == ()
    result = invert_pipeline(Path((1, -1)), REVERSE)
    names = ("preimage", "minimal", "balanced", "vib_trace", "hpath_trace")
    assert InversionResult(*(getattr(result, name) for name in names)) == result
    rounds = result.hpath_trace.rounds
    assert HPathTrace(rounds=rounds) == HPathTrace(rounds) == result.hpath_trace
    assert HPathRound(1, (0, 1), "completed", result.balanced, number=1) == rounds[0]
    assert VibTrace((), final_ranks=(0, 1), initial_ranks=(0, 1)) == result.vib_trace
    with pytest.raises(TypeError):
        VibTrace((), (0, 1))
    with pytest.raises(TypeError):
        HPathTrace(rounds, rounds=rounds)
    with pytest.raises(TypeError):
        HPathTrace(rounds, ())
    with pytest.raises(TypeError):
        HPathTrace(rounds=rounds, labels=())
    # the defaults: a spec's cap and a report's counterexample
    spec = EnumerationSpec(multiset=ONE_UP_ONE_DOWN, kind=PathKind.DYCK)
    assert spec.cap == DEFAULT_CAP and spec == EnumerationSpec(ONE_UP_ONE_DOWN, PathKind.DYCK, DEFAULT_CAP)
    fields = dict(family="1,-1", kind="dyck", size=1, schedule="reverse", injective=True, closed=True,
                  roundtrip=True, passed=True)
    report = VerificationReport(**fields)
    assert report.counterexample is None and report == verify_bijection(spec, REVERSE)
    assert VerificationReport(*fields.values(), "1,-1").counterexample == "1,-1"
    # and a spec still refuses what it refused
    with pytest.raises(PreconditionError, match="cap must be positive"):
        EnumerationSpec(ONE_UP_ONE_DOWN, PathKind.DYCK, cap=0)
    with pytest.raises(PreconditionError, match="cannot enumerate kind 'other'"):
        EnumerationSpec(ONE_UP_ONE_DOWN, PathKind.OTHER)
    with pytest.raises(PreconditionError, match="zero-sum"):
        EnumerationSpec(StepMultiset({1: 1}), PathKind.FREE)
