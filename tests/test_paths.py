import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sweepmap import (
    EnumerationSpec,
    ParseError,
    Path,
    PathDiagram,
    PathKind,
    PreconditionError,
    StepMultiset,
    connected_diagram,
    enumerate_paths,
    is_balanced,
    minimal_diagram,
    row_counts,
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
