import sys

import pytest

from sweepmap import (
    CYCLE,
    IDENTITY,
    REVERSE,
    BijectionError,
    EnumerationSpec,
    FamilyCapExceeded,
    Path,
    PathKind,
    PreconditionError,
    StepMultiset,
    enumerate_paths,
    family_size,
    inv_osweep,
    oracle_invert,
    verify_bijection,
)
from helpers import naive_family, random_schedule


def spec(text, kind, **kwargs):
    return EnumerationSpec(StepMultiset.from_text(text), kind, **kwargs)


class TestEnumerate:
    def test_classical_catalan_family(self):
        members = list(enumerate_paths(spec("1^3,-1^3", PathKind.DYCK)))
        assert len(members) == 5  # the third Catalan number
        assert members == sorted(members, key=lambda p: p.steps)
        assert members[-1] == Path((1, 1, 1, -1, -1, -1))

    def test_rational_family(self):
        members = [p.steps for p in enumerate_paths(spec("3^2,-2^3", PathKind.DYCK))]
        assert members == [(3, -2, 3, -2, -2), (3, 3, -2, -2, -2)]

    def test_incomplete_family(self):
        members = [p.steps for p in enumerate_paths(spec("1,-1^2", PathKind.INCOMPLETE))]
        assert members == [(-1, 1, -1), (1, -1, -1)]

    def test_free_family_is_all_permutations(self):
        members = [p.steps for p in enumerate_paths(spec("1^2,-1^2", PathKind.FREE))]
        assert len(members) == 6
        assert members == naive_family([1, 1, -1, -1], PathKind.FREE)

    @pytest.mark.parametrize(
        "text,kind",
        [
            ("1^3,-1^3", PathKind.DYCK),
            ("1^2,-1^2", PathKind.FREE),
            ("2^2,0,-1^4", PathKind.DYCK),
            ("2,1,-1,-2", PathKind.DYCK),
            ("1^2,-1^3", PathKind.INCOMPLETE),
            ("2,-1^2,-2", PathKind.INCOMPLETE),
            ("0,-2,1", PathKind.INCOMPLETE),
        ],
    )
    def test_matches_naive_filter(self, text, kind):
        m = StepMultiset.from_text(text)
        values = [v for v, mult in m.entries for _ in range(mult)]
        got = [p.steps for p in enumerate_paths(EnumerationSpec(m, kind))]
        assert got == naive_family(values, kind)

    def test_no_duplicates_and_kind_membership(self):
        for text, kind in (("1^4,-2^2", PathKind.DYCK), ("1^2,-1^3", PathKind.INCOMPLETE)):
            members = list(enumerate_paths(spec(text, kind)))
            assert len(set(members)) == len(members)
            predicate = {
                PathKind.DYCK: lambda p: p.is_dyck,
                PathKind.INCOMPLETE: lambda p: p.is_incomplete,
            }[kind]
            assert all(predicate(p) for p in members)

    def test_empty_multiset(self):
        assert list(enumerate_paths(spec("", PathKind.DYCK))) == [Path()]

    def test_cap_exceeded(self):
        with pytest.raises(FamilyCapExceeded):
            list(enumerate_paths(spec("1^4,-1^4", PathKind.DYCK, cap=3)))

    def test_cap_is_checked_lazily(self):
        family = list(enumerate_paths(spec("1^4,-1^4", PathKind.DYCK)))
        assert list(enumerate_paths(spec("1^4,-1^4", PathKind.DYCK, cap=14))) == family
        members = enumerate_paths(spec("1^4,-1^4", PathKind.DYCK, cap=3))
        assert [next(members) for _ in range(3)] == family[:3]
        with pytest.raises(FamilyCapExceeded):
            next(members)

    def test_path_length_beyond_recursion_limit(self):
        n = sys.getrecursionlimit() + 200
        assert list(enumerate_paths(spec(f"0^{n}", PathKind.FREE))) == [Path((0,) * n)]
        members = enumerate_paths(spec(f"1,0^{n},-1", PathKind.DYCK))
        zeros = (0,) * (n - 1)
        assert [next(members) for _ in range(2)] == [
            Path((*zeros, 0, 1, -1)),
            Path((*zeros, 1, -1, 0)),
        ]

    def test_family_size(self):
        assert family_size(spec("1^4,-1^4", PathKind.DYCK)) == 14
        assert family_size(spec("1^2,-1^2", PathKind.FREE)) == 6

    def test_invalid_specs(self):
        with pytest.raises(PreconditionError):
            spec("1^2,-1", PathKind.DYCK)  # nonzero sum
        with pytest.raises(PreconditionError):
            spec("1,-1", PathKind.INCOMPLETE)  # sum not negative
        with pytest.raises(PreconditionError):
            spec("1,-1", PathKind.OTHER)
        with pytest.raises(PreconditionError):
            spec("1,-1", PathKind.DYCK, cap=0)


class TestOracleInvert:
    def test_worked_example(self, fig_path):
        assert oracle_invert(fig_path, REVERSE) == Path((0, 2, 2, 1, -2, -3))

    def test_singleton_family(self):
        for schedule in (REVERSE, IDENTITY, CYCLE):
            assert oracle_invert(Path((1, -1)), schedule) == Path((1, -1))

    def test_agrees_with_pipeline_exhaustively(self):
        family = list(enumerate_paths(spec("1^4,-1^4", PathKind.DYCK)))
        assert len(family) == 14
        for schedule in (REVERSE, IDENTITY, CYCLE):
            for p in family:
                assert oracle_invert(p, schedule) == inv_osweep(p, schedule)

    def test_rejects_non_dyck(self):
        with pytest.raises(PreconditionError):
            oracle_invert(Path((-1, 1)), REVERSE)

    def test_multiple_preimages_raise(self, monkeypatch):
        # a correct forward map never produces this, so break it on purpose
        import sweepmap.families as families_module

        monkeypatch.setattr(
            families_module, "osweep", lambda p, schedule: Path((1, 1, -1, -1))
        )
        with pytest.raises(BijectionError, match="preimages"):
            oracle_invert(Path((1, 1, -1, -1)), IDENTITY)

    def test_zero_preimages_raise(self, monkeypatch):
        import sweepmap.families as families_module

        monkeypatch.setattr(
            families_module, "osweep", lambda p, schedule: Path((-1, -1, 1, 1))
        )
        with pytest.raises(BijectionError, match="0 preimages"):
            oracle_invert(Path((1, 1, -1, -1)), IDENTITY)


class TestVerify:
    def test_catalan_family_passes(self):
        report = verify_bijection(spec("1^3,-1^3", PathKind.DYCK), REVERSE)
        assert report.passed and report.size == 5
        assert report.injective and report.closed and report.roundtrip
        assert report.family == "1^3,-1^3"
        assert report.schedule == "reverse"

    def test_rational_family_identity(self):
        report = verify_bijection(spec("3^2,-2^3", PathKind.DYCK), IDENTITY)
        assert report.passed and report.size == 2

    def test_incomplete_family_cycle(self):
        report = verify_bijection(spec("1,-1^2", PathKind.INCOMPLETE), CYCLE)
        assert report.passed and report.size == 2

    def test_random_table_schedule(self):
        report = verify_bijection(spec("1^3,-1^3", PathKind.DYCK), random_schedule(99))
        assert report.passed

    def test_record_fields(self):
        record = verify_bijection(spec("1^2,-1^2", PathKind.DYCK), CYCLE).as_record()
        assert list(record) == [
            "family",
            "kind",
            "size",
            "schedule",
            "injective",
            "closed",
            "roundtrip",
            "pass",
        ]
        assert record["pass"] is True

    def test_rejects_free_kind(self):
        with pytest.raises(PreconditionError):
            verify_bijection(spec("1,-1", PathKind.FREE), REVERSE)

    def test_text_report(self):
        text = verify_bijection(spec("1^2,-1^2", PathKind.DYCK), REVERSE).to_text()
        assert text.endswith("PASS")
        assert "size:      2" in text
