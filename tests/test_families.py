import random
import sys
from itertools import permutations

import pytest

import sweepmap
import sweepmap.families as families_module
from sweepmap import (
    CYCLE,
    IDENTITY,
    REVERSE,
    BijectionError,
    EnumerationSpec,
    FamilyCapExceeded,
    HPathLabel,
    HPathRound,
    InversionResult,
    Path,
    PathDiagram,
    PathKind,
    PreconditionError,
    StepMultiset,
    VibTrace,
    enumerate_paths,
    family_size,
    inv_osweep,
    invert_pipeline,
    oracle_invert,
    osweep,
    table_schedule,
    verify_bijection,
)
from helpers import (
    CRITERION_3_MULTISETS,
    CRITERION_8_MULTISETS,
    forbid_pipeline,
    naive_family,
    random_schedule,
    ref_verify_bijection,
)


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
            "counterexample",
        ]
        assert record["pass"] is True

    def test_rejects_free_kind(self):
        with pytest.raises(PreconditionError):
            verify_bijection(spec("1,-1", PathKind.FREE), REVERSE)

    def test_text_report(self):
        text = verify_bijection(spec("1^2,-1^2", PathKind.DYCK), REVERSE).to_text()
        assert text.endswith("PASS")
        assert "size:      2" in text


class TestVerifyMatchesReference:
    """``verify_bijection`` on step tuples against the Path-level reference:
    every report field equal, counterexample included."""

    SCHEDULES = (REVERSE, IDENTITY, CYCLE, random_schedule(14))

    @pytest.mark.parametrize("text", CRITERION_3_MULTISETS)
    def test_criterion_3_families(self, text, monkeypatch):
        # both maps, verify_bijection's and the reference's inv_osweep, run
        # without the traced pipeline
        forbid_pipeline(monkeypatch)
        family = spec(text, PathKind.DYCK)
        for schedule in self.SCHEDULES:
            report = verify_bijection(family, schedule)
            assert report == ref_verify_bijection(family, schedule)
            assert report.passed

    def test_criterion_8_sample(self):
        rng = random.Random(14)
        for i, values in enumerate(rng.sample(CRITERION_8_MULTISETS, 80)):
            family = EnumerationSpec(StepMultiset.from_steps(values), PathKind.INCOMPLETE)
            schedule = self.SCHEDULES[i % len(self.SCHEDULES)]
            report = verify_bijection(family, schedule)
            assert report == ref_verify_bijection(family, schedule)
            assert report.passed


def certify_every_schedule(family):
    """Check that the order sweep map permutes a Dyck or incomplete
    ``family`` under every schedule, and return how many permutations that
    took.

    A member's image reads only ``perm(k)``, where ``k`` is its number of
    height-zero arrows, so the family splits into classes by ``k``.  For
    each class and each of the ``k!`` permutations, the class maps
    injectively into the family, each image inverts back to its member, and
    the first ``hpath`` round on the image reports the same ``k`` (one more
    for an incomplete family: the inversion runs on the completion, whose
    added arrow joins the height-zero group).  That ``k`` is read off the
    image alone, so the classes' images are disjoint and, whatever the
    schedule, the map sends the finite family injectively into itself: it
    permutes it.
    """
    members = list(enumerate_paths(family))
    added = family.kind is PathKind.INCOMPLETE
    members_set = set(members)
    classes = {}
    for p in members:
        classes.setdefault(p.connected_ranks().count(0), []).append(p)
    tried = 0
    for k, group in classes.items():
        for perm in permutations(range(1, k + 1)):
            schedule = table_schedule({k: perm}) if k else REVERSE
            images = [osweep(p, schedule) for p in group]
            assert len(set(images)) == len(group), (family, perm)
            for p, image in zip(group, images):
                assert image in members_set and inv_osweep(image, schedule) == p, (family, perm, p)
                assert invert_pipeline(image, schedule).hpath_trace.rounds[0].k == k + added, (family, perm, p)
            tried += 1
    return tried


def test_every_schedule_on_criterion_3_families():
    assert sum(certify_every_schedule(spec(text, PathKind.DYCK)) for text in CRITERION_3_MULTISETS) > 1000


def test_every_schedule_on_a_criterion_8_sample():
    families = [
        EnumerationSpec(StepMultiset.from_steps(values), PathKind.INCOMPLETE)
        for values in random.Random(16).sample(CRITERION_8_MULTISETS, 40)
    ]
    assert sum(map(certify_every_schedule, families)) > 1000


@pytest.mark.slow
@pytest.mark.parametrize("text", ("1^7,-1^7", "1^8,-1^8"))
def test_every_schedule_up_to_eight_returns(text):
    assert certify_every_schedule(spec(text, PathKind.DYCK)) > 5000


# The step-tuple kernel that ``verify_bijection`` calls for each public map.
KERNELS = {"osweep": "_osweep", "inv_osweep": "_inverse"}


def _patched(monkeypatch, name, wrong):
    """Break the map ``name`` where ``verify_bijection`` calls it: ``wrong``
    maps some paths to chosen results, every other path goes to the real
    kernel.  Returns the public map broken the same way, for the reference."""
    kernel = KERNELS[name]
    real = getattr(families_module, kernel)
    wrong_steps = {p.steps: q.steps for p, q in wrong.items()}
    monkeypatch.setattr(
        families_module,
        kernel,
        lambda steps, *args: wrong_steps[steps] if steps in wrong_steps else real(steps, *args),
    )
    public = getattr(sweepmap, name)
    return lambda p, schedule: wrong[p] if p in wrong else public(p, schedule)


class TestVerifyCatchesBrokenMaps:
    # Under REVERSE the family 1^3,-1^3 is m0..m4 in enumeration order and
    # osweep sends m0->m4, m1->m3, m2->m2, m3->m1, m4->m0.
    M = list(enumerate_paths(spec("1^3,-1^3", PathKind.DYCK)))

    def verify(self, **broken):
        # the reference sees the same broken maps and must agree field for field
        report = verify_bijection(spec("1^3,-1^3", PathKind.DYCK), REVERSE)
        assert report == ref_verify_bijection(spec("1^3,-1^3", PathKind.DYCK), REVERSE, **broken)
        return report

    def test_wrong_preimage(self, monkeypatch):
        m = self.M
        # m1's true preimage is m3: the first round trip fails at m3, but the
        # second, forward(backward(m1)) = osweep(m2) = m2, already at m1
        report = self.verify(backward=_patched(monkeypatch, "inv_osweep", {m[1]: m[2]}))
        assert report.injective and report.closed
        assert not report.roundtrip and not report.passed
        assert report.counterexample == m[1].to_text() == "1,-1,1,1,-1,-1"
        assert report.to_text().endswith("counterexample: 1,-1,1,1,-1,-1\nFAIL")

    def test_two_members_to_one_image(self, monkeypatch):
        m = self.M
        report = self.verify(forward=_patched(monkeypatch, "osweep", {m[1]: m[4]}))  # m0's image as well
        assert not report.injective and report.closed
        assert not report.roundtrip and not report.passed
        assert report.counterexample == m[1].to_text()

    def test_image_outside_family(self, monkeypatch):
        m = self.M
        report = self.verify(forward=_patched(monkeypatch, "osweep", {m[2]: Path((2, -1, -1))}))
        assert report.injective and not report.closed
        assert not report.roundtrip and not report.passed
        assert report.counterexample == m[2].to_text() == "1,1,-1,-1,1,-1"
        assert report.as_record()["counterexample"] == "1,1,-1,-1,1,-1"

    def test_only_closure_fails_at_the_counterexample(self, monkeypatch):
        m = self.M
        outside = Path((2, -1, -1))
        # both maps agree on m1 <-> outside, so m1 round-trips; m3, whose
        # true image is m1, is the first member to fail a round trip
        report = self.verify(
            forward=_patched(monkeypatch, "osweep", {m[1]: outside}),
            backward=_patched(monkeypatch, "inv_osweep", {outside: m[1]}),
        )
        assert report.injective and not report.closed
        assert not report.roundtrip and not report.passed
        assert report.counterexample == m[1].to_text()

    def test_incomplete_wrong_preimage(self, monkeypatch):
        # Under CYCLE the family 1^2,-1^3 is n0..n4 and n2 is its own image
        n = list(enumerate_paths(spec("1^2,-1^3", PathKind.INCOMPLETE)))
        backward = _patched(monkeypatch, "inv_osweep", {n[2]: n[0]})
        report = verify_bijection(spec("1^2,-1^3", PathKind.INCOMPLETE), CYCLE)
        assert report == ref_verify_bijection(spec("1^2,-1^3", PathKind.INCOMPLETE), CYCLE, backward=backward)
        assert report.injective and report.closed
        assert not report.roundtrip and not report.passed
        assert report.counterexample == n[2].to_text() == "1,-1,-1,1,-1"

    def test_passing_report_has_no_counterexample(self):
        report = self.verify()
        assert report.passed and report.counterexample is None
        assert "counterexample" not in report.to_text()


@pytest.mark.parametrize(
    "text,kind,schedule,maps",
    [
        ("1^4,-1^4", PathKind.DYCK, REVERSE, tuple(KERNELS.values())),
        ("1^2,-1^3", PathKind.INCOMPLETE, CYCLE, tuple(KERNELS.values())),
    ],
)
def test_verify_maps_and_inverts_each_member_once(monkeypatch, text, kind, schedule, maps):
    calls = dict.fromkeys(maps, 0)

    def counted(name):
        real = getattr(families_module, name)

        def call(steps, *args):
            calls[name] += 1
            return real(steps, *args)

        return call

    for name in maps:
        monkeypatch.setattr(families_module, name, counted(name))
    report = verify_bijection(spec(text, kind), schedule)
    assert report.passed and report.size == family_size(spec(text, kind)) > 1
    assert calls == dict.fromkeys(maps, report.size)


def test_verification_builds_no_diagram_or_trace(monkeypatch):
    # verify_bijection reads only preimages, so inv_osweep builds none of
    # the inversion pipeline's diagrams, traces or result objects, by any
    # constructor: ``__init__``, the trusted ``_trusted`` of paths and
    # diagrams, or the records' ``sweepmap.invert._record``
    built = []

    def counting(name, constructor):
        def build(*args, **kwargs):
            built.append(name(*args))
            return constructor(*args, **kwargs)

        return build

    for cls in (Path, PathDiagram, VibTrace, HPathRound, InversionResult):
        monkeypatch.setattr(cls, "__init__", counting(lambda self, *_: type(self).__name__, cls.__init__))
    for cls in (Path, PathDiagram):
        trusted = counting(lambda *_, cls=cls: cls.__name__, cls._trusted)
        monkeypatch.setattr(cls, "_trusted", staticmethod(trusted))
    monkeypatch.setattr(sweepmap.invert, "_record", counting(lambda cls: cls.__name__, sweepmap.invert._record))
    monkeypatch.setattr(HPathLabel, "__new__", counting(lambda cls, *_: cls.__name__, HPathLabel.__new__))
    for path in (Path((1, 1, -1, -1)), Path((1, -1, -1))):
        invert_pipeline(path, REVERSE).hpath_trace.rounds[0].labels
        records = {"VibTrace", "HPathRound", "HPathTrace", "HPathLabel", "InversionResult"}
        assert set(built) == {"Path", "PathDiagram"} | records
        built.clear()
    # one Path per enumerated member and none inside the maps
    for family in (spec("1^5,-1^5", PathKind.DYCK), spec("2,1^2,-1^3,-2", PathKind.INCOMPLETE)):
        for schedule in (REVERSE, random_schedule(5)):
            report = verify_bijection(family, schedule)
            assert report.passed and report.size > 40
            assert set(built) <= {"Path"} and len(built) <= report.size + 2
            built.clear()
