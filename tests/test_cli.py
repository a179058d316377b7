import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweepmap.invert
from sweepmap import (
    CYCLE,
    IDENTITY,
    REVERSE,
    Path,
    PermSchedule,
    VerificationReport,
    cli,
    inv_osweep,
    invert_pipeline,
    minimal_diagram,
    osweep,
    sweep,
)
from sweepmap.cli import run
from helpers import ref_vib


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestSweepCommands:
    def test_sweep_worked_example(self, capsys):
        assert run(["sweep", "--path", "2,0,2,-3,1,-2"]) == 0
        out, _ = out_of(capsys)
        assert out == "2,1,-2,2,0,-3\n"

    def test_sweep_json_round_trips(self, capsys):
        assert run(["sweep", "--path", "2,0,2,-3,1,-2", "--json"]) == 0
        out, _ = out_of(capsys)
        assert Path(json.loads(out)) == Path((2, 1, -2, 2, 0, -3))

    def test_sweep_auto_detects_incomplete(self, capsys):
        assert run(["sweep", "--path", "1,-1,-1"]) == 0
        out, _ = out_of(capsys)
        assert out == "-1,1,-1\n"

    def test_osweep_identity(self, capsys):
        assert run(["osweep", "--path", "1,-1,1,-1", "--schedule", "identity"]) == 0
        out, _ = out_of(capsys)
        assert out == "1,1,-1,-1\n"

    def test_kind_forcing_mismatch_is_usage_error(self, capsys):
        assert run(["sweep", "--path", "1,-1,-1", "--kind", "dyck"]) == 2
        _, err = out_of(capsys)
        assert "dyck" in err

    def test_kind_free_forces_plain_sweep(self, capsys):
        assert run(["sweep", "--path", "-1,1", "--kind", "free"]) == 0
        out, _ = out_of(capsys)
        assert out == "-1,1\n"

    def test_kind_free_rejects_nonzero_sum(self, capsys):
        assert run(["sweep", "--path", "1,1", "--kind", "free"]) == 2

    def test_malformed_path_names_token(self, capsys):
        assert run(["sweep", "--path", "1,oops,-1"]) == 2
        _, err = out_of(capsys)
        assert "oops" in err

    @pytest.mark.parametrize(
        "schedule,file_text,message",
        [
            ("sideways", None, "sideways"),
            (None, "[1]", "schedule document must be a JSON object, got list"),
            ('{"table": [1]}', None, "schedule table must be an object mapping sizes to permutations"),
            (None, "{nope", "holds invalid JSON"),
        ],
        ids=["unknown name", "file not an object", "table not an object", "file not JSON"],
    )
    def test_malformed_schedule_is_refused(self, schedule, file_text, message, tmp_path, capsys):
        if file_text is not None:
            schedule = tmp_path / "schedule.json"
            schedule.write_text(file_text, encoding="utf-8")
        assert run(["osweep", "--path", "1,-1", "--schedule", str(schedule)]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error: ") and message in err


class TestInvert:
    def test_worked_example(self, capsys):
        assert run(["invert", "--path", "2,0,2,-3,1,-2", "--schedule", "reverse"]) == 0
        out, _ = out_of(capsys)
        assert out == "0,2,2,1,-2,-3\n"

    def test_oracle_cross_check(self, capsys):
        assert run(["invert", "--path", "2,0,2,-3,1,-2", "--schedule", "reverse", "--oracle"]) == 0
        out, _ = out_of(capsys)
        assert out == "0,2,2,1,-2,-3\n"

    def test_incomplete_conjugation(self, capsys):
        assert run(["invert", "--path", "-1,1,-1", "--schedule", "reverse", "--oracle"]) == 0
        out, _ = out_of(capsys)
        assert out == "1,-1,-1\n"

    def test_free_non_dyck_rejected(self, capsys):
        assert run(["invert", "--path", "-1,1", "--schedule", "reverse"]) == 2
        _, err = out_of(capsys)
        assert "other" in err

    def test_oracle_shares_no_code_with_the_conjugation(self, capsys, monkeypatch):
        # A lift that does nothing breaks the pipeline's conjugation.  The
        # table inversion enumerates the incomplete family itself, so it
        # disagrees instead of repeating the fault.
        monkeypatch.setattr(PermSchedule, "lift", lambda self: self)
        assert run(["invert", "--path", "2,-1,-1,-1", "--schedule", "reverse", "--oracle"]) == 1
        _, err = out_of(capsys)
        assert err == "oracle mismatch: pipeline -1,-1,1,-1, table -1,2,-1,-1\n"

    @pytest.mark.parametrize(
        "text", ["2,0,2,-3,1,-2", "2000000000,-1000000000,-1000000000"], ids=["row kernel", "step function"]
    )
    def test_violated_invariant_exits_one(self, text, capsys, monkeypatch):
        # a cap of no moves binds on the first move of either balancing kernel
        monkeypatch.setattr(sweepmap.invert, "_step_cap", lambda *_: 0)
        assert run(["invert", "--path", text]) == 1
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error: balancing exceeded its safety cap of 0 moves; ")


class TestEnumerateVerify:
    def test_enumerate_text(self, capsys):
        assert run(["enumerate", "--type", "3^2,-2^3", "--kind", "dyck"]) == 0
        out, _ = out_of(capsys)
        assert out.splitlines() == ["3,-2,3,-2,-2", "3,3,-2,-2,-2"]

    def test_enumerate_count_only(self, capsys):
        assert run(["enumerate", "--type", "1^3,-1^3", "--kind", "dyck", "--count-only"]) == 0
        out, _ = out_of(capsys)
        assert out == "5\n"

    def test_enumerate_json(self, capsys):
        assert run(["enumerate", "--type", "1,-1^2", "--kind", "incomplete", "--json"]) == 0
        out, _ = out_of(capsys)
        assert json.loads(out) == [[-1, 1, -1], [1, -1, -1]]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--type", "1^4,-1^4", "--kind", "dyck", "--cap", "3"], "cap"),
            (["--type", "1^0,-1", "--kind", "dyck"], "multiplicity of 1 must be positive, got 0"),
        ],
        ids=["cap exceeded", "zero multiplicity"],
    )
    def test_enumerate_refusals(self, argv, message, capsys):
        assert run(["enumerate", *argv]) == 2
        _, err = out_of(capsys)
        assert message in err

    def test_enumerate_path_longer_than_recursion_limit(self, capsys):
        assert run(["enumerate", "--type", "0^1200", "--kind", "free", "--count-only"]) == 0
        out, _ = out_of(capsys)
        assert out == "1\n"
        assert run(["enumerate", "--type", "0^1200", "--kind", "free", "--count-only", "--json"]) == 0
        out, _ = out_of(capsys)
        assert json.loads(out)["size"] == 1

    def test_verify_pass(self, capsys):
        assert run(["verify", "--type", "1^3,-1^3", "--kind", "dyck", "--schedule", "identity"]) == 0
        out, _ = out_of(capsys)
        assert "size:      5" in out
        assert out.strip().endswith("PASS")

    def test_verify_json_schema(self, capsys):
        assert (
            run(["verify", "--type", "1,-1^2", "--kind", "incomplete", "--schedule", "cycle", "--json"])
            == 0
        )
        out, _ = out_of(capsys)
        assert out == (
            '{"family": "1,-1^2", "kind": "incomplete", "size": 2, "schedule": "cycle", '
            '"injective": true, "closed": true, "roundtrip": true, "pass": true, '
            '"counterexample": null}\n'
        )

    def test_verify_dry_run(self, capsys):
        assert run(["verify", "--type", "1^4,-1^4", "--kind", "dyck", "--dry-run", "--json"]) == 0
        out, _ = out_of(capsys)
        assert json.loads(out)["size"] == 14

    def test_verify_invalid_multiset_kind_combo(self, capsys):
        assert run(["verify", "--type", "1,-1", "--kind", "incomplete", "--schedule", "reverse"]) == 2
        _, err = out_of(capsys)
        assert "negative-sum" in err

    def test_verify_failure_exits_one(self, capsys, monkeypatch):
        # bijectivity cannot fail for real, so stub the report to test the exit path
        import sweepmap.cli as cli_module

        failed = VerificationReport(
            family="1,-1",
            kind="dyck",
            size=1,
            schedule="reverse",
            injective=False,
            closed=True,
            roundtrip=False,
            passed=False,
        )
        monkeypatch.setattr(cli_module.families, "verify_bijection", lambda spec, sched: failed)
        assert run(["verify", "--type", "1,-1", "--kind", "dyck", "--schedule", "reverse"]) == 1
        out, _ = out_of(capsys)
        assert out.strip().endswith("FAIL")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["sweep", "--path", ""], "\n"),
        (["sweep", "--path", "", "--json"], "[]\n"),
        # the empty family has one member, the empty path, printed as an empty line
        (["enumerate", "--type", "", "--kind", "dyck"], "\n"),
        (["enumerate", "--type", "", "--kind", "dyck", "--json"], "[[]]\n"),
        (
            ["enumerate", "--type", "1^3,-1^3", "--kind", "dyck", "--count-only", "--json"],
            '{"family": "1^3,-1^3", "kind": "dyck", "size": 5}\n',
        ),
        (["verify", "--type", "1^4,-1^4", "--kind", "dyck", "--dry-run"], "family 1^4,-1^4 (dyck): 14 paths\n"),
    ],
)
def test_stdout_golden(argv, expected, capsys):
    assert run(argv) == 0
    assert out_of(capsys) == (expected, "")


def test_closed_stdout_ends_the_script_quietly(tmp_path):
    # a reader that stops after one line, like ``| head -1``
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = [sys.executable, "-m", "sweepmap.cli", "enumerate", "--type", "1^9,-1^9", "--kind", "dyck"]
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=err)
        assert proc.stdout.readline() == b"1,-1,1,-1,1,-1,1,-1,1,-1,1,-1,1,-1,1,-1,1,-1\n"
        proc.stdout.close()  # 4862 lines: far more than the pipe holds
        proc.wait(timeout=60)
    assert "Traceback" not in (tmp_path / "stderr").read_text(encoding="utf-8")
    if hasattr(signal, "SIGPIPE"):
        assert proc.returncode == -signal.SIGPIPE


class TestTrace:
    def test_vib_trace_text(self, capsys):
        assert run(["trace", "--path", "2,0,2,-3,1,-2", "--schedule", "reverse", "--algorithm", "vib"]) == 0
        out, _ = out_of(capsys)
        lines = out.splitlines()
        assert lines[0] == "move 1: row 0, column 3, rank 0 -> 1"
        assert lines[-1] == "5 moves; final ranks 0,0,2,3,4,5"

    def test_vib_trace_json(self, capsys):
        assert (
            run(["trace", "--path", "2,0,2,-3,1,-2", "--schedule", "reverse", "--algorithm", "vib", "--json"])
            == 0
        )
        out, _ = out_of(capsys)
        records = json.loads(out)
        assert records[0] == {"step": 1, "row": 0, "column": 3, "before": 0, "after": 1}
        assert len(records) == 5

    @pytest.mark.parametrize("text", ["2,0,2,-3,1,-2", "80,-40,-40"])
    def test_vib_trace_equals_reference_moves(self, text, capsys):
        path = Path.from_text(text)
        ranks, moves = ref_vib(path.steps, minimal_diagram(path).ranks)
        records = [
            {"step": step, "row": row, "column": column, "before": before, "after": after}
            for step, (row, column, before, after) in enumerate(moves, 1)
        ]
        lines = [
            f"move {r['step']}: row {r['row']}, column {r['column']}, "
            f"rank {r['before']} -> {r['after']}"
            for r in records
        ]
        lines.append(f"{len(records)} moves; final ranks {','.join(map(str, ranks))}")
        argv = ["trace", "--path", text, "--schedule", "reverse", "--algorithm", "vib"]
        assert run(argv) == 0
        assert out_of(capsys)[0] == "\n".join(lines) + "\n"
        assert run(argv + ["--json"]) == 0
        assert out_of(capsys)[0] == json.dumps(records) + "\n"

    def test_hpath_trace_json(self, capsys):
        assert (
            run(["trace", "--path", "2,0,2,-3,1,-2", "--schedule", "reverse", "--algorithm", "hpath", "--json"])
            == 0
        )
        out, _ = out_of(capsys)
        records = json.loads(out)
        assert records[0] == {"round": 1, "i": 1, "column": 2, "level": 0}
        assert [r["column"] for r in records] == [2, 1, 3, 5, 6, 4]

    def test_invosweep_trace_combined(self, capsys):
        assert (
            run(["trace", "--path", "2,0,2,-3,1,-2", "--schedule", "reverse", "--algorithm", "invosweep"])
            == 0
        )
        out, _ = out_of(capsys)
        assert "move 5:" in out
        assert "round 1: label 6" in out
        assert out.strip().endswith("preimage 0,2,2,1,-2,-3")

    def test_incomplete_trace_is_the_completions(self, capsys):
        # 1,-1,-1 completes to 1,1,-1,-1, whose minimal placement is balanced
        argv = ["trace", "--path", "1,-1,-1", "--schedule", "reverse", "--algorithm", "invosweep"]
        assert run(argv) == 0
        assert out_of(capsys)[0] == (
            "0 moves; final ranks 0,0,1,1\n"
            "round 1: label 1 -> column 1 (level 0)\n"
            "round 1: label 2 -> column 4 (level 1)\n"
            "round 1: label 3 -> column 2 (level 0)\n"
            "round 1: label 4 -> column 3 (level 1)\n"
            "round 1: completed\n"
            "preimage -1,1,-1\n"
        )
        assert run(argv + ["--json"]) == 0
        assert out_of(capsys)[0] == (
            '[{"round": 1, "i": 1, "column": 1, "level": 0}, '
            '{"round": 1, "i": 2, "column": 4, "level": 1}, '
            '{"round": 1, "i": 3, "column": 2, "level": 0}, '
            '{"round": 1, "i": 4, "column": 3, "level": 1}]\n'
        )

    def test_json_trace_over_several_batches(self, capsys):
        # 2500 moves and 3 labels: the records are encoded in batches
        path = Path((5000, -2500, -2500))
        result = invert_pipeline(path, REVERSE)
        records = [move.as_record() for move in result.vib_trace.moves]
        records += [label.as_record() for rnd in result.hpath_trace.rounds for label in rnd.labels]
        assert len(records) == 2503
        assert run(["trace", "--path", path.to_text(), "--algorithm", "invosweep", "--json"]) == 0
        assert out_of(capsys)[0] == json.dumps(records) + "\n"

    def test_trace_rejects_non_dyck(self, capsys):
        # incomplete paths trace through their completion; other paths do not
        for text in ("-1,1", "1,1"):
            assert run(["trace", "--path", text, "--schedule", "reverse", "--algorithm", "vib"]) == 2
            assert "classifies as other" in out_of(capsys)[1]

    def test_trace_over_the_record_limit_is_refused(self, capsys):
        started = time.perf_counter()
        argv = ["trace", "--path", "2000000000,-1000000000,-1000000000", "--algorithm", "vib"]
        assert run(argv) == 2
        assert time.perf_counter() - started < 2.0
        out, err = out_of(capsys)
        assert out == ""
        assert "1000000000 records" in err and str(cli.MAX_TRACE_RECORDS) in err

    def test_trace_record_limit_boundary(self, capsys, monkeypatch):
        # the worked example lists 5 moves and 6 labels
        argv = ["trace", "--path", "2,0,2,-3,1,-2", "--algorithm", "invosweep"]
        monkeypatch.setattr(cli, "MAX_TRACE_RECORDS", 11)
        assert run(argv) == 0
        monkeypatch.setattr(cli, "MAX_TRACE_RECORDS", 10)
        assert run(argv) == 2
        _, err = out_of(capsys)
        assert "11 records; the limit is 10" in err


class TestRender:
    def test_ascii_file(self, tmp_path, capsys):
        out_file = tmp_path / "pair.txt"
        assert run(["render", "--path", "1,-1", "--out", str(out_file)]) == 0
        assert out_file.read_text(encoding="utf-8") == "0 | RB | 0\n"
        assert out_of(capsys) == ("", "")
        assert run(["render", "--path", "1,-1", "--out", str(out_file), "--json"]) == 0
        assert out_of(capsys)[0] == f'{{"out": {json.dumps(str(out_file))}, "format": "ascii", "bytes": 11}}\n'

    def test_unwritable_out_is_refused_before_rendering(self, tmp_path, capsys, monkeypatch):
        out_file = str(tmp_path / "missing" / "pair.svg")
        monkeypatch.setattr(cli.render, "render_svg", None)  # drawing would raise TypeError
        assert run(["render", "--path", "1,-1", "--out", out_file, "--json"]) == 2
        assert out_of(capsys) == ("", f"error: cannot write {out_file!r}: No such file or directory\n")

    def test_svg_file_with_ranks(self, tmp_path, capsys):
        out_file = tmp_path / "nine.svg"
        args = [
            "render",
            "--path",
            "2,2,2,0,-1,3,0,-4,-4",
            "--ranks",
            "1,4,0,3,2,4,6,4,5",
            "--out",
            str(out_file),
            "--json",
        ]
        assert run(args) == 0
        out, _ = out_of(capsys)
        meta = json.loads(out)
        content = out_file.read_text(encoding="utf-8")
        assert meta["format"] == "svg"
        assert meta["bytes"] == len(content.encode("utf-8"))
        assert content.count('class="arrow"') == 9

    def test_golden_stability(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for target in (a, b):
            assert run(["render", "--path", "2,0,2,-3,1,-2", "--out", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name", ["tall.txt", "tall.svg"])
    def test_oversized_figure_is_refused(self, name, tmp_path, capsys):
        out_file = tmp_path / name
        started = time.perf_counter()
        assert run(["render", "--path", "1000000000,-1000000000", "--out", str(out_file)]) == 2
        assert time.perf_counter() - started < 2.0
        assert not out_file.exists()
        _, err = out_of(capsys)
        assert "1000000001-row" in err and str(cli.MAX_FIGURE_SIZE) in err

    def test_figure_size_limit_boundary(self, tmp_path, capsys, monkeypatch):
        # (2,-2) spans rows 0..2 over 2 columns: 6 ASCII cells, 13 SVG lines
        for name, size in (("pair.txt", 6), ("pair.svg", 13)):
            out_file = tmp_path / name
            monkeypatch.setattr(cli, "MAX_FIGURE_SIZE", size)
            assert run(["render", "--path", "2,-2", "--out", str(out_file)]) == 0
            out_file.unlink()
            monkeypatch.setattr(cli, "MAX_FIGURE_SIZE", size - 1)
            assert run(["render", "--path", "2,-2", "--out", str(out_file)]) == 2
            assert not out_file.exists()

    def test_bad_extension(self, capsys):
        assert run(["render", "--path", "1,-1", "--out", "figure.png"]) == 2

    def test_rank_length_mismatch(self, capsys):
        assert run(["render", "--path", "1,-1", "--ranks", "0", "--out", "x.txt"]) == 2


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run([]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["sweep", "--nope"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        out, _ = out_of(capsys)
        assert "subcommands" in out or "sweep" in out


@st.composite
def dyck_or_incomplete_paths(draw, max_step=5, max_size=10):
    """A walk from height ``start`` that never dips below zero, closed to
    zero: a Dyck path when ``start`` is 0, an incomplete one otherwise."""
    start = level = draw(st.one_of(st.just(0), st.integers(1, max_step)))
    steps = []
    for b in draw(st.lists(st.integers(-max_step, max_step), max_size=max_size)):
        steps.append(max(b, -level))
        level += steps[-1]
    while level:
        steps.append(-min(max_step, level))
        level += steps[-1]
    path = Path(steps)
    assert path.is_dyck if start == 0 else path.is_incomplete
    return path


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    dyck_or_incomplete_paths(),
    st.sampled_from(["sweep", "osweep", "invert"]),
    st.sampled_from([("reverse", REVERSE), ("identity", IDENTITY), ("cycle", CYCLE)]),
    st.booleans(),
)
def test_property_path_output_parses_back(path, command, schedule, as_json):
    name, schedule = schedule
    argv = [command, "--path", path.to_text()]
    if command == "sweep":
        expected = sweep(path)
    else:
        argv += ["--schedule", name]
        expected = (osweep if command == "osweep" else inv_osweep)(path, schedule)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv + ["--json"] * as_json) == 0
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    printed = Path(json.loads(text)) if as_json else Path.from_text(text)
    assert printed == expected
