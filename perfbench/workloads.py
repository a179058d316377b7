"""The four workloads: seeded inputs, the timed call, and the output check.

Every workload is a closed loop with one client.  ``generate(seed)`` builds
one round of inputs; the runner repeats that round until the run's time is
up, times each ``call`` alone, and passes its result to ``check`` outside the
timed region.  Why each workload exists, and which ROADMAP item it should
move or leave alone, is in ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any

import sweepmap
import sweepmap.cli

import inputs

LIBRARY_SCHEDULES = {"reverse": sweepmap.REVERSE, "identity": sweepmap.IDENTITY}
REFERENCE_RULES = {"reverse": inputs.reverse_rule, "identity": inputs.identity_rule}

# The criterion-3 Dyck multisets of the acceptance suite.
DYCK_MULTISETS = (
    "1^2,-1^2", "1^3,-1^3", "1^4,-1^4", "1^5,-1^5", "1^6,-1^6",
    "3^2,-2^3", "2^3,-3^2", "2,1,0,-1,-2", "2^2,0^2,-1^4", "1^4,-2^2",
)
INCOMPLETE_PICKS = 32

# invert_long: distinct walks per schedule and round at each length n.  The
# mix puts the median call among the n=300 calls and the tail among n=1000.
LONG_MIX = ((100, 6), (300, 8), (1000, 6))
# invert_tall: (K, copies) for each 4-step shape, (2K,-K,-K) and
# (K,-1,K,-(2K-1)), and for the 2-step shape (K,-K); every K is jittered by
# up to 1 % per seed.  The copies put as many calls below the K=1000 shapes
# as above them, so that the median call is one of those, and give the
# slowest call, K=3e5, four copies, so that it holds the tail whenever three
# or more rounds fit in a run.
TALL_FOUR_STEP_MIX = ((100, 1), (300, 1), (1000, 2), (3000, 1))
TALL_TWO_STEP_MIX = ((10_000, 4), (30_000, 1), (100_000, 1), (300_000, 4))
# the sizes that get a per-size median, as Item.label spells them
SIZE_LABELS = tuple(
    [f"n{n}" for n, _ in LONG_MIX] + [f"K{k}" for k, _ in TALL_FOUR_STEP_MIX + TALL_TWO_STEP_MIX]
)


@dataclass
class Item:
    """One call's input; ``label`` and ``group`` key the per-size medians."""

    args: tuple
    expected: Any
    canonical: Any
    label: str = ""
    group: str = ""
    size: int = 0


@dataclass
class Checked:
    ok: bool
    units: int
    counts: dict[str, int] = field(default_factory=dict)


class Workload:
    name = ""
    unit_name = ""  # what ``items_per_s`` counts on this workload
    aliases: dict[str, str] = {}  # generic metric name -> this workload's name for it
    replays_in_process = False  # replay_call runs in process what call runs elsewhere
    size_labels = SIZE_LABELS  # every workload reports the same per-size metrics

    def generate(self, seed: int) -> list[Item]:
        raise NotImplementedError

    def call(self, item: Item) -> Any:
        raise NotImplementedError

    def replay_call(self, item: Item) -> Any:
        """The call a traced run replays; spans only see this process."""
        return self.call(item)

    def check(self, item: Item, result: Any) -> Checked:
        raise NotImplementedError


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


class Families(Workload):
    """verify_bijection over whole Dyck and incomplete families."""

    name = "families"
    unit_name = "family members round-tripped"
    aliases = {"items_per_s": "verify_paths_per_s", "p50_ms": "verify_p50_ms", "tail_ms": "verify_tail_ms"}

    def generate(self, seed: int) -> list[Item]:
        rng = _rng(self.name, seed)
        table = inputs.random_table(rng)
        schedules = [
            ("reverse", sweepmap.REVERSE, None),
            ("identity", sweepmap.IDENTITY, None),
            ("table", sweepmap.table_schedule(table, default="reverse", name=f"random(seed={seed})"), table),
        ]
        # Every Dyck family runs under every schedule, and the incomplete
        # picks take the schedules in turn.  The largest pick is replaced by
        # the family at its quantile under all three schedules: the tail is
        # then always that one family's, whatever the seed or round count.
        runs = [
            ("dyck", inputs.parse_multiset(text), schedule)
            for text in DYCK_MULTISETS
            for schedule in schedules
        ]
        domain = inputs.criterion8_domain()
        picks = inputs.size_banded_picks(rng, domain, INCOMPLETE_PICKS)[:-1]
        largest = inputs.at_quantile(domain, 1 - 0.5 / INCOMPLETE_PICKS)[2]
        runs += [("incomplete", counts, schedules[j % 3]) for j, counts in enumerate(picks)]
        runs += [("incomplete", largest, schedule) for schedule in schedules]
        items = []
        for kind, counts, (schedule_name, schedule, table_doc) in runs:
            start = 0 if kind == "dyck" else -sum(v * m for v, m in counts.items())
            items.append(Item(
                args=(sweepmap.EnumerationSpec(sweepmap.StepMultiset(counts), sweepmap.PathKind(kind)), schedule),
                expected=inputs.family_count(counts, start),
                canonical=[kind, inputs.multiset_text(counts), schedule_name, table_doc],
            ))
        rng.shuffle(items)
        return items

    def call(self, item: Item) -> Any:
        return sweepmap.verify_bijection(*item.args)

    def check(self, item: Item, report: Any) -> Checked:
        ok = report.passed and report.size == item.expected
        return Checked(ok, report.size, {"families.enumerated_paths": report.size})


class _Inversions(Workload):
    unit_name = "inversions"
    aliases = {"items_per_s": "inversions_per_s", "p50_ms": "invert_p50_ms", "tail_ms": "invert_tail_ms"}

    def call(self, item: Item) -> Any:
        return sweepmap.invert_pipeline(*item.args)

    def check(self, item: Item, result: Any) -> Checked:
        path, schedule = item.args
        preimage = result.preimage.steps
        rule = REFERENCE_RULES[schedule.name]
        ok = inputs.ref_osweep(preimage, rule) == path.steps
        if item.expected is not None:
            ok = ok and preimage == item.expected
        counts = {
            "invert.vib_moves": len(result.vib_trace.moves),
            "invert.hpath_rounds": len(result.hpath_trace.rounds),
        }
        return Checked(ok, 1, counts)


class InvertLong(_Inversions):
    """Inversion of long paths with small steps.

    Each input is the order sweep (by the reference map) of a random walk
    ``Q`` of typical area, so the expected preimage is ``Q`` itself.
    """

    name = "invert_long"

    def generate(self, seed: int) -> list[Item]:
        rng = _rng(self.name, seed)
        items = []
        for schedule_name in ("reverse", "identity"):
            rule = REFERENCE_RULES[schedule_name]
            for n, copies in LONG_MIX:
                for _ in range(copies):
                    preimage = inputs.typical_walk(rng, n)
                    image = inputs.ref_osweep(preimage, rule)
                    items.append(Item(
                        args=(sweepmap.Path(image), LIBRARY_SCHEDULES[schedule_name]),
                        expected=preimage,
                        canonical=[list(image), schedule_name],
                        label=f"n{n}", group="walk", size=n,
                    ))
        rng.shuffle(items)
        return items


class InvertTall(_Inversions):
    """Inversion of at most 4 steps of magnitude K."""

    name = "invert_tall"

    def generate(self, seed: int) -> list[Item]:
        rng = _rng(self.name, seed)

        def jitter(k: int) -> int:
            return k + rng.randint(-(k // 100), k // 100)

        shapes = []
        for k, copies in TALL_FOUR_STEP_MIX:
            for _ in range(copies):
                j = jitter(k)
                shapes.append(((2 * j, -j, -j), f"K{k}", "four_step", k))
                j = jitter(k)
                shapes.append(((j, -1, j, -(2 * j - 1)), f"K{k}", "four_step", k))
        for k, copies in TALL_TWO_STEP_MIX:
            for _ in range(copies):
                j = jitter(k)
                shapes.append(((j, -j), f"K{k}", "two_step", k))
        items = [
            Item(
                args=(sweepmap.Path(steps), sweepmap.REVERSE),
                expected=None,
                canonical=[list(steps), "reverse"],
                label=label, group=group, size=k,
            )
            for steps, label, group, k in shapes
        ]
        rng.shuffle(items)
        return items


@dataclass
class CliOutcome:
    code: int
    stdout: bytes


class Cli(Workload):
    """Sequential subprocess calls of the CLI, one per subcommand.

    The checkout is not installed, so the executable is run as
    ``python -m sweepmap.cli`` with the checkout's ``src`` on PYTHONPATH.
    Each call's exit code, stdout and written file must equal, byte for byte,
    an in-process ``sweepmap.cli.run`` of the same argv.
    """

    name = "cli"
    unit_name = "CLI calls"
    aliases = {"items_per_s": "cli_calls_per_s", "p50_ms": "cli_p50_ms", "tail_ms": "cli_tail_ms"}
    replays_in_process = True

    def __init__(self, root: str, scratch: str) -> None:
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.expected: dict[tuple, tuple[CliOutcome, bytes | None]] = {}

    def generate(self, seed: int) -> list[Item]:
        rng = _rng(self.name, seed)

        def text(steps) -> str:
            return ",".join(str(b) for b in steps)

        def small_oracle_path() -> tuple[int, ...]:
            while True:
                steps = inputs.random_walk(rng, 6, max_step=2)
                counts: dict[int, int] = {}
                for b in steps:
                    counts[b] = counts.get(b, 0) + 1
                if 40 <= inputs.family_count(counts, 0) <= 120:
                    return steps

        table = inputs.random_table(rng, max_k=6)
        inline = json.dumps({"default": "reverse", "table": {str(k): p for k, p in table.items()}})
        figure = os.path.join(self.scratch, "figure.svg")
        long_image = inputs.ref_osweep(inputs.typical_walk(rng, 200), inputs.reverse_rule)
        argvs = [
            ("sweep", "--path", text(inputs.random_walk(rng, 40))),
            ("osweep", "--path", text(inputs.random_walk(rng, 40)), "--schedule", inline),
            ("invert", "--path", text(small_oracle_path()), "--schedule", "identity", "--oracle"),
            ("invert", "--path", text(inputs.incomplete_walk(rng, 12)), "--json"),
            ("verify", "--type", "1^4,-1^4", "--kind", "dyck", "--schedule", inline, "--json"),
            ("trace", "--path", text(long_image), "--algorithm", "invosweep", "--json"),
            ("render", "--path", text(inputs.random_walk(rng, 30)), "--out", figure, "--json"),
        ]
        # the figure's directory is made per run, so it stays out of the digest
        items = [
            Item(args=argv, expected=None, canonical=[a.replace(self.scratch, "<scratch>") for a in argv], label=argv[0])
            for argv in argvs
        ]
        rng.shuffle(items)
        return items

    def _written(self, argv: tuple) -> bytes | None:
        if "--out" not in argv:
            return None
        with open(argv[argv.index("--out") + 1], "rb") as handle:
            return handle.read()

    def call(self, item: Item) -> CliOutcome:
        done = subprocess.run(
            [sys.executable, "-m", "sweepmap.cli", *item.args],
            cwd=self.root, env=self.env, capture_output=True, timeout=120, check=False,
        )
        return CliOutcome(done.returncode, done.stdout)

    def replay_call(self, item: Item) -> CliOutcome:
        return self._in_process(item.args)

    def _in_process(self, argv: tuple) -> CliOutcome:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = sweepmap.cli.run(list(argv))
        return CliOutcome(code, out.getvalue().encode("utf-8"))

    def check(self, item: Item, outcome: CliOutcome) -> Checked:
        argv = item.args
        written = self._written(argv)
        if argv not in self.expected:
            self.expected[argv] = (self._in_process(argv), self._written(argv))
        expected, expected_written = self.expected[argv]
        ok = (
            outcome.code == 0
            and outcome.code == expected.code
            and outcome.stdout == expected.stdout
            and written == expected_written
        )
        return Checked(ok, 1, {"cli.stdout_bytes": len(outcome.stdout)})


def make(name: str, root: str, scratch: str) -> Workload:
    if name == "families":
        return Families()
    if name == "invert_long":
        return InvertLong()
    if name == "invert_tall":
        return InvertTall()
    if name == "cli":
        return Cli(root, scratch)
    raise KeyError(name)
