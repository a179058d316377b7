"""Benchmark runner for sweepmap.

    python3 perfbench/run.py --workload families --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
With ``--trace 0`` the run repeats the workload's seeded round of inputs
until ``--seconds`` have passed and reports the end-to-end metrics.  With
``--trace 1`` it runs untraced for a third of that time, then replays the
same rounds with spans around every public function of ``src/sweepmap`` and
reports the per-layer metrics.  Either way the last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A fuller
record, and in traced runs the spans, go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import inspect
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("families", "invert_long", "invert_tall", "cli")
SETUP_REPEATS = 5
UNTRACED_SHARE = 1 / 3  # share of --seconds a traced run measures untraced first
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import sweepmap, sweepmap.cli; print(time.perf_counter() - t)"
)

# --- machine speed ------------------------------------------------------------
# On a shared machine the speed of this process drifts by +-25 % over tens of
# seconds, and CPU time drifts with wall time, so the same seed's raw times
# differ between runs by more than any useful bound.  Before every timed call
# the runner therefore times a fixed probe of pure-Python work that never
# touches the library, and scales the call's time by REFERENCE_PROBE_S over
# the median of the probes taken from PROBE_WINDOW_S before the call to
# PROBE_WINDOW_S after it.  Reported times are "at reference speed": what the
# call takes while the probe takes REFERENCE_PROBE_S, its median on a 2-core
# Xeon with Python 3.11.  Raw times go to the record file.
REFERENCE_PROBE_S = 300e-6
PROBE_WINDOW_S = 0.5
SETUP_PROBES = 7
PROBE_WALK = inputs.random_walk(random.Random(0), 300)
PROBE_FAMILY = {2: 2, 1: 1, 0: 1, -1: 3, -2: 1}


def probe() -> float:
    """Time the probe's second pass, so that what ran before it does not
    matter through the caches."""
    for _ in range(2):
        started = perf_counter()
        inputs.ref_osweep(PROBE_WALK, inputs.reverse_rule)
        inputs.family_count(PROBE_FAMILY, 0)
    return perf_counter() - started


def at_reference_speed(raw: list[float], starts: list[float], probes: list[float]) -> list[float]:
    """Scale each call by the probes around it: always the one just before
    and the one just after, and any others within PROBE_WINDOW_S."""
    scaled = []
    for i, (value, start) in enumerate(zip(raw, starts)):
        first = min(i, bisect.bisect_left(starts, start - PROBE_WINDOW_S))
        last = max(i + 2, bisect.bisect_right(starts, start + value + PROBE_WINDOW_S))
        scaled.append(value * REFERENCE_PROBE_S / statistics.median(probes[first:last]))
    return scaled


# --- running rounds -----------------------------------------------------------

@dataclass
class Phase:
    """What one pass of whole rounds did; lists run parallel, one per call."""

    rounds: int = 0
    failed: int = 0
    units: list[int] = field(default_factory=list)  # work each call did; 0 if it failed
    raw: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)  # when each call's probe ran
    probes: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    round_counts: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.units)

    @property
    def latencies(self) -> list[float]:
        return at_reference_speed(self.raw, self.starts, self.probes)

    def throughput(self, latencies: list[float]) -> float:
        """Median over rounds of one round's work per second of its calls."""
        per_round = len(self.units) // self.rounds
        return statistics.median(
            sum(self.units[r:r + per_round]) / sum(latencies[r:r + per_round])
            for r in range(0, len(self.units), per_round)
        )

    def by_label(self) -> dict[str, list[float]]:
        grouped: dict[str, list[float]] = {}
        for label, value in zip(self.labels, self.latencies):
            grouped.setdefault(label, []).append(value)
        return grouped


def run_rounds(workload, items, *, seconds=None, rounds=None, replay=False, tracer=None, phase=None) -> Phase:
    """Repeat whole rounds until ``seconds`` have passed (at least one) or
    ``rounds`` more times, adding to ``phase`` if one is given.  Each call is
    timed alone, after a speed probe, and checked after its timer stops."""
    call = workload.replay_call if replay else workload.call
    phase = phase or Phase()
    stop = None if rounds is None else phase.rounds + rounds
    started = perf_counter()
    while not (
        (stop is not None and phase.rounds >= stop)
        or (seconds is not None and phase.rounds and perf_counter() - started >= seconds)
    ):
        for item in items:
            if tracer is not None:
                tracer.item = phase.attempted
            phase.units.append(0)
            phase.starts.append(perf_counter())
            phase.probes.append(probe())
            phase.labels.append(item.label)
            t0 = perf_counter()
            try:
                result = call(item)
            except Exception:  # a failing call is counted and recorded; the run goes on
                phase.raw.append(perf_counter() - t0)
                phase.failed += 1
                phase.errors.append(f"{item.canonical!r:.200}\n{traceback.format_exc()}")
                continue
            phase.raw.append(perf_counter() - t0)
            checked = workload.check(item, result)
            del result  # so that two calls' results are never alive at once
            if not checked.ok:
                phase.failed += 1
                phase.errors.append(f"wrong result for {item.canonical!r:.200}")
            phase.units[-1] = checked.units
            if phase.rounds == 0:
                for key, value in checked.counts.items():
                    phase.round_counts[key] = phase.round_counts.get(key, 0) + value
        phase.rounds += 1
    return phase


# --- statistics ---------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; with ten samples or fewer, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def fit_exponent(medians: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    if len(medians) < 2:
        return 0.0
    xs = [math.log(size) for size in medians]
    ys = [math.log(value) for value in medians.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def unit_of(metric: str) -> str:
    """Unit of a metric, read off its name."""
    if metric.startswith("invert.pipeline_p50_ms."):
        return "ms"
    for suffix, unit in (
        ("_per_s", "1/s"), ("_ns_per_move", "ns"), ("_mb", "MB"), ("_frac", "ratio"),
        ("_bytes", "bytes"), ("_ms", "ms"), ("_s", "s"),
    ):
        if metric.endswith(suffix):
            return unit
    return "1" if "exponent" in metric else "count"


def end_to_end(phase: Phase, setup_s: float) -> tuple[dict, dict]:
    latencies = phase.latencies
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "items_per_s": phase.throughput(latencies),
        "p50_ms": statistics.median(latencies) * 1000,
        "tail_ms": tail_s * 1000,
    }
    raw_tail_s, _ = tail(phase.raw)
    details = {
        "tail_percentile": tail_pct,
        "samples": len(latencies),
        "p50_ms_by_label": {label: statistics.median(values) * 1000 for label, values in phase.by_label().items()},
        "raw": {
            "items_per_s": phase.throughput(phase.raw),
            "p50_ms": statistics.median(phase.raw) * 1000,
            "tail_ms": raw_tail_s * 1000,
            "probe_median_s": statistics.median(phase.probes),
        },
    }
    return metrics, details


def per_layer(workload, items, untraced: Phase, reference: Phase, traced: Phase, tracer) -> dict:
    """Per-round counts and self times of the traced replay, scaled to
    reference speed by that replay's median probe."""
    speed = REFERENCE_PROBE_S / statistics.median(traced.probes)
    self_s = {name: value * speed for name, value in tracer.self_s.items()}
    calls, counts = tracer.calls, tracer.counts

    def per_round(value: float) -> float:
        return value / traced.rounds

    def self_time(name: str) -> float:
        return per_round(self_s.get(name, 0.0))

    vib_moves = counts["invert.vib_moves"]
    metrics = {
        "failed_frac": sum(p.failed for p in (untraced, reference, traced))
        / sum(p.attempted for p in (untraced, reference, traced)),
        "paths.path_init_calls": per_round(calls["paths.path_init"]),
        "paths.path_init_self_s": self_time("paths.path_init"),
        "paths.parse_self_s": self_time("paths.parse"),
        "paths.minimal_diagram_self_s": self_time("paths.minimal_diagram"),
        "paths.row_counts_calls": per_round(calls["paths.row_counts"]),
        "paths.row_counts_self_s": self_time("paths.row_counts"),
        "paths.is_balanced_self_s": self_time("paths.is_balanced"),
        "paths.unit_rows": per_round(counts["paths.unit_rows"]),
        "schedules.perm_calls": per_round(calls["schedules.perm"]),
        "schedules.perm_self_s": self_time("schedules.perm"),
        "schedules.lift_calls": per_round(calls["schedules.lift"]),
        "schedules.from_text_self_s": self_time("schedules.from_text"),
        "sweep.osweep_calls": per_round(calls["sweep.osweep"]),
        "sweep.osweep_self_s": self_time("sweep.osweep"),
        "invert.vib_self_s": self_time("invert.vib"),
        "invert.vib_moves": per_round(vib_moves),
        "invert.vib_ns_per_move": self_s.get("invert.vib", 0.0) * 1e9 / vib_moves if vib_moves else 0.0,
        "invert.hpath_self_s": self_time("invert.hpath"),
        "invert.hpath_rounds": per_round(counts["invert.hpath_rounds"]),
        "invert.pipeline_self_s": self_time("invert.pipeline"),
        "incomplete.osweep_self_s": self_time("incomplete.osweep"),
        "incomplete.inv_osweep_self_s": self_time("incomplete.inv_osweep"),
        "incomplete.complete_strip_self_s": self_time("incomplete.complete_strip"),
        "families.enumerate_self_s": self_time("families.enumerate"),
        "families.enumerated_paths": per_round(counts["families.enumerate_items"]),
        "families.verify_self_s": self_time("families.verify"),
        "render.svg_self_s": self_time("render.svg"),
        "render.svg_bytes": per_round(counts["render.svg_bytes"]),
        "cli.startup_ms": 0.0,
        "cli.run_self_s": self_time("cli.run"),
        "cli.stdout_bytes": untraced.round_counts.get("cli.stdout_bytes", 0),
        "trace.overhead_frac": sum(traced.latencies) / sum(reference.latencies) - 1,
    }
    if workload.replays_in_process:
        # subprocess wall minus in-process cli.run, per argv, then the median
        sub, inproc = untraced.by_label(), reference.by_label()
        metrics["cli.startup_ms"] = statistics.median(
            (statistics.median(sub[label]) - statistics.median(inproc[label])) * 1000 for label in sub
        )

    # per-size medians of the untraced invert_pipeline calls, and their slopes
    by_label = untraced.by_label()
    sized = {item.label: statistics.median(by_label[item.label]) * 1000 for item in items if item.group}
    groups: dict[str, dict[int, float]] = {}
    for item in items:
        if item.group:
            groups.setdefault(item.group, {})[item.size] = sized[item.label]
    for label in workload.size_labels:
        metrics[f"invert.pipeline_p50_ms.{label}"] = sized.get(label, 0.0)
    metrics["invert.time_exponent"] = fit_exponent(groups.get("walk") or groups.get("four_step") or {})
    metrics["invert.time_exponent_2step"] = fit_exponent(groups.get("two_step", {}))
    return metrics


# --- context ------------------------------------------------------------------

def pin_to_one_cpu() -> None:
    """Keep this process, and the CLI processes it starts, on one CPU, so the
    speed probe runs where the measured calls run."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest child, whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def context(seed: int, sweepmap) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "library_checks_mode": inspect.signature(sweepmap.invert_pipeline).parameters["checks"].default,
    }


def measure_setup(workload, seed: int) -> tuple[float, list]:
    """Median over several repeats of (import time in a fresh interpreter +
    in-process input generation), at reference speed; returns it with the
    generated items."""
    totals = []
    items = []
    for _ in range(SETUP_REPEATS):
        probes = [probe() for _ in range(SETUP_PROBES)]
        imported = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        started = perf_counter()
        items = workload.generate(seed)
        raw = float(imported.stdout) + perf_counter() - started
        probes += [probe() for _ in range(SETUP_PROBES)]
        totals.append(raw * REFERENCE_PROBE_S / statistics.median(probes))
    return statistics.median(totals), items


def digest(items) -> str:
    canonical = json.dumps([item.canonical for item in items], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --- main ---------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    if not (SRC / "sweepmap" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'sweepmap'}; run from a sweepmap checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import sweepmap
    import workloads

    if not Path(sweepmap.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported sweepmap from {sweepmap.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return measure(args, sweepmap, workloads.make(args.workload, str(ROOT), scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, sweepmap, workload) -> int:
    setup_s, items = measure_setup(workload, args.seed)
    ctx = context(args.seed, sweepmap)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "context": ctx,
        "inputs_sha256": digest(items),
        "calls_per_round": len(items),
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("context: " + json.dumps(ctx))
    print(f"inputs: sha256={record['inputs_sha256']} calls_per_round={len(items)}")
    if ctx["library_checks_mode"] == "off":
        print("error: the library's default checks mode is 'off'", file=sys.stderr)
        return 1

    warm = min(items, key=lambda item: item.size)
    workload.check(warm, workload.call(warm))

    if args.trace:
        from tracing import Tracer

        untraced = run_rounds(workload, items, seconds=args.seconds * UNTRACED_SHARE)
        # Replay as many rounds, alternating one untraced and one traced, so
        # that both see the same machine and process state.
        tracer = Tracer()
        reference, traced = Phase(), Phase()
        for _ in range(untraced.rounds):
            run_rounds(workload, items, rounds=1, replay=True, phase=reference)
            tracer.install()
            try:
                run_rounds(workload, items, rounds=1, replay=True, tracer=tracer, phase=traced)
            finally:
                tracer.uninstall()
        metrics = per_layer(workload, items, untraced, reference, traced, tracer)
        stem = OUT / f"{args.workload}-spans"
        tracer.write(stem)
        record["spans"] = {"count": tracer.span_count, "files": [f"{stem.name}.json", f"{stem.name}.bin"]}
        phases = [untraced, reference, traced]
    else:
        untraced = run_rounds(workload, items, seconds=args.seconds)
        metrics, details = end_to_end(untraced, setup_s)
        record.update(details)
        phases = [untraced]

    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    errors = [message for phase in phases for message in phase.errors]
    record.update(
        rounds=untraced.rounds,
        work_per_round=untraced.round_counts,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        errors=errors[:20],
    )
    for message in errors[:5]:
        print(message, file=sys.stderr)
    print(f"rounds={untraced.rounds} attempted={attempted} failed={failed} failed_frac={failed / attempted:g}")
    print("work per round: " + json.dumps(untraced.round_counts, sort_keys=True))
    for name, value in metrics.items():
        alias = workload.aliases.get(name)
        note = f"  ({alias}: {workload.unit_name})" if alias else ""
        if name == "tail_ms":
            note += f"  [p{record['tail_percentile']:.2f} of {record['samples']} samples]"
        print(f"{name} = {value:.6g} {unit_of(name)}{note}")
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
