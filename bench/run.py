"""Sweep benchmark for emolab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
Each workload is a plan file in bench/plans/, run the way a user runs it:
`emolab sweep --plan <plan> --seed <master> --parallelism <nproc> --out <dir>`.
A run makes several sweeps; sweep i uses master seed N*1000+i (master_seed),
which fixes every trial and, for NK, every instance and reference point. So
the same N gives the same inputs, and each sweep of a run draws fresh trials,
which keeps the run's medians from resting on one draw of trial lengths.

--trace 0 (end to end, no tracing): about S / WORKLOADS[NAME] sweeps, never
  fewer than MIN_REPS, each in a fresh process. After each sweep a set-up
  probe, also a fresh process, times lab.build_problem + lab.reference_for
  over the plan's sizes at that master seed and checks the sweep's output.
  Reported as medians over the sweeps: evals_per_s (sum of the trials.csv
  `evaluations` column over wall_s), wall_s, setup_s, cpu_s (user+sys of the
  sweep process plus its pool workers) and peak_rss_mb (the larger of the
  sweep process's and any worker's max RSS).

--trace 1 (per layer): the first sweep once more at parallelism nproc for
  its rusage, then the same sweep serially with per-layer spans (see
  bench/tracer.py, which also states the NK memo caveat), then, where the
  sweep enumerated fronts, a tracemalloc probe of each enumeration alone.
  The serial traced sweep does the timed sweep's CPU work in one process, so
  trace.wall_over_cpu (traced wall over timed cpu_s) is one plus the tracing
  overhead; evolve.run.p50_s/p95_s rest on evolve.run.calls samples.

Correctness: each sweep must exit 0 and write the plan's row count; every
row must carry the trial seed and population size the plan derives; two
trials per sweep are re-run serially through evolve.run from their recorded
seed and must reproduce their row; the serial traced sweep must write the
same bytes as the parallel one; and at a master seed pinned in
bench/pins.json the bytes must match the pin. The pins are the sha256 of
each trials.csv written at the default N=1009 by the commit that added the
benchmark, so they hold later changes to the byte-identity contract. A failed sweep counts all its trials as failed; a
mismatching row counts one. failed_frac is failed over attempted trials.

Lines before the last are the metrics by name with units and a JSON report
stamped with the git SHA, Python and numpy versions, nproc, parallelism,
workload and seed. The last line is the result object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PLANS = BENCH / "plans"
PINS = BENCH / "pins.json"
# workload -> nominal seconds of one sweep at parallelism 2; a run makes
# about --seconds / nominal sweeps, and never fewer than MIN_REPS
WORKLOADS = {"omm-n50": 3.0, "ojzj-n1": 3.0, "nk-k3": 8.0}
MIN_REPS = 3
# Wall-clock budget of one invocation; probes are cut at what is left of it.
DEADLINE_S = 170.0

END_TO_END = (
    ("evals_per_s", "evals/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

SPAN_LAYERS = (
    "core.random_bitstring",
    "core.bitwise_mutate",
    "problems.evaluate",
    "problems.enumerate_pareto_front",
    "survival.survival_select",
    "survival.fast_nondominated_sort",
    "survival.crowding_distance_assign",
    "survival.reference_distances",
    "evolve.initialize",
    "evolve.step_generation",
    "evolve.run",
    "lab.run_experiment",
    "cli.main",
)
SPAN_STATS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
# derived per-layer metric -> (unit, layers it is computed from)
DERIVED = {
    "problems.evaluate.new_genome_ratio": ("ratio", ("problems.evaluate",)),
    "problems.enumerate_pareto_front.peak_mb": ("MB", ("problems.enumerate_pareto_front",)),
    "survival.survival_select.pool_mean": ("count", ("survival.survival_select",)),
    "survival.survival_select.offspring_kept_ratio": ("ratio", ("survival.survival_select",)),
    "survival.fast_nondominated_sort.fronts_mean": ("count", ("survival.fast_nondominated_sort",)),
    "survival.crowding_distance_assign.front_mean": ("count", ("survival.crowding_distance_assign",)),
    "survival.reference_distances.front_mean": ("count", ("survival.reference_distances",)),
    "evolve.run.p50_s": ("s", ("evolve.run",)),
    "evolve.run.p95_s": ("s", ("evolve.run",)),
    "lab.overhead_s": ("s", ("lab.run_experiment", "evolve.run")),
    "lab.worker_busy_ratio": ("ratio", ()),
    "cli.overhead_s": ("s", ("cli.main", "lab.run_experiment")),
    "trace.wall_s": ("s", ()),
    "trace.timed_cpu_s": ("s", ()),
    "trace.wall_over_cpu": ("ratio", ()),
}
PER_LAYER = tuple(
    (f"{layer}.{stat}", unit) for layer in SPAN_LAYERS for stat, unit in SPAN_STATS
) + tuple((name, unit) for name, (unit, _) in DERIVED.items())


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, no good run)."""


def _stamp(workload, seed, parallelism, trace) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "parallelism": parallelism,
    }


def _git_sha() -> str:
    """HEAD of the checkout's .git, read directly; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Probe:
    """Starts bench/probe.py steps under one deadline and parses their results."""

    def __init__(self, deadline):
        self.deadline = deadline

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def __call__(self, *args):
        """Run one step; returns (result dict, None) or (None, error text)."""
        timeout = self.remaining()
        if timeout <= 1:
            return None, "no time left before the deadline"
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), *map(str, args)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the sweep's pool workers too
            proc.communicate()
            return None, f"{args[0]}: timed out after {timeout:.0f} s"
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no stderr"]
            return None, f"{args[0]}: exit {proc.returncode}: {tail[0]}"
        try:
            return json.loads(out.strip().splitlines()[-1]), None
        except (IndexError, json.JSONDecodeError):
            return None, f"{args[0]}: no result line"


def _read_trials(path):
    """(sha256, row count, sum of evaluations) of a trials.csv."""
    data = path.read_bytes()
    rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    return hashlib.sha256(data).hexdigest(), len(rows), sum(int(r["evaluations"]) for r in rows)


class Sweeps:
    """Runs sweeps and keeps the trial accounting shared by both modes."""

    def __init__(self, probe, plan_path, work, expected_rows, pins):
        self.probe = probe
        self.plan_path = plan_path
        self.work = work
        self.expected_rows = expected_rows
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.shas = {}

    def run(self, kind, master_seed, parallelism=1, expect_sha=None):
        """One sweep, kind "sweep" (timed) or "traced" (serial, spans on).

        Returns (probe result, trials.csv path), or None when the sweep wrote
        no trials. A sweep whose trials.csv is wrong still returns, with all
        its trials counted as failed.
        """
        out = self.work / f"{kind}-{master_seed}"
        args = [kind, self.plan_path, master_seed, out]
        if kind == "sweep":
            args.insert(3, parallelism)
        doc, error = self.probe(*args)
        self.attempted += self.expected_rows
        if error is None and doc.get("exit") != 0:
            error = f"{kind}: emolab sweep returned {doc.get('exit')}"
        if error is None:
            try:
                sha, rows, evaluations = _read_trials(out / "trials.csv")
            except (OSError, ValueError, KeyError) as exc:
                error = f"{kind}: unreadable trials.csv: {exc}"
        if error is not None:
            self.fail(self.expected_rows, [error])
            return None
        self.shas[str(master_seed)] = sha
        doc["evaluations"] = evaluations
        expect_sha = expect_sha or self.pins.get(str(master_seed))
        if rows != self.expected_rows:
            self.fail(self.expected_rows, [f"{kind}: {rows} rows, plan has {self.expected_rows}"])
        elif expect_sha not in (None, sha):
            self.fail(self.expected_rows, [
                f"{kind} seed {master_seed}: trials.csv sha256 {sha[:12]} != {expect_sha[:12]}"])
        return doc, out / "trials.csv"

    def fail(self, trials, descriptions):
        self.failed += trials
        self.errors.extend(descriptions)


def master_seed(seed, rep):
    """Plan master seed of a run's rep-th sweep: every sweep draws fresh trials."""
    return seed * 1000 + rep


def timed_run(sweeps, probe, workload, seed, seconds, parallelism):
    reps, setups = [], []
    rerun = 0
    for rep in range(max(MIN_REPS, round(seconds / WORKLOADS[workload]))):
        master = master_seed(seed, rep)
        done = sweeps.run("sweep", master, parallelism)
        if done is None:
            continue
        check, error = probe("setup", sweeps.plan_path, master, done[1])
        if error is not None:
            sweeps.fail(sweeps.expected_rows, [f"seed {master} not re-checked: {error}"])
            continue
        reps.append(done[0])
        setups.append(check["setup_s"])
        rerun += check["checked"]
        sweeps.fail(len(check["mismatches"]), check["mismatches"])
    if not reps:
        raise BenchError("no sweep completed: " + "; ".join(sweeps.errors))
    metrics = {
        "evals_per_s": statistics.median(r["evaluations"] / r["wall_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["self_cpu_s"] + r["worker_cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(max(r["self_rss_mb"], r["worker_rss_mb"])
                                         for r in reps),
    }
    detail = {
        "sweeps": len(reps),
        "trials_rerun": rerun,
        "wall_s_all": [r["wall_s"] for r in reps],
        "setup_s_all": setups,
    }
    return metrics, dict(END_TO_END), detail


def traced_run(sweeps, probe, seed, parallelism):
    master = master_seed(seed, 0)
    timed = sweeps.run("sweep", master, parallelism)
    if timed is None:
        raise BenchError("; ".join(sweeps.errors))
    # the serial sweep must write the same bytes as the parallel one
    traced = sweeps.run("traced", master, expect_sha=sweeps.shas[str(master)])
    if traced is None:
        raise BenchError("; ".join(sweeps.errors))
    timed, traced = timed[0], traced[0]
    layers = traced["layers"]
    absent, hook_failures = set(traced["absent"]), set(traced["hook_failures"])
    metrics = {}
    for layer in SPAN_LAYERS:
        stat = layers.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for name, _ in SPAN_STATS:
            metrics[f"{layer}.{name}"] = stat[name]

    def sums(layer, key):
        return layers.get(layer, {}).get("sums", {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def busy(layer):
        return metrics[f"{layer}.busy_s"]

    peaks = []
    if metrics["problems.enumerate_pareto_front.calls"]:
        doc, error = probe("enum-memory", sweeps.plan_path, master)
        if error is not None:
            sweeps.fail(0, [error])
        else:
            peaks = doc["peak_mb"]
    durations = traced["run_durations"]
    # 5% steps: index 9 is the median, index 18 the 95th percentile
    steps = (statistics.quantiles(durations, n=20, method="inclusive")
             if len(durations) > 1 else durations * 19 or [0.0] * 19)
    timed_cpu = timed["self_cpu_s"] + timed["worker_cpu_s"]
    derived = {
        "problems.evaluate.new_genome_ratio": ratio(
            sums("problems.evaluate", "distinct_genomes"), metrics["problems.evaluate.calls"]),
        "problems.enumerate_pareto_front.peak_mb": max(peaks, default=0.0),
        "survival.survival_select.pool_mean": ratio(
            sums("survival.survival_select", "pool"), metrics["survival.survival_select.calls"]),
        "survival.survival_select.offspring_kept_ratio": ratio(
            sums("survival.survival_select", "offspring_kept"),
            sums("survival.survival_select", "offspring")),
        "survival.fast_nondominated_sort.fronts_mean": ratio(
            sums("survival.fast_nondominated_sort", "fronts"),
            metrics["survival.fast_nondominated_sort.calls"]),
        "survival.crowding_distance_assign.front_mean": ratio(
            sums("survival.crowding_distance_assign", "front"),
            metrics["survival.crowding_distance_assign.calls"]),
        "survival.reference_distances.front_mean": ratio(
            sums("survival.reference_distances", "front"),
            metrics["survival.reference_distances.calls"]),
        "evolve.run.p50_s": steps[9],
        "evolve.run.p95_s": steps[18],
        "lab.overhead_s": busy("lab.run_experiment") - busy("evolve.run"),
        "lab.worker_busy_ratio": timed["worker_cpu_s"] / (parallelism * timed["wall_s"]),
        "cli.overhead_s": busy("cli.main") - busy("lab.run_experiment"),
        "trace.wall_s": traced["wall_s"],
        "trace.timed_cpu_s": timed_cpu,
        "trace.wall_over_cpu": traced["wall_s"] / timed_cpu,
    }
    metrics.update(derived)
    # a layer that is gone loses all its metrics; one whose count hook failed
    # (its arguments changed shape) loses only the metrics derived from counts
    unavailable = sorted(
        name for name, _ in PER_LAYER
        if any(layer in absent for layer in _layers_of(name))
        or (name in DERIVED and any(layer in hook_failures for layer in DERIVED[name][1])))
    not_called = sorted(
        layer for layer in SPAN_LAYERS
        if layer not in absent and not metrics[f"{layer}.calls"])
    detail = {
        "absent": unavailable,
        "not_called": not_called,
        "evolve.run.samples": len(durations),
        "timed_wall_s": timed["wall_s"],
        "tracing_overhead": traced["wall_s"] / timed_cpu - 1.0,
    }
    return metrics, dict(PER_LAYER), detail


def _layers_of(name):
    if name in DERIVED:
        return DERIVED[name][1]
    return (name.rsplit(".", 1)[0],)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1009)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    plan_path = PLANS / f"{args.workload}.json"
    if not (ROOT / "src" / "emolab" / "__init__.py").is_file():
        print(f"error: no emolab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    plan = json.loads(plan_path.read_text())
    expected_rows = len(plan["n_values"]) * len(plan["variants"]) * plan["runs_per_cell"]
    pins = json.loads(PINS.read_text()).get(args.workload, {}) if PINS.is_file() else {}
    parallelism = len(os.sched_getaffinity(0))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    probe = Probe(time.monotonic() + DEADLINE_S)
    sweeps = Sweeps(probe, plan_path.relative_to(ROOT), work, expected_rows, pins)
    try:
        if args.trace:
            metrics, units, detail = traced_run(sweeps, probe, args.seed, parallelism)
        else:
            metrics, units, detail = timed_run(sweeps, probe, args.workload, args.seed,
                                               args.seconds, parallelism)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other invocation is using it
        except OSError:
            pass

    failed = min(sweeps.failed, sweeps.attempted)
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':48s} {failed / sweeps.attempted:14.6g} ratio")
    report = _stamp(args.workload, args.seed, parallelism, args.trace)
    report.update(detail)
    report.update({
        "failed_frac": failed / sweeps.attempted,
        "trials_sha256": sweeps.shas,
        "sha256_pinned": sorted(set(sweeps.shas) & set(pins)),
        "errors": sweeps.errors,
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and not sweeps.errors,
        "attempted": sweeps.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
