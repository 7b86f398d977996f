"""Child-process side of the benchmark; bench/run.py starts one per step.

Every step runs in a fresh interpreter, so a timed sweep sees no state left
by set-up, tracing or earlier sweeps, and its rusage covers that sweep and
its pool workers only. Each step prints one JSON object as its last line.

    probe.py sweep  PLAN SEED PARALLELISM OUT   timed `emolab sweep`, no tracing
    probe.py setup  PLAN SEED TRIALS_CSV        time build_problem + reference_for
                                                over the plan's sizes, then check
                                                TRIALS_CSV and re-run a sample
    probe.py traced PLAN SEED OUT               serial sweep with per-layer spans
    probe.py enum-memory PLAN SEED              tracemalloc peak of each
                                                enumerate_pareto_front call
"""

from __future__ import annotations

import csv
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Set-up passes repeat until this much time has passed, so that the
# microsecond set-up of the synthetic problems is timed over many passes.
SETUP_MIN_S = 0.25
# Trials of one sweep re-run serially by the correctness check.
SAMPLES = 2


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _load_plan(path, seed):
    from emolab import lab

    return lab.with_overrides(lab.load_plan(path), master_seed=seed)


def _emit(doc) -> None:
    print(json.dumps(doc))


def cmd_sweep(plan_path, seed, parallelism, out) -> int:
    from emolab import cli

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = cli.main(["sweep", "--plan", plan_path, "--seed", seed,
                     "--parallelism", parallelism, "--out", out])
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    _emit({
        "exit": code,
        "wall_s": wall,
        "self_cpu_s": _cpu_s(after) - _cpu_s(before),
        "worker_cpu_s": _cpu_s(workers),
        "self_rss_mb": after.ru_maxrss / 1024,
        "worker_rss_mb": workers.ru_maxrss / 1024,
    })
    return 0


def _check_trials(plan, problems, references, trials_csv, seed):
    """Compare trials.csv against the plan and re-run a sample serially.

    Every row must carry the seed and population size the plan derives for
    its (n, variant, trial) cell; SAMPLES rows, chosen from the master seed,
    are re-run through evolve.run and must reproduce their evaluations and
    hit flag. Returns the number of rows re-run and a list of mismatches.
    """
    from emolab import evolve, lab
    from emolab.survival import CrowdingDistance, ReferencePointDistance

    with open(trials_csv, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = {}
    for row in rows:
        cells.setdefault((int(row["n"]), row["variant"]), []).append(row)
    variants = {v.label: (i, v) for i, v in enumerate(plan.variants)}
    mismatches = []
    for (n, label), cell in cells.items():
        if label not in variants:
            mismatches.append(f"unknown variant {label!r}")
            continue
        index, variant = variants[label]
        pop_size = lab.resolve_pop_size(variant.pop_size, n, plan.k)
        for trial, row in enumerate(cell):
            if (int(row["seed"]) != lab.trial_seed(plan, n, index, trial)
                    or int(row["pop_size"]) != pop_size):
                mismatches.append(f"n={n} {label} trial {trial}: seed or pop_size")
    checked = 0
    for row in random.Random(seed).sample(rows, min(SAMPLES, len(rows))):
        n, label = int(row["n"]), row["variant"]
        if label not in variants:
            continue
        variant = variants[label][1]
        reference = references[n]
        policy = (CrowdingDistance() if variant.policy == "crowding"
                  else ReferencePointDistance(reference))
        config = evolve.AlgorithmConfig(
            policy=policy, pop_size=int(row["pop_size"]),
            reference_point=reference, max_evaluations=plan.max_evaluations)
        result = evolve.run(problems[n], config, int(row["seed"]))
        evaluations = result.evaluations_to_hit if result.hit else result.evaluations
        hit = "true" if result.hit else "false"
        checked += 1
        if (evaluations, hit) != (int(row["evaluations"]), row["hit"]):
            mismatches.append(
                f"n={n} {label} seed {row['seed']}: re-run gave "
                f"{evaluations}/{hit}, recorded {row['evaluations']}/{row['hit']}")
    return checked, mismatches


def cmd_setup(plan_path, seed, trials_csv) -> int:
    from emolab import lab

    plan = _load_plan(plan_path, int(seed))
    passes = 0
    start = time.perf_counter()
    while True:
        problems, references = {}, {}
        for n in plan.n_values:
            problems[n] = lab.build_problem(plan, n)
            references[n] = lab.reference_for(plan, n, problems[n])
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SETUP_MIN_S:
            break
    checked, mismatches = _check_trials(plan, problems, references, trials_csv, int(seed))
    _emit({"setup_s": elapsed / passes, "passes": passes,
           "checked": checked, "mismatches": mismatches})
    return 0


def cmd_traced(plan_path, seed, out) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from emolab import cli

    start = time.perf_counter()
    code = cli.main(["sweep", "--plan", plan_path, "--seed", seed,
                     "--parallelism", "1", "--out", out])
    wall = time.perf_counter() - start
    doc = tracer.report()
    doc.update({"exit": code, "wall_s": wall})
    _emit(doc)
    return 0


def cmd_enum_memory(plan_path, seed) -> int:
    import tracemalloc

    from emolab import lab, problems

    plan = _load_plan(plan_path, int(seed))
    peaks = []
    for n in plan.n_values:
        problem = lab.build_problem(plan, n)
        tracemalloc.start()
        try:
            problems.enumerate_pareto_front(problem)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
        finally:
            tracemalloc.stop()
    _emit({"peak_mb": peaks})
    return 0


COMMANDS = {
    "sweep": cmd_sweep,
    "setup": cmd_setup,
    "traced": cmd_traced,
    "enum-memory": cmd_enum_memory,
}

if __name__ == "__main__":
    sys.exit(COMMANDS[sys.argv[1]](*sys.argv[2:]))
