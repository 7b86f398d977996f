"""Golden runs: seeded RunResults must reproduce exactly.

golden_runs.json was recorded from the per-individual engine that preceded
the array engine; every run below must still give the same hit flag,
evaluation counts and generations. The grid covers the four problems, both
policies, N in {1, 3, 4(n+1)}, the default and a zero mutation rate, capped
runs, and a few uncapped ones. Re-record (only for an intended change of
the stream contract) with

    PYTHONPATH=src python tests/test_stream_identity.py > tests/golden_runs.json
"""

import json
import sys
from pathlib import Path

from emolab.core import stream
from emolab.evolve import AlgorithmConfig, run
from emolab.problems import (
    OneJumpZeroJump,
    OneMinMax,
    OneMinMaxStar,
    generate_nk_instance,
)
from emolab.survival import CrowdingDistance, ReferencePointDistance
from test_run_paths import Plain

GOLDEN = Path(__file__).with_name("golden_runs.json")
SEEDS = (0, 1, 2)


def problem_and_reference(label):
    if label == "omm":
        problem = OneMinMax(8)
    elif label == "ojzj":
        problem = OneJumpZeroJump(8, 2)
    elif label == "ommstar":
        problem = OneMinMaxStar(8)
    else:
        problem = generate_nk_instance(8, 2, seed=3)
        return problem, problem.reference_point(stream(11))
    return problem, problem.reference_point()


def grid():
    for label in ("omm", "ojzj", "ommstar", "nk"):
        for policy in ("crowding", "refpoint"):
            for pop_size in (1, 3, 36):
                for rate in (None, 0.0):
                    for seed in SEEDS:
                        yield dict(problem=label, policy=policy, pop_size=pop_size,
                                   rate=rate, cap=2000, seed=seed)
        if label in ("omm", "ojzj"):
            for policy in ("crowding", "refpoint"):
                for seed in SEEDS:
                    yield dict(problem=label, policy=policy, pop_size=36,
                               rate=None, cap=None, seed=seed)


def observe_nothing(state):
    """An observer that changes nothing."""


def execute(cell, on_generation=None, wrap=None):
    """The cell's result; `wrap`, if given, wraps its problem."""
    problem, reference = problem_and_reference(cell["problem"])
    policy = (CrowdingDistance() if cell["policy"] == "crowding"
              else ReferencePointDistance(reference))
    config = AlgorithmConfig(policy=policy, pop_size=cell["pop_size"],
                             reference_point=reference, mutation_rate=cell["rate"],
                             max_evaluations=cell["cap"])
    result = run(problem if wrap is None else wrap(problem), config, cell["seed"],
                 on_generation=on_generation)
    return [result.hit, result.evaluations_to_hit, result.evaluations, result.generations]


def record():
    return [{"cell": cell, "result": execute(cell)} for cell in grid()]


def test_runs_reproduce_golden_results():
    # a synthetic N = 1 cell runs on the (1+1) kernel, so it is also run observed, and
    # observed on the array engine through Plain, which has no ones_table(); each
    # must give the golden result
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["cell"] for entry in golden] == list(grid())
    observed = [entry for entry in golden
                if entry["cell"]["pop_size"] == 1 and entry["cell"]["problem"] != "nk"]
    assert len(observed) == 36
    mismatches = [(entry["cell"], entry["result"], got)
                  for entry in golden
                  if (got := execute(entry["cell"])) != entry["result"]]
    mismatches += [(entry["cell"], entry["result"], got)
                   for entry in observed for wrap in (None, Plain)
                   if (got := execute(entry["cell"], observe_nothing, wrap)) != entry["result"]]
    assert not mismatches


def dump(entries):
    return "[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n"


if __name__ == "__main__":
    sys.stdout.write(dump(record()))
