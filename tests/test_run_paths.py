"""Every path through `run` gives one RunResult: a seeded differential corpus.

`run` takes one of three paths. An unobserved N = 1 run on a problem with
ones_table() goes through the (1+1) kernel, `_run_single`; any other
unobserved run goes through the array engine, which stops after its last
evaluations; an observed run goes through the array engine and selects
survivors every generation. Each case draws the problem (one of the four
families, NK at K = 0..3, or a plain object that answers only `n`,
`evaluator()`, `front()` and `reference_point()`), n, N from 1 to 12, the
target, the survival policy, the mutation rate, the cap and the container of
the reference points, and checks that the unobserved run gives the RunResult
of the same run observed by a no-op.

The Tier-1 corpus is fixed by SEED and CASES; `draw_case(seed, index)`
rebuilds a failing case. A longer campaign runs from the command line,

    PYTHONPATH=src python tests/test_run_paths.py --cases 2000 --seed 7

printing each mismatch and exiting 1 if there is one.
"""

import argparse
import random
import sys

import numpy as np

from emolab import evolve
from emolab.evolve import AlgorithmConfig, run
from emolab.problems import OneJumpZeroJump, OneMinMax, OneMinMaxStar, generate_nk_instance
from emolab.survival import CrowdingDistance, ReferencePointDistance

SEED = 1
CASES = 400
FAMILIES = ("omm", "ojzj", "ommstar", "nk")
CONTAINERS = {"tuple": tuple, "list": list, "array": np.array}


class Plain:
    """A problem that answers only the documented calls; without ones_table() it
    runs on the array engine at every N."""

    def __init__(self, problem):
        self.n, self._problem = problem.n, problem

    def evaluator(self):
        return self._problem.evaluator()

    def front(self):
        return self._problem.front()

    def reference_point(self, rng=None):
        return self._problem.reference_point(rng)


def observe_nothing(state):
    """An observer that keeps a run on the array engine and changes nothing."""


def draw_case(seed, index):
    """Case `index` of the corpus at `seed`: (what was drawn, problem, config, run seed)."""
    rng = random.Random(f"run-paths-{seed}-{index}")
    family, k = rng.choice(FAMILIES), None
    if family == "nk":
        n = rng.randint(2, 12)
        k = rng.randint(0, min(3, n - 1))
        problem = generate_nk_instance(n, k, rng.randrange(1 << 32))
    elif family == "ojzj":
        n = rng.randint(8, 48)
        k = rng.randint(2, n // 4)
        problem = OneJumpZeroJump(n, k)
    else:  # sizes up to 70 put the kernel's flip product on either side of 64 columns
        n = rng.choice([rng.randint(1, 16), rng.randint(17, 70)])
        problem = OneMinMax(n) if family == "omm" else OneMinMaxStar(n)
    standard = family != "nk" and rng.random() < 0.5
    target = problem.reference_point() if standard else rng.choice(sorted(problem.front()))
    policy = rng.choice(["crowding", "refpoint at the target", "refpoint off the front"])
    rate = rng.choice([None, 0.0, 1.0, 0.5, rng.uniform(0.005, 0.1)])
    pop_size = 1 if rng.random() < 0.5 else rng.randint(2, 12)
    cap = rng.randint(1, 300)
    # an uncapped run ends soon only where the target draws it in: OneMinMax at the
    # standard target under the reference-point policy, at the standard rate
    if (family == "omm" and standard and policy == "refpoint at the target" and rate is None
            and n <= 16 and rng.random() < 0.5):
        cap = None
    plain = rng.random() < 0.2
    container = rng.choice(list(CONTAINERS))
    as_container = CONTAINERS[container]
    if policy == "crowding":
        survival = CrowdingDistance()
    else:
        reference = target if policy == "refpoint at the target" else (target[0] + 1.5,
                                                                      target[1] - 0.5)
        survival = ReferencePointDistance(as_container(reference))
    config = AlgorithmConfig(policy=survival, pop_size=pop_size,
                             reference_point=as_container(target), mutation_rate=rate,
                             max_evaluations=cap)
    what = dict(seed=seed, index=index, family=family, n=n, k=k, plain=plain, target=target,
                policy=policy, rate=rate, pop_size=pop_size, cap=cap, container=container)
    return what, Plain(problem) if plain else problem, config, rng.randrange(1 << 32)


def campaign(seed, cases) -> list:
    """Run the corpus: each case's (what, whether the kernel ran, unobserved and observed result)."""
    kernel, ran, outcomes = evolve._run_single, [], []

    def counted(*args):
        ran.append(True)
        return kernel(*args)

    evolve._run_single = counted
    try:
        for index in range(cases):
            what, problem, config, run_seed = draw_case(seed, index)
            ran.clear()
            unobserved = run(problem, config, run_seed)
            used_kernel = bool(ran)
            observed = run(problem, config, run_seed, on_generation=observe_nothing)
            outcomes.append((what, used_kernel, unobserved, observed))
    finally:
        evolve._run_single = kernel
    return outcomes


def test_unobserved_runs_match_observed_runs():
    mismatches, paths = [], set()
    for what, used_kernel, unobserved, observed in campaign(SEED, CASES):
        if unobserved != observed:
            mismatches.append((what, unobserved, observed))
        # the kernel takes exactly the unobserved N = 1 runs on a ones-count problem
        assert used_kernel == (what["pop_size"] == 1 and not what["plain"]
                               and what["family"] != "nk"), what
        paths.add((used_kernel, what["pop_size"] == 1, what["plain"], what["container"]))
    assert not mismatches
    # every path, with plain problems on both array paths, and each container on each path
    assert paths == {(kernel, single, plain, container)
                     for kernel, single in ((True, True), (False, True), (False, False))
                     for plain in ((False,) if kernel else (False, True))
                     for container in CONTAINERS}


def test_a_problem_without_a_ones_table_runs_unobserved_at_n_1():
    # it takes the array engine, and gives the kernel's result on the problem it wraps
    for problem in (OneMinMaxStar(9), OneJumpZeroJump(12, 3)):
        target = problem.reference_point()
        for survival in (CrowdingDistance(), ReferencePointDistance(target)):
            config = AlgorithmConfig(policy=survival, pop_size=1, reference_point=target,
                                     max_evaluations=300)
            for seed in range(3):
                result = run(Plain(problem), config, seed)
                assert result == run(Plain(problem), config, seed, on_generation=observe_nothing)
                assert result == run(problem, config, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=CASES)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    kernel_runs = mismatches = 0
    for what, used_kernel, unobserved, observed in campaign(args.seed, args.cases):
        kernel_runs += used_kernel
        if unobserved != observed:
            mismatches += 1
            print(f"mismatch: {what}: unobserved {unobserved}, observed {observed}")
    print(f"{args.cases} cases at seed {args.seed}: {kernel_runs} on the N = 1 kernel, "
          f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
