"""Every path through `run` gives one RunResult: a seeded differential corpus.

`run` takes one of three paths. An N = 1 run on a problem with ones_table()
goes through the (1+1) kernel, `_run_single`, observed or not; any other
unobserved run goes through the array engine, which stops after its last
evaluations; any other observed run goes through the array engine and
selects survivors every generation. Each case draws the problem (one of the
four families, NK at K = 0..3, a plain object that answers only `n`,
`evaluator()`, `front()` and `reference_point()`, or one that answers
`ones_table()` too but cannot be hashed: a plain `@dataclass`, whose type
has no hash, or a frozen one holding a list, whose value has none), n, N
from 1 to 12, the target, the survival policy, the mutation rate, the cap
and the container of the reference points, and checks that the unobserved
run gives the RunResult of the same run observed. On the kernel's cases it
also runs the problem wrapped in `Plain`, without ones_table(), observed on
the array engine, and checks the trajectory, which a capped run's RunResult
does not show: the kernel, whose rule is kept for the problem object and
never hashed, hands its observer the array engine's RunStates, array for
array (values, dtype and shape) and counter for counter. One band case to
every ten corpus cases draws an N = 1 run whose count changes often leave
the kernel's candidate band, which the corpus cases seldom do.

The Tier-1 corpus is fixed by SEED and CASES; `draw_case(seed, index)` and
`draw_band_case(seed, index)` rebuild a failing case. A longer campaign runs
from the command line,

    PYTHONPATH=src python tests/test_run_paths.py --cases 2000 --seed 7

printing each mismatch and exiting 1 if there is one.
"""

import argparse
import random
import sys
from dataclasses import dataclass, field

import numpy as np
import pytest

from emolab import evolve
from emolab.evolve import AlgorithmConfig, RunResult, run
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


class Ones(Plain):
    """A plain problem with ones_table(), which puts it on the kernel at N = 1."""

    def ones_table(self):
        return self._problem.ones_table()


@dataclass
class Unhashable(Ones):
    """Written as a plain @dataclass, whose generated __eq__ sets __hash__ to None."""

    n: int
    _problem: object


@dataclass(frozen=True)
class UnhashableValue(Ones):
    """Written as a frozen @dataclass, whose type has a hash that its list field makes
    raise TypeError: unhashable type: 'list'."""

    n: int
    _problem: object
    tags: list = field(default_factory=list)


def observe_nothing(state):
    """An observer that changes nothing."""


def state_key(state):
    """A RunState as a comparable tuple: each array as its dtype, shape and bytes."""
    return tuple((value.dtype.str, value.shape, value.tobytes())
                 if isinstance(value, np.ndarray) else value for value in vars(state).values())


def observed_run(problem, config, seed):
    """A run's RunResult and the state_key of every RunState handed to its observer."""
    states = []
    result = run(problem, config, seed, on_generation=lambda state: states.append(state_key(state)))
    return result, states


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
    wrap = rng.random()
    wrapper = ("plain" if wrap < 0.2 else None if family == "nk" or wrap >= 0.4
               else "unhashable" if wrap < 0.3 else "unhashable value")
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
    what = dict(seed=seed, index=index, family=family, n=n, k=k, wrapper=wrapper, target=target,
                policy=policy, rate=rate, pop_size=pop_size, cap=cap, container=container)
    wrapped = {None: problem, "plain": Plain(problem), "unhashable": Unhashable(n, problem),
               "unhashable value": UnhashableValue(n, problem)}
    return what, wrapped[wrapper], config, rng.randrange(1 << 32)


def draw_band_case(seed, index):
    """Band case `index` at `seed`, as draw_case gives a case: an N = 1 run on a
    ones-count problem whose children often change the count by more than the
    kernel's candidate band (evolve._BAND), so that its end entries are read.
    At rate 1 a child is its parent's complement and at rate 0.5 a uniform
    string, and the target's ones count lies beyond the band from n/2 on
    either side, so the parent is drawn across the middle towards it."""
    rng = random.Random(f"run-paths-band-{seed}-{index}")
    family, k = rng.choice(FAMILIES[:3]), None
    if family == "ojzj":
        n = rng.randint(24, 48)
        k = rng.randint(2, n // 8)
        problem = OneJumpZeroJump(n, k)
    else:
        n = rng.randint(24, 70)
        problem = OneMinMax(n) if family == "omm" else OneMinMaxStar(n)
    far = [count for count in range(n + 1) if abs(2 * count - n) > 2 * evolve._BAND]
    target = tuple(problem.ones_table()[rng.choice(far)].tolist())
    policy = rng.choice(["refpoint at the target", "refpoint off the front"])
    reference = target if policy == "refpoint at the target" else (target[0] + 1.5,
                                                                  target[1] - 0.5)
    rate, cap, container = rng.choice([1.0, 0.5]), rng.randint(2, 300), rng.choice(list(CONTAINERS))
    as_container = CONTAINERS[container]
    config = AlgorithmConfig(policy=ReferencePointDistance(as_container(reference)), pop_size=1,
                             reference_point=as_container(target), mutation_rate=rate,
                             max_evaluations=cap)
    what = dict(seed=seed, index=index, band=True, family=family, n=n, k=k, wrapper=None,
                target=target, policy=policy, rate=rate, pop_size=1, cap=cap, container=container)
    return what, problem, config, rng.randrange(1 << 32)


def mismatch(unobserved, observed, engine):
    """What tells the unobserved run from the observed one, or on the kernel's cases
    the kernel's observed run, (RunResult, states), from the array engine's; or None."""
    if unobserved != observed[0]:
        return f"unobserved {unobserved}, observed {observed[0]}"
    if engine is not None and engine != observed:
        if engine[0] != observed[0]:
            return f"kernel {observed[0]}, array engine {engine[0]}"
        generation = next((g for g, (a, b) in enumerate(zip(observed[1], engine[1])) if a != b),
                          min(len(observed[1]), len(engine[1])))
        return f"kernel and array engine states differ from generation {generation}"
    return None


def campaign(seed, cases) -> list:
    """Run the corpus: each case's (what, whether the kernel ran, whether the kernel's parent
    changed, mismatch)."""
    kernel, ran, outcomes = evolve._run_single, [], []

    def counted(*args):
        ran.append(True)
        return kernel(*args)

    evolve._run_single = counted
    try:
        # one band case to every ten corpus cases
        drawn = [(draw_case, index) for index in range(cases)]
        for draw, index in drawn + [(draw_band_case, index) for index in range(cases // 10)]:
            what, problem, config, run_seed = draw(seed, index)
            ran.clear()
            unobserved = run(problem, config, run_seed)
            used_kernel, engine, moved = bool(ran), None, False
            if used_kernel:
                observed = observed_run(problem, config, run_seed)
                engine = observed_run(Plain(problem), config, run_seed)
                moved = len({key[2] for key in observed[1]}) > 1  # births
            else:
                observed = run(problem, config, run_seed, on_generation=observe_nothing), None
            outcomes.append((what, used_kernel, moved, mismatch(unobserved, observed, engine)))
    finally:
        evolve._run_single = kernel
    return outcomes


def test_unobserved_runs_match_observed_runs():
    mismatches, paths, kernel_runs, moved = [], set(), 0, 0
    for what, used_kernel, parent_moved, found in campaign(SEED, CASES):
        if found is not None:
            mismatches.append((what, found))
        kernel_runs += used_kernel
        moved += parent_moved
        # the kernel takes exactly the unobserved N = 1 runs on a ones-count problem,
        # hashable or not
        ones_count = what["family"] != "nk" and what["wrapper"] != "plain"
        assert used_kernel == (what["pop_size"] == 1 and ones_count), what
        paths.add((used_kernel, what["pop_size"] == 1, what["wrapper"], what["container"]))
    assert not mismatches
    assert moved >= kernel_runs // 4  # the trajectories compared are not all empty
    # every path with each container, the kernel's with both unhashable problems, and
    # N = 1 on the array engine with NK landscapes and plain problems
    unhashable = ("unhashable", "unhashable value")
    assert paths == {(kernel, single, wrapper, container)
                     for kernel, single, wrappers in ((True, True, (None, *unhashable)),
                                                      (False, True, (None, "plain")),
                                                      (False, False, (None, "plain", *unhashable)))
                     for wrapper in wrappers for container in CONTAINERS}


def test_a_problem_without_a_ones_table_runs_unobserved_at_n_1(monkeypatch):
    # it takes the array engine, and gives the kernel's result and states on the problem it wraps
    kernel, kernel_runs = evolve._run_single, []
    monkeypatch.setattr(evolve, "_run_single",
                        lambda *args: kernel_runs.append(args[0]) or kernel(*args))
    for problem in (OneMinMaxStar(9), OneJumpZeroJump(12, 3)):
        target = problem.reference_point()
        for survival in (CrowdingDistance(), ReferencePointDistance(target)):
            config = AlgorithmConfig(policy=survival, pop_size=1, reference_point=target,
                                     max_evaluations=300)
            for seed in range(3):
                result = run(Plain(problem), config, seed)
                assert result == run(Plain(problem), config, seed, on_generation=observe_nothing)
                assert not kernel_runs
                assert result == run(problem, config, seed)
                assert observed_run(Plain(problem), config, seed) == observed_run(problem, config,
                                                                                  seed)
                assert kernel_runs == [problem, problem]
                kernel_runs.clear()


def check_seed_3_on_the_kernel(wrap, monkeypatch):
    """Run OneMinMax(8) wrapped by `wrap` at N = 1 and seed 3, under both policies: each run
    goes through the kernel and gives the kernel's RunResult on the bare problem, at the
    standard target a hit at evaluation 43, and observed, the array engine's RunResult and
    states on the problem wrapped in Plain."""
    kernel, kernel_runs = evolve._run_single, []
    monkeypatch.setattr(evolve, "_run_single",
                        lambda *args: kernel_runs.append(args[0]) or kernel(*args))
    problem = OneMinMax(8)
    target = problem.reference_point()
    results = []
    for survival, cap in ((ReferencePointDistance(target), None), (CrowdingDistance(), 300)):
        config = AlgorithmConfig(policy=survival, pop_size=1, reference_point=target,
                                 max_evaluations=cap)
        results.append(run(wrap(8, problem), config, 3))
        assert results[-1] == run(problem, config, 3)
        observed = observed_run(wrap(8, problem), config, 3)
        assert observed == observed_run(Plain(problem), config, 3)
        assert observed[0] == results[-1]
    assert [type(p) for p in kernel_runs] == [wrap, OneMinMax, wrap] * 2
    assert results[0].evaluations_to_hit == 43


def test_an_unhashable_problem_with_a_ones_table_runs_unobserved_at_n_1(monkeypatch):
    # a plain @dataclass has no hash; nothing hashes the problem, so it runs as any other
    check_seed_3_on_the_kernel(Unhashable, monkeypatch)


def test_a_problem_whose_value_cannot_be_hashed_runs_unobserved_at_n_1(monkeypatch):
    # its type has a hash, but its value raises TypeError: unhashable type: 'list';
    # nothing hashes the problem, so it runs as any other
    check_seed_3_on_the_kernel(UnhashableValue, monkeypatch)


@pytest.mark.parametrize("wrap", [Ones, Unhashable])
def test_a_type_error_from_the_ones_table_is_raised_once(wrap):
    # hashable or not, the rule is built once and its error is not caught
    class Failing(wrap):
        def ones_table(self):
            calls.append(self)
            raise TypeError("no table")

    calls, problem = [], OneMinMax(8)
    config = AlgorithmConfig(policy=CrowdingDistance(), pop_size=1,
                             reference_point=problem.reference_point(), max_evaluations=10)
    failing = Failing(problem) if wrap is Ones else Failing(8, problem)
    with pytest.raises(TypeError, match="no table"):
        run(failing, config, 0)
    assert len(calls) == 1


@pytest.mark.parametrize("wrap", [Unhashable, UnhashableValue])
def test_runs_of_one_unhashable_problem_share_one_rule(wrap, monkeypatch):
    # the kernel keeps the last rule for its problem object, matched by identity, so two
    # runs of one problem that cannot be hashed build it from one ones table
    calls, ones_table = [], wrap.ones_table
    monkeypatch.setattr(wrap, "ones_table", lambda problem: calls.append(problem) or
                        ones_table(problem))
    bare = OneMinMax(8)
    target = bare.reference_point()
    config = AlgorithmConfig(policy=ReferencePointDistance(target), pop_size=1,
                             reference_point=target)
    expected = run(bare, config, 3)
    assert expected == RunResult(hit=True, evaluations_to_hit=43, evaluations=43, generations=42)
    problem = wrap(8, bare)
    assert [run(problem, config, 3) for _ in range(2)] == [expected] * 2
    assert len(calls) == 1 and calls[0] is problem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=CASES)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    kernel_runs = mismatches = 0
    for what, used_kernel, _, found in campaign(args.seed, args.cases):
        kernel_runs += used_kernel
        if found is not None:
            mismatches += 1
            print(f"mismatch: {what}: {found}")
    print(f"{args.cases} cases at seed {args.seed}: {kernel_runs} on the N = 1 kernel, "
          f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
