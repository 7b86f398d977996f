"""Experiment orchestration: sweep plans, seeded parallel trials, summaries,
and the statistics used to compare the algorithms.

A plan names a problem family, the sizes to sweep, the algorithm variants
(label, survival policy, population-size rule), the number of runs per
cell, and a master seed. Every trial seed is a pure function of
(master_seed, n, variant index, trial index), so results are byte-for-byte
reproducible and independent of the degree of parallelism. Capped runs
(misses) contribute their cap-truncated evaluation totals to the means and
are exposed separately through the success rate.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import operator
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from .core import child_seed, stream
from .evolve import AlgorithmConfig, run
from .problems import (
    ENUMERATION_LIMIT,
    OneJumpZeroJump,
    OneMinMax,
    OneMinMaxStar,
    ProblemSpec,
    default_reference_point,
    generate_nk_instance,
)
from .survival import CrowdingDistance, ReferencePointDistance

DEFAULT_MASTER_SEED = 1009

# Size bounds that keep an accepted plan in bounded memory; the presets use at
# most 10,200 population bits, 800 NK table entries and 15,000 trials.
MAX_POPULATION_BITS = 1_000_000  # pop_size * n: a generation peaks near 0.5 GB
MAX_NK_TABLE = 1 << 24           # 2 * n * 2^(nk_k+1) float64 entries: 128 MiB
MAX_TRIALS = 1_000_000           # runs_per_cell * |n_values| * |variants|: ~0.4 GB

PROBLEM_FAMILIES = ("omm", "ojzj", "ommstar", "nk")
POLICY_KINDS = ("crowding", "refpoint")


@dataclass(frozen=True)
class Variant:
    """One algorithm setting in a plan.

    pop_size is either an integer or a rule string over n (and k for
    OneJumpZeroJump), e.g. "4*(n+1)" or "4*(n-2*k+3)".
    """

    label: str
    policy: str
    pop_size: Union[int, str]


@dataclass(frozen=True)
class ExperimentPlan:
    name: str
    problem: str
    n_values: tuple
    variants: tuple
    runs_per_cell: int
    master_seed: int = DEFAULT_MASTER_SEED
    max_evaluations: Optional[int] = None
    k: Optional[int] = None      # OneJumpZeroJump valley width
    nk_k: Optional[int] = None   # NK epistasis degree


@dataclass(frozen=True)
class TrialRecord:
    problem: str
    n: int
    k: Optional[int]
    variant: str
    policy: str
    pop_size: int
    seed: int
    trial: int
    evaluations: int
    hit: bool


@dataclass(frozen=True)
class SummaryRow:
    problem: str
    n: int
    variant: str
    mean_evals: float
    std_evals: float
    success_rate: float
    runs: int


@dataclass(frozen=True)
class StatTestResult:
    statistic: float
    p_value: float
    direction: str  # "a", "b", or "none": which sample tends smaller


_RULE_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub,
                   ast.Mult: operator.mul, ast.FloorDiv: operator.floordiv}


def _rule_value(node, names: dict) -> int:
    """Integer value of a parsed rule; only the population-rule grammar is accepted."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _RULE_OPERATORS:
        return _RULE_OPERATORS[type(node.op)](_rule_value(node.left, names),
                                              _rule_value(node.right, names))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_rule_value(node.operand, names)
    raise ValueError("a population rule may only use integers, n, k, "
                     "binary + - * //, unary - and parentheses")


def resolve_pop_size(rule: Union[int, str], n: int, k: Optional[int] = None) -> int:
    """Evaluate a population-size rule for a given problem size.

    A rule is an integer or an arithmetic expression over integer literals,
    n and (when set) k, with binary + - * //, unary - and parentheses.
    Nothing else is evaluated, so plan files cannot run code.
    """
    if isinstance(rule, bool) or not isinstance(rule, (int, str)):
        raise ValueError(f"population rule must be an integer or a string, got {rule!r}")
    if isinstance(rule, int):
        value = rule
    else:
        names = {"n": n} if k is None else {"n": n, "k": k}
        try:
            value = _rule_value(ast.parse(rule.strip(), mode="eval").body, names)
        # the parser reports a too deeply nested rule as MemoryError or RecursionError
        except (SyntaxError, ValueError, ArithmeticError, RecursionError, MemoryError) as exc:
            raise ValueError(f"cannot evaluate population rule {rule!r}: {exc}") from exc
    if value < 1:
        raise ValueError(f"population rule {rule!r} gave {value} at n={n}")
    return value


def _check_int(name: str, value, optional: bool = False) -> None:
    """Plan fields may come from untrusted JSON: accept true integers only."""
    if type(value) is not int and not (optional and value is None):
        raise ValueError(f"{name} must be an integer{' or null' if optional else ''}, "
                         f"got {value!r}")


def validate_plan(plan: ExperimentPlan) -> None:
    if plan.problem not in PROBLEM_FAMILIES:
        raise ValueError(f"unknown problem family {plan.problem!r}")
    _check_int("runs_per_cell", plan.runs_per_cell)
    _check_int("master_seed", plan.master_seed)
    for name in ("max_evaluations", "k", "nk_k"):
        _check_int(name, getattr(plan, name), optional=True)
    for n in plan.n_values:
        _check_int("every problem size", n)
    if plan.runs_per_cell < 1:
        raise ValueError("runs_per_cell must be at least 1")
    if not plan.n_values:
        raise ValueError("plan needs at least one problem size")
    if not plan.variants:
        raise ValueError("plan needs at least one variant")
    if plan.max_evaluations is not None and plan.max_evaluations < 1:
        raise ValueError("max_evaluations must be at least 1 when set")
    trials = plan.runs_per_cell * len(plan.n_values) * len(plan.variants)
    if trials > MAX_TRIALS:
        raise ValueError(f"the plan has {trials} trials, above the limit of {MAX_TRIALS}")
    labels = [v.label for v in plan.variants]
    if not all(isinstance(label, str) for label in labels):
        raise ValueError(f"variant labels must be strings, got {labels}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"variant labels must be unique, got {labels}")
    for variant in plan.variants:
        if variant.policy not in POLICY_KINDS:
            raise ValueError(f"unknown policy {variant.policy!r} in variant {variant.label!r}")
    if plan.problem == "ojzj":
        if plan.k is None:
            raise ValueError("OneJumpZeroJump plans must set k")
        for n in plan.n_values:
            if not 2 <= plan.k <= n // 4:
                raise ValueError(f"k={plan.k} is invalid for n={n}")
    if plan.problem == "nk":
        if plan.nk_k is None:
            raise ValueError("NK plans must set nk_k")
        for n in plan.n_values:
            if not 0 <= plan.nk_k < n:
                raise ValueError(f"nk_k={plan.nk_k} is invalid for n={n}")
            if n > ENUMERATION_LIMIT:
                raise ValueError(f"enumeration is limited to n <= {ENUMERATION_LIMIT}, got n={n}")
            if 2 * n * 2 ** (plan.nk_k + 1) > MAX_NK_TABLE:
                raise ValueError(f"nk_k={plan.nk_k} at n={n} needs more than "
                                 f"{MAX_NK_TABLE} NK table entries")
    for n in plan.n_values:
        if n < 1:
            raise ValueError("problem sizes must be positive")
        for variant in plan.variants:
            if resolve_pop_size(variant.pop_size, n, plan.k) * n > MAX_POPULATION_BITS:
                raise ValueError(f"variant {variant.label!r} at n={n} holds more than "
                                 f"{MAX_POPULATION_BITS} population bits")


def build_problem(plan: ExperimentPlan, n: int) -> ProblemSpec:
    """Instantiate the plan's problem at size n.

    NK instances are generated deterministically from (master_seed, n) and
    shared by every variant at that size.
    """
    if plan.problem == "omm":
        return OneMinMax(n)
    if plan.problem == "ojzj":
        return OneJumpZeroJump(n, plan.k)
    if plan.problem == "ommstar":
        return OneMinMaxStar(n)
    if plan.problem == "nk":
        instance_seed = child_seed(plan.master_seed, "nk-instance", n)
        return generate_nk_instance(n, plan.nk_k, instance_seed)
    raise ValueError(f"unknown problem family {plan.problem!r}")


def reference_for(plan: ExperimentPlan, n: int, problem: ProblemSpec):
    """The reference point shared by all variants of a plan cell."""
    if plan.problem == "nk":
        return default_reference_point(problem, stream(child_seed(plan.master_seed, "nk-ref", n)))
    return default_reference_point(problem)


def algorithm_config(plan: ExperimentPlan, variant: Variant, n: int,
                     reference) -> AlgorithmConfig:
    """The run settings of one variant at size n: population, survival policy, budget."""
    if variant.policy == "crowding":
        policy = CrowdingDistance()
    else:
        policy = ReferencePointDistance(reference)
    return AlgorithmConfig(
        policy=policy,
        pop_size=resolve_pop_size(variant.pop_size, n, plan.k),
        reference_point=reference,
        max_evaluations=plan.max_evaluations,
    )


def trial_seed(plan: ExperimentPlan, n: int, variant_index: int, trial: int) -> int:
    return child_seed(plan.master_seed, "trial", n, variant_index, trial)


def _run_trials(job):
    """Worker: execute a chunk of trials for one plan cell."""
    problem, config, meta, chunk = job
    records = []
    for trial, seed in chunk:
        result = run(problem, config, seed)
        evaluations = result.evaluations_to_hit if result.hit else result.evaluations
        records.append(TrialRecord(
            problem=meta["problem"],
            n=meta["n"],
            k=meta["k"],
            variant=meta["variant"],
            policy=meta["policy"],
            pop_size=config.pop_size,
            seed=seed,
            trial=trial,
            evaluations=evaluations,
            hit=result.hit,
        ))
    return records


def run_experiment(plan: ExperimentPlan, parallelism: int = 1) -> list:
    """Execute every (n, variant, trial) cell of the plan.

    Returns records sorted by (problem, n, variant, trial); the record set
    does not depend on parallelism or completion order.
    """
    validate_plan(plan)
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    jobs = []
    for n in plan.n_values:
        problem = build_problem(plan, n)
        reference = reference_for(plan, n, problem)
        for variant_index, variant in enumerate(plan.variants):
            config = algorithm_config(plan, variant, n, reference)
            meta = {
                "problem": plan.problem,
                "n": n,
                "k": plan.k,
                "variant": variant.label,
                "policy": variant.policy,
            }
            trials = [(t, trial_seed(plan, n, variant_index, t))
                      for t in range(plan.runs_per_cell)]
            chunk_size = max(1, math.ceil(len(trials) / max(parallelism * 4, 1)))
            for start in range(0, len(trials), chunk_size):
                jobs.append((problem, config, meta, trials[start:start + chunk_size]))
    records = []
    if parallelism == 1:
        for job in jobs:
            records.extend(_run_trials(job))
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            for chunk_records in pool.map(_run_trials, jobs):
                records.extend(chunk_records)
    records.sort(key=lambda r: (r.problem, r.n, r.variant, r.trial))
    return records


def summarize(records: Sequence[TrialRecord]) -> list:
    """Mean, sample standard deviation, and success rate per (problem, n, variant)."""
    if not records:
        raise ValueError("cannot summarize an empty record set")
    groups = {}
    for record in records:
        groups.setdefault((record.problem, record.n, record.variant), []).append(record)
    rows = []
    for (problem, n, variant) in sorted(groups):
        cell = groups[(problem, n, variant)]
        evals = [r.evaluations for r in cell]
        mean = statistics.fmean(evals)
        std = statistics.stdev(evals) if len(evals) > 1 else 0.0
        success = sum(1 for r in cell if r.hit) / len(cell)
        rows.append(SummaryRow(
            problem=problem, n=n, variant=variant,
            mean_evals=mean, std_evals=std,
            success_rate=success, runs=len(cell),
        ))
    return rows


def _fractional_ranks(values) -> list:
    """Ascending ranks with ties sharing the average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = avg
        i = j + 1
    return ranks


def rank_sum_test(a: Sequence[float], b: Sequence[float]) -> StatTestResult:
    """Two-sided Mann-Whitney U test, normal approximation with tie correction.

    The statistic is U for the first sample (the number of (a, b) pairs with
    a > b, ties counting one half); direction reports which sample tends to
    be smaller.
    """
    if len(a) < 2 or len(b) < 2:
        raise ValueError("both samples need at least 2 observations")
    n1, n2 = len(a), len(b)
    combined = list(a) + list(b)
    ranks = _fractional_ranks(combined)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2
    mean_u = n1 * n2 / 2
    if u1 < mean_u:
        direction = "a"
    elif u1 > mean_u:
        direction = "b"
    else:
        direction = "none"
    total = n1 + n2
    tie_counts = {}
    for v in combined:
        tie_counts[v] = tie_counts.get(v, 0) + 1
    tie_term = sum(c ** 3 - c for c in tie_counts.values())
    correction = 1.0 - tie_term / (total ** 3 - total)
    if correction <= 0.0:
        return StatTestResult(statistic=u1, p_value=1.0, direction="none")
    sd = math.sqrt(correction * n1 * n2 * (total + 1) / 12.0)
    z = (u1 - mean_u) / sd
    p_value = min(1.0, math.erfc(abs(z) / math.sqrt(2)))
    return StatTestResult(statistic=u1, p_value=p_value, direction=direction)


def loglog_slope(summary: Sequence[SummaryRow], variant: str) -> float:
    """Least-squares slope of log(mean evaluations) against log(n) for one variant."""
    points = sorted((row.n, row.mean_evals) for row in summary if row.variant == variant)
    if len({n for n, _ in points}) < 3:
        raise ValueError(f"need at least 3 distinct sizes for variant {variant!r}")
    if any(mean <= 0 for _, mean in points):
        raise ValueError("mean evaluations must be positive for a log-log fit")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(mean) for _, mean in points]
    x_bar = sum(xs) / len(xs)
    y_bar = sum(ys) / len(ys)
    sxx = sum((x - x_bar) ** 2 for x in xs)
    sxy = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    return sxy / sxx


def preset_plans() -> dict:
    """The four standard sweeps.

    omm: sizes 10..50 step 10; NSGA-II at N=4(n+1) against R-NSGA-II at
    N=1 and at the same 4(n+1); no budget. ojzj: same sizes with k=2;
    NSGA-II at N=4(n-2k+3) against R-NSGA-II at N=1 and at 4(n-2k+3).
    ommstar: both algorithms at N=4(n+1) with a 1e5 evaluation budget.
    nk: sizes 5..25 step 5 with K=3, both algorithms at N=100 and a 1e6
    budget; one instance per size, its reference point drawn once from the
    enumerated front and shared by both variants.
    """
    synthetic_sizes = (10, 20, 30, 40, 50)
    return {
        "omm": ExperimentPlan(
            name="omm",
            problem="omm",
            n_values=synthetic_sizes,
            variants=(
                Variant("nsga2", "crowding", "4*(n+1)"),
                Variant("rnsga2-n1", "refpoint", 1),
                Variant("rnsga2", "refpoint", "4*(n+1)"),
            ),
            runs_per_cell=1000,
        ),
        "ojzj": ExperimentPlan(
            name="ojzj",
            problem="ojzj",
            n_values=synthetic_sizes,
            k=2,
            variants=(
                Variant("nsga2", "crowding", "4*(n-2*k+3)"),
                Variant("rnsga2-n1", "refpoint", 1),
                Variant("rnsga2", "refpoint", "4*(n-2*k+3)"),
            ),
            runs_per_cell=1000,
        ),
        "ommstar": ExperimentPlan(
            name="ommstar",
            problem="ommstar",
            n_values=synthetic_sizes,
            variants=(
                Variant("nsga2", "crowding", "4*(n+1)"),
                Variant("rnsga2", "refpoint", "4*(n+1)"),
            ),
            runs_per_cell=1000,
            max_evaluations=100_000,
        ),
        "nk": ExperimentPlan(
            name="nk",
            problem="nk",
            n_values=(5, 10, 15, 20, 25),
            nk_k=3,
            variants=(
                Variant("nsga2", "crowding", 100),
                Variant("rnsga2", "refpoint", 100),
            ),
            runs_per_cell=50,
            max_evaluations=1_000_000,
        ),
    }


def plan_to_json(plan: ExperimentPlan) -> str:
    doc = {
        "name": plan.name,
        "problem": plan.problem,
        "n_values": list(plan.n_values),
        "variants": [
            {"label": v.label, "policy": v.policy, "pop_size": v.pop_size}
            for v in plan.variants
        ],
        "runs_per_cell": plan.runs_per_cell,
        "master_seed": plan.master_seed,
        "max_evaluations": plan.max_evaluations,
        "k": plan.k,
        "nk_k": plan.nk_k,
    }
    return json.dumps(doc, indent=2)


def plan_from_json(text: str) -> ExperimentPlan:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a plan must be a JSON object")
    for key in ("n_values", "variants"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a list, got {doc[key]!r}")
    if not all(isinstance(v, dict) for v in doc["variants"]):
        raise ValueError("every variant must be a JSON object")
    plan = ExperimentPlan(
        name=doc.get("name", "plan"),
        problem=doc["problem"],
        n_values=tuple(doc["n_values"]),
        variants=tuple(Variant(v["label"], v["policy"], v["pop_size"])
                       for v in doc["variants"]),
        runs_per_cell=doc["runs_per_cell"],
        master_seed=doc.get("master_seed", DEFAULT_MASTER_SEED),
        max_evaluations=doc.get("max_evaluations"),
        k=doc.get("k"),
        nk_k=doc.get("nk_k"),
    )
    validate_plan(plan)
    return plan


def load_plan(path) -> ExperimentPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_json(fh.read())


def with_overrides(plan: ExperimentPlan, runs: Optional[int] = None,
                   master_seed: Optional[int] = None) -> ExperimentPlan:
    if runs is not None:
        plan = replace(plan, runs_per_cell=runs)
    if master_seed is not None:
        plan = replace(plan, master_seed=master_seed)
    return plan


TRIALS_HEADER = ["problem", "n", "k", "variant", "policy", "pop_size",
                 "seed", "evaluations", "hit"]
SUMMARY_HEADER = ["problem", "n", "variant", "mean_evals", "std_evals",
                  "success_rate", "runs"]


def write_trials_csv(records: Sequence[TrialRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRIALS_HEADER)
        for r in records:
            writer.writerow([
                r.problem, r.n, "" if r.k is None else r.k, r.variant,
                r.policy, r.pop_size, r.seed, r.evaluations,
                "true" if r.hit else "false",
            ])


def write_summary_csv(rows: Sequence[SummaryRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for row in rows:
            writer.writerow([
                row.problem, row.n, row.variant,
                repr(row.mean_evals), repr(row.std_evals),
                repr(row.success_rate), row.runs,
            ])


def read_summary_csv(path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != SUMMARY_HEADER:
            raise ValueError(f"unexpected summary header: {reader.fieldnames}")
        rows = []
        for line in reader:
            rows.append(SummaryRow(
                problem=line["problem"],
                n=int(line["n"]),
                variant=line["variant"],
                mean_evals=float(line["mean_evals"]),
                std_evals=float(line["std_evals"]),
                success_rate=float(line["success_rate"]),
                runs=int(line["runs"]),
            ))
    return rows
