"""Experiment orchestration: sweep plans, seeded parallel trials and summaries.

A plan names a problem family, the sizes to sweep, the algorithm variants
(label, survival policy, population-size rule), the number of runs per
cell, and a master seed. `cells` turns a plan into its (size, variant)
cells, each with its problem and run settings; sweeps and `emolab run` both
go through it. A plan checks its fields when it is built: building one from
bad values, directly, through `plan_from_json` or `dataclasses.replace`,
raises ValueError, so every plan the lab is given is valid. A sweep runs
its trials in its own process and in parallelism - 1 helper processes,
each claiming one trial at a time from a shared counter. Its index is an
entry of a results table shared by the sweep's processes, in trials.csv
order (n, variant label, trial); the claimer derives the trial's seed, a
pure function of (master_seed, n, variant index, trial index), runs it and
writes its entry in place, so results are byte-for-byte reproducible and
independent of the degree of parallelism. The sweep returns one CellTrials
per cell: its settings once, and its trials' seeds, evaluations and hits as
columns read off the table. `summarize` gives one row per cell. Capped runs
(misses) contribute their cap-truncated evaluation totals to the means and
are exposed separately through the success rate.
The lab compares no algorithms itself: the acceptance tests that do carry
their own rank-sum test and log-log fit.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import multiprocessing
import operator
import statistics
from dataclasses import astuple, dataclass, fields, replace
from multiprocessing.connection import wait
from typing import Optional, Sequence, Union

import numpy as np

from .core import child_seed, stream
from .evolve import AlgorithmConfig, run
from .problems import (
    ENUMERATION_LIMIT,
    OneJumpZeroJump,
    OneMinMax,
    OneMinMaxStar,
    generate_nk_instance,
)
from .survival import CrowdingDistance, ReferencePointDistance

DEFAULT_MASTER_SEED = 1009

# Size bounds that keep an accepted plan in bounded memory; the presets use at
# most 10,200 population bits, 800 NK table entries and 15,000 trials.
MAX_POPULATION_BITS = 1_000_000  # pop_size * n: a generation peaks near 0.5 GB
MAX_NK_TABLE = 1 << 24           # 2 * n * 2^(nk_k+1) float64 entries: 128 MiB, and
# enumeration holds its multilinear coefficients too (n=25, K=17: 241 MB max RSS)
MAX_TRIALS = 1_000_000           # trials; max RSS 128 MB as one cell, 945 MB as 10^6 cells
# A sweep's results table: one entry a trial (17 bytes), its seed, evaluations and hit
TRIAL_ENTRY = np.dtype([("seed", "<u8"), ("evaluations", "<i8"), ("hit", "?")])
# Processes of one sweep: its own and up to 255 helpers, all started before its first trial.
MAX_PARALLELISM = 256

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
    """A sweep; building one from bad values, `dataclasses.replace` included, is a ValueError."""

    name: str
    problem: str
    n_values: tuple
    variants: tuple
    runs_per_cell: int
    master_seed: int = DEFAULT_MASTER_SEED
    max_evaluations: Optional[int] = None
    k: Optional[int] = None      # OneJumpZeroJump valley width
    nk_k: Optional[int] = None   # NK epistasis degree

    def __post_init__(self):
        if self.problem not in PROBLEM_FAMILIES:
            raise ValueError(f"unknown problem family {_quoted(self.problem)}")
        _check_int("runs_per_cell", self.runs_per_cell)
        _check_int("master_seed", self.master_seed)
        for name in ("max_evaluations", "k", "nk_k"):
            _check_int(name, getattr(self, name), optional=True)
        if self.runs_per_cell < 1:
            raise ValueError("runs_per_cell must be at least 1")
        if not self.n_values:
            raise ValueError("plan needs at least one problem size")
        if not self.variants:
            raise ValueError("plan needs at least one variant")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValueError("max_evaluations must be at least 1 when set")
        trials = self.runs_per_cell * len(self.n_values) * len(self.variants)
        if trials > MAX_TRIALS:
            raise ValueError(f"the plan has {_quoted(trials)} trials, "
                             f"above the limit of {MAX_TRIALS}")
        labels = [v.label for v in self.variants]
        if not all(isinstance(text, str) and text.encode("utf-8", "replace").decode() == text
                   for text in (self.name, *labels)):  # UTF-8 replaces a surrogate
            raise ValueError("the plan name and every variant label must be strings without surrogates")
        if len(set(labels)) != len(labels):
            raise ValueError(f"variant labels must be unique, got {_quoted(labels)}")
        for variant in self.variants:
            if variant.policy not in POLICY_KINDS:
                raise ValueError(f"unknown policy {_quoted(variant.policy)} in variant "
                                 f"{_quoted(variant.label)}")
        if (self.k is None) == (self.problem == "ojzj"):
            raise ValueError("k must be set on ojzj plans and only on them")
        if (self.nk_k is None) == (self.problem == "nk"):
            raise ValueError("nk_k must be set on nk plans and only on them")
        rules = [_pop_size_rule(variant.pop_size) for variant in self.variants]
        object.__setattr__(self, "_pop_sizes", np.empty((len(self.n_values), len(rules)), np.int32))
        for row, n in enumerate(self.n_values):
            _check_int("every problem size", n)
            if not 1 <= n <= MAX_POPULATION_BITS:  # a run holds at least n population bits
                raise ValueError(f"problem sizes must lie in [1, {MAX_POPULATION_BITS}]")
            if self.problem == "ojzj" and not 2 <= self.k <= n // 4:
                raise ValueError(f"k={_quoted(self.k)} is invalid for n={n}")
            if self.problem == "nk":
                if not 0 <= self.nk_k < n:
                    raise ValueError(f"nk_k={_quoted(self.nk_k)} is invalid for n={n}")
                if n > ENUMERATION_LIMIT:
                    raise ValueError(f"enumeration is limited to n <= {ENUMERATION_LIMIT}, "
                                     f"got n={n}")
                if 2 * n * 2 ** (self.nk_k + 1) > MAX_NK_TABLE:
                    raise ValueError(f"nk_k={self.nk_k} at n={n} needs more than "
                                     f"{MAX_NK_TABLE} NK table entries")
            for column, (variant, rule) in enumerate(zip(self.variants, rules)):
                pop_size = rule(n, self.k)
                if pop_size * n > MAX_POPULATION_BITS:
                    raise ValueError(f"variant {_quoted(variant.label)} at n={n} holds more than "
                                     f"{MAX_POPULATION_BITS} population bits")
                # the paper bounds N=1 runs only for refpoint on OneMinMax and OneJumpZeroJump
                if (pop_size == 1 and self.max_evaluations is None and not
                        (variant.policy == "refpoint" and self.problem in ("omm", "ojzj"))):
                    raise ValueError(f"variant {_quoted(variant.label)} runs {variant.policy} "
                                     f"at N=1 on {self.problem} at n={n}, which may never end: "
                                     "set max_evaluations")
                self._pop_sizes[row, column] = pop_size
        if len(set(self.n_values)) != len(self.n_values):
            raise ValueError(f"problem sizes must be unique, got {_quoted(list(self.n_values))}")


@dataclass(frozen=True, slots=True)
class CellTrials:
    problem: str
    n: int
    k: Optional[int]
    variant: str
    policy: str
    pop_size: int
    seeds: tuple
    evaluations: tuple
    hits: tuple


@dataclass(frozen=True, slots=True)
class SummaryRow:
    problem: str
    n: int
    variant: str
    mean_evals: float
    std_evals: float
    success_rate: float
    runs: int


def _cut(text: str, limit: int = 80) -> str:
    """text for an error message, cut to its first `limit` characters and its length."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def _quoted(value) -> str:
    """repr(value) for an error message, cut to about 80 characters: plan input may be huge."""
    try:
        text = repr(value)
    except ValueError:  # an integer past the interpreter's limit on digits to print
        if type(value) is not int:
            return f"<{type(value).__name__} too large to print>"
        return f"<{'negative ' if value < 0 else ''}integer of {value.bit_length()} bits>"
    return _cut(text)


_RULE_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub,
                   ast.Mult: operator.mul, ast.FloorDiv: operator.floordiv}


def _rule_value(node, names: dict) -> int:
    """Integer value of a parsed rule; only the grammar, with values in int64, is accepted."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        value = node.value
    elif isinstance(node, ast.Name) and node.id in names:
        value = names[node.id]
    elif isinstance(node, ast.BinOp) and type(node.op) in _RULE_OPERATORS:
        value = _RULE_OPERATORS[type(node.op)](_rule_value(node.left, names),
                                               _rule_value(node.right, names))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = -_rule_value(node.operand, names)
    else:
        raise ValueError("a population rule may only use integers, n, k, "
                         "binary + - * //, unary - and parentheses")
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError("a population rule's values must fit in a 64-bit integer")
    return value


def _pop_size_rule(rule):
    """A population-size rule as a function of (n, k); it parses the rule once, at its first call."""
    body = None

    def size(n: int, k: Optional[int] = None) -> int:
        nonlocal body
        if isinstance(rule, bool) or not isinstance(rule, (int, str)):
            raise ValueError(f"population rule must be an integer or a string, got {_quoted(rule)}")
        if isinstance(rule, int):
            value = rule
        else:
            names = {"n": n} if k is None else {"n": n, "k": k}
            try:
                if body is None:
                    body = ast.parse(rule.strip(), mode="eval").body
                value = _rule_value(body, names)
            # the parser reports a too deeply nested rule as MemoryError or RecursionError
            except (SyntaxError, ValueError, ArithmeticError, RecursionError, MemoryError) as exc:
                raise ValueError(f"cannot evaluate population rule {_quoted(rule)}: {exc}") from exc
        if value < 1:
            raise ValueError(f"population rule {_quoted(rule)} gave {_quoted(value)} at n={n}")
        return value

    return size


def resolve_pop_size(rule: Union[int, str], n: int, k: Optional[int] = None) -> int:
    """Evaluate a population-size rule for a given problem size.

    A rule is an integer or an arithmetic expression over integer literals,
    n and (when set) k, with binary + - * //, unary - and parentheses.
    Nothing else is evaluated, so plan files cannot run code.
    """
    return _pop_size_rule(rule)(n, k)


def _check_int(name: str, value, optional: bool = False) -> None:
    """Plan fields may come from untrusted JSON: accept true integers only."""
    if type(value) is not int and not (optional and value is None):
        raise ValueError(f"{name} must be an integer{' or null' if optional else ''}, "
                         f"got {_quoted(value)}")


def build_problem(plan: ExperimentPlan, n: int):
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
    # "nk", the last of PROBLEM_FAMILIES, which a plan checks when it is built
    instance_seed = child_seed(plan.master_seed, "nk-instance", n)
    return generate_nk_instance(n, plan.nk_k, instance_seed)


def reference_for(plan: ExperimentPlan, n: int, problem):
    """The reference point shared by all variants of a plan cell."""
    if plan.problem == "nk":
        return problem.reference_point(stream(child_seed(plan.master_seed, "nk-ref", n)))
    return problem.reference_point()


def cells(plan: ExperimentPlan):
    """Yield (n, variant's index in the plan, variant, problem, config) for every cell, in
    trials.csv order: sizes ascending, then variant labels. A size's problem, reference point
    and policies are built once; pop_size is read off plan._pop_sizes, which its check fills."""
    by_label = sorted(enumerate(plan.variants), key=lambda item: item[1].label)
    policies = {"crowding": CrowdingDistance()}
    refpoint = any(variant.policy == "refpoint" for variant in plan.variants)
    for n, pop_sizes in zip(sorted(plan.n_values), plan._pop_sizes[np.argsort(plan.n_values)]):
        problem = build_problem(plan, n)
        reference = reference_for(plan, n, problem)
        policies["refpoint"] = ReferencePointDistance(reference) if refpoint else None
        for variant_index, variant in by_label:
            yield n, variant_index, variant, problem, AlgorithmConfig(
                policy=policies[variant.policy], pop_size=pop_sizes.item(variant_index),
                reference_point=reference, max_evaluations=plan.max_evaluations)


def trial_seed(plan: ExperimentPlan, n: int, variant_index: int, trial: int) -> int:
    return child_seed(plan.master_seed, "trial", n, variant_index, trial)


def _drain(plan, plan_cells, counter, table, receivers=()) -> None:
    """Claim trials one at a time from the shared counter, run them and write their entries
    in the table, until the counter runs out or, in the sweep's own process, a helper reports."""
    entries = np.frombuffer(table, TRIAL_ENTRY)
    # The sweep's own process stops claiming at the first ready pipe. That is right only
    # while a helper reports once, after the counter runs out, or with its error.
    while not (receivers and wait(receivers, timeout=0)):
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= len(entries):
            break
        n, variant_index, _, problem, config = plan_cells[index // plan.runs_per_cell]
        seed = trial_seed(plan, n, variant_index, index % plan.runs_per_cell)
        result = run(problem, config, seed)  # looked up here, where tests and tracers patch it
        entries[index] = (seed, result.evaluations_to_hit if result.hit else result.evaluations,
                          result.hit)


def _help(plan, plan_cells, counter, table, sender) -> None:
    """A helper process: drain the counter, then send None, or its error as one line."""
    try:
        message = _drain(plan, plan_cells, counter, table)
    except Exception as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
    sender.send(message)


def _start_helper(plan, plan_cells, counter, table):
    """Start one helper process on the sweep's cells; returns it and the pipe it reports on."""
    receiver, sender = multiprocessing.Pipe(duplex=False)
    helper = multiprocessing.Process(target=_help, args=(plan, plan_cells, counter, table, sender),
                                     daemon=True)
    helper.start()
    sender.close()
    return helper, receiver


def run_experiment(plan: ExperimentPlan, parallelism: int = 1) -> list:
    """Execute every (n, variant, trial) cell of the plan.

    The sweep's results are one table shared by its processes, with an entry
    (seed, evaluations, hit) per trial, in (n, variant label, trial) order.
    The calling process and min(parallelism, trials) - 1 helper processes claim
    table indices one at a time from a shared counter, and each claimer runs its
    trial and writes its entry in place. A trial that raises, or a helper that
    dies, ends every helper, then raises. Returns one CellTrials per cell, in
    table order, each column one tolist() of the cell's part of the table;
    they do not depend on parallelism or completion order.
    """
    if not 1 <= parallelism <= MAX_PARALLELISM:
        raise ValueError(f"parallelism must lie in [1, {MAX_PARALLELISM}], got {parallelism}")
    plan_cells = list(cells(plan))
    trials = len(plan_cells) * plan.runs_per_cell
    counter = multiprocessing.Value("q", 0)
    table = multiprocessing.RawArray("B", TRIAL_ENTRY.itemsize * trials)
    helpers = {}
    try:
        for _ in range(min(parallelism, trials) - 1):
            helper, receiver = _start_helper(plan, plan_cells, counter, table)
            helpers[receiver] = helper
        _drain(plan, plan_cells, counter, table, list(helpers))
        pending = dict(helpers)
        while pending:
            for receiver in wait(list(pending)):
                helper = pending.pop(receiver)
                try:
                    message = receiver.recv()
                except EOFError:
                    helper.join()
                    raise RuntimeError(f"a helper process ended with exit code "
                                       f"{helper.exitcode} before it reported") from None
                if message is not None:
                    raise RuntimeError(f"a trial in a helper process raised {message}")
    finally:  # ends the helpers still running when a trial raised or a helper died
        for receiver, helper in helpers.items():
            helper.terminate()
            helper.join()
            receiver.close()
    entries = np.frombuffer(table, TRIAL_ENTRY).reshape(len(plan_cells), -1)
    return [CellTrials(plan.problem, n, plan.k, variant.label, variant.policy, config.pop_size,
                       *(tuple(row[name].tolist()) for name in TRIAL_ENTRY.names))
            for (n, _, variant, _, config), row in zip(plan_cells, entries)]


def summarize(cells: Sequence[CellTrials]) -> list:
    """One SummaryRow per cell, in order: mean, sample standard deviation and success rate."""
    if not cells:
        raise ValueError("cannot summarize an empty set of cells")
    return [SummaryRow(problem=cell.problem, n=cell.n, variant=cell.variant,
                       mean_evals=statistics.fmean(cell.evaluations),
                       std_evals=statistics.stdev(cell.evaluations) if len(cell.hits) > 1 else 0.0,
                       success_rate=sum(cell.hits) / len(cell.hits), runs=len(cell.hits))
            for cell in cells]


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


def plan_from_json(text: str) -> ExperimentPlan:
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a plan must be a JSON object")
        for key in ("n_values", "variants"):
            if key not in doc:
                raise ValueError(f"the plan has no {key!r} key")
            if not isinstance(doc[key], list):
                raise ValueError(f"{key} must be a list, got {_quoted(doc[key])}")
        if not all(isinstance(v, dict) for v in doc["variants"]):
            raise ValueError("every variant must be a JSON object")
        for cls, keys in ((ExperimentPlan, doc), *((Variant, v) for v in doc["variants"])):
            unknown = sorted(keys.keys() - {f.name for f in fields(cls)})
            if unknown:
                raise ValueError(f"unknown {cls.__name__} keys {_quoted(unknown)}")
        return ExperimentPlan(**{"name": "plan", **doc, "n_values": tuple(doc["n_values"]),
                                 "variants": tuple(Variant(**v) for v in doc["variants"])})
    except RecursionError:  # a value nested too deeply to parse, or to quote in a message
        raise ValueError("the plan is nested too deeply") from None
    except TypeError as exc:  # a missing key
        raise ValueError(str(exc)) from None


def load_plan(path) -> ExperimentPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_json(fh.read())


def with_overrides(plan: ExperimentPlan, runs: Optional[int] = None,
                   master_seed: Optional[int] = None) -> ExperimentPlan:
    changes = {"runs_per_cell": runs, "master_seed": master_seed}
    return replace(plan, **{name: value for name, value in changes.items() if value is not None})


TRIALS_HEADER = ["problem", "n", "k", "variant", "policy", "pop_size",
                 "seed", "evaluations", "hit"]
SUMMARY_HEADER = [f.name for f in fields(SummaryRow)]


def write_trials_csv(cells: Sequence[CellTrials], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRIALS_HEADER)
        settings_of = operator.attrgetter(*TRIALS_HEADER[:6])
        for cell in cells:  # csv writes k=None as an empty field
            settings, hits = settings_of(cell), ("true" if hit else "false" for hit in cell.hits)
            writer.writerows((*settings, *row) for row in zip(cell.seeds, cell.evaluations, hits))


def write_summary_csv(rows: Sequence[SummaryRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        # csv writes a float by repr, so the summary keeps every digit
        writer.writerows(map(astuple, rows))


def read_summary_csv(path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != SUMMARY_HEADER:
                raise ValueError(f"unexpected summary header: {header}")
            rows = []
            for line in filter(None, reader):  # skips empty lines
                if len(line) != len(SUMMARY_HEADER):
                    raise ValueError(f"line {reader.line_num} does not have "
                                     f"{len(SUMMARY_HEADER)} fields")
                problem, n, variant, *numbers, runs = line
                numbers = [float(v) for v in numbers]
                if not all(map(math.isfinite, numbers)):
                    raise ValueError(f"line {reader.line_num} has a number that is not finite")
                rows.append(SummaryRow(problem, int(n), variant, *numbers, int(runs)))
        except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return rows
