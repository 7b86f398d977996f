"""Experiment plans, the seeded parallel runner, summaries, and the rank-sum test of C4 and C5."""

import hashlib
import json
import math
import multiprocessing
import pickle
import re
import sys
import time
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from emolab import lab, problems
from emolab.lab import (
    CellTrials,
    ExperimentPlan,
    Variant,
    plan_from_json,
    preset_plans,
    read_summary_csv,
    resolve_pop_size,
    run_experiment,
    summarize,
    trial_seed,
    with_overrides,
    write_summary_csv,
    write_trials_csv,
)


def plan_json(plan):
    """A plan as the JSON document that load_plan reads, keys in field order."""
    return json.dumps(asdict(plan), indent=2)


def tiny_plan(**overrides):
    base = dict(
        name="tiny",
        problem="omm",
        n_values=(6, 8),
        variants=(Variant("nsga2", "crowding", "4*(n+1)"),
                  Variant("rnsga2-n1", "refpoint", 1)),
        runs_per_cell=3,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class ParentRaisingOneMinMax(problems.OneMinMax):
    """OneMinMax whose trials raise in the calling process and take 0.5 s in a helper."""

    def evaluator(self):
        if multiprocessing.parent_process() is None:
            raise RuntimeError("raised in the calling process")
        time.sleep(0.5)
        return super().evaluator()


def brute_force_u(a, b):
    """Pair-counting oracle for the rank-sum statistic."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def loop_reference_rank_sum(a, b):
    """Two-sided Mann-Whitney test of two samples: (U, p-value), as C4 and C5 use it.

    U counts the (a, b) pairs with a > b, ties one half; a tends smaller when
    U < len(a) * len(b) / 2. Ties get their average rank by a Python loop, and
    p comes from the normal approximation with tie correction.
    """
    combined = list(a) + list(b)
    order = sorted(range(len(combined)), key=combined.__getitem__)
    ranks = [0.0] * len(combined)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and combined[order[j + 1]] == combined[order[i]]:
            j += 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = (i + j) / 2 + 1
        i = j + 1
    n1, n2, total = len(a), len(b), len(combined)
    u1 = sum(ranks[:n1]) - n1 * (n1 + 1) / 2
    ties = sum(c ** 3 - c for c in Counter(combined).values())
    correction = 1.0 - ties / (total ** 3 - total)
    if correction <= 0.0:
        return u1, 1.0
    z = (u1 - n1 * n2 / 2) / math.sqrt(correction * n1 * n2 * (total + 1) / 12.0)
    return u1, min(1.0, math.erfc(abs(z) / math.sqrt(2)))


class TestRankSumTest:
    def test_identical_samples_full_p(self):
        assert loop_reference_rank_sum([5.0] * 12, [5.0] * 12)[1] >= 0.99

    def test_clearly_shifted_samples(self):
        u, p_value = loop_reference_rank_sum(list(range(1, 21)), list(range(100, 120)))
        assert p_value < 1e-4
        assert u < 20 * 20 / 2

    def test_statistic_is_pair_count(self):
        assert loop_reference_rank_sum([1, 2], [3, 4])[0] == 0.0
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = list(rng.integers(0, 12, size=rng.integers(2, 15)))
            b = list(rng.integers(0, 12, size=rng.integers(2, 15)))
            assert loop_reference_rank_sum(a, b)[0] == brute_force_u(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a = list(rng.normal(size=10))
            b = list(rng.normal(loc=0.5, size=8))
            fwd_u, fwd_p = loop_reference_rank_sum(a, b)
            rev_u, rev_p = loop_reference_rank_sum(b, a)
            assert fwd_p == pytest.approx(rev_p)
            assert fwd_u + rev_u == len(a) * len(b)  # one U below its mean iff the other is above

    # exact results recorded while ties were ranked by a Python loop: three
    # tied integer pairs and one shifted pair; "a" means a tends smaller
    @pytest.mark.parametrize("a, b, expected", [
        ([1, 2, 2, 3, 3, 3, 7], [2, 3, 3, 4, 4, 9, 9, 9], (12.0, 0.057232528191513976, "a")),
        ([4, 4, 4, 5, 5], [4, 5, 5, 5, 6, 6], (6.5, 0.0940675201616804, "a")),
        ([5] * 12, [5] * 12, (72.0, 1.0, "none")),
        (list(range(1, 21)), list(range(100, 120)), (0.0, 6.301848221392315e-08, "a")),
    ])
    def test_matches_pinned_results(self, a, b, expected):
        u, p_value = loop_reference_rank_sum(a, b)
        mean = len(a) * len(b) / 2
        direction = "a" if u < mean else "b" if u > mean else "none"
        assert (u, p_value, direction) == expected
        assert type(u) is float and type(p_value) is float


def omm_cell(seeds, evaluations, hits, n=10, variant="v"):
    """A crowding cell of OneMinMax at N = 4, its columns as tuples in trial order."""
    return CellTrials("omm", n, None, variant, "crowding", 4,
                      tuple(seeds), tuple(evaluations), tuple(hits))


class TestSummarize:
    def test_constant_records(self):
        row, = summarize([omm_cell(range(4), [100] * 4, [True] * 4)])
        assert row.mean_evals == 100.0
        assert row.std_evals == 0.0
        assert row.success_rate == 1.0
        assert row.runs == 4

    def test_sample_standard_deviation(self):
        row, = summarize([omm_cell([1, 2], [90, 110], [True, True])])
        assert row.mean_evals == 100.0
        assert row.std_evals == pytest.approx(math.sqrt(200))  # divisor n-1

    def test_success_rate_counts_hits(self):
        row, = summarize([omm_cell([1, 2, 3, 4], [50] * 4, [True, True, True, False])])
        assert row.success_rate == 0.75

    def test_one_row_per_cell_in_the_cells_order(self):
        cells = [omm_cell([5, 6, 7], [30, 10, 20], [True, False, True], n=20, variant="b"),
                 omm_cell([8], [40], [False], n=10, variant="a")]
        assert summarize(cells) == [
            lab.SummaryRow("omm", 20, "b", 20.0, 10.0, 2 / 3, 3),
            lab.SummaryRow("omm", 10, "a", 40.0, 0.0, 0.0, 1)]

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestPresets:
    def test_preset_names(self):
        # building the presets checks them
        assert set(preset_plans()) == {"omm", "ojzj", "ommstar", "nk"}

    def test_omm_preset_shape(self):
        plan = preset_plans()["omm"]
        assert plan.n_values == (10, 20, 30, 40, 50)
        assert [v.label for v in plan.variants] == ["nsga2", "rnsga2-n1", "rnsga2"]
        assert plan.runs_per_cell == 1000
        assert plan.max_evaluations is None
        assert resolve_pop_size(plan.variants[0].pop_size, 50) == 204
        assert resolve_pop_size(plan.variants[1].pop_size, 50) == 1

    def test_ojzj_preset_shape(self):
        plan = preset_plans()["ojzj"]
        assert plan.k == 2
        assert resolve_pop_size(plan.variants[0].pop_size, 30, plan.k) == 4 * (30 - 4 + 3)
        assert resolve_pop_size(plan.variants[1].pop_size, 30, plan.k) == 1

    def test_ommstar_preset_shape(self):
        plan = preset_plans()["ommstar"]
        assert plan.max_evaluations == 100_000
        assert [v.label for v in plan.variants] == ["nsga2", "rnsga2"]
        for variant in plan.variants:
            assert resolve_pop_size(variant.pop_size, 30) == 124

    def test_nk_preset_shape(self):
        plan = preset_plans()["nk"]
        assert plan.n_values == (5, 10, 15, 20, 25)
        assert plan.nk_k == 3
        assert plan.max_evaluations == 1_000_000
        assert plan.runs_per_cell == 50
        for variant in plan.variants:
            assert resolve_pop_size(variant.pop_size, 15) == 100

    def test_nk_instance_and_reference_shared_across_variants(self):
        plan = preset_plans()["nk"]
        problem_a = lab.build_problem(plan, 5)
        problem_b = lab.build_problem(plan, 5)
        assert np.array_equal(problem_a.contributions, problem_b.contributions)
        ref_a = lab.reference_for(plan, 5, problem_a)
        ref_b = lab.reference_for(plan, 5, problem_b)
        assert ref_a == ref_b


class TestResolvePopSize:
    @pytest.mark.parametrize("rule, n, k, expected", [
        ("4*(n+1)", 10, None, 44),
        ("4*(n-2*k+3)", 10, 2, 36),
        ("1", 5, None, 1),
        (7, 5, None, 7),
        (" 4 * ( n + 1 ) ", 3, None, 16),
        ("n//2 - -1", 9, None, 5),
        ("(n - 1) * (k + 1) // 3", 20, 3, 25),
    ])
    def test_grammar_values(self, rule, n, k, expected):
        assert resolve_pop_size(rule, n, k) == expected

    def test_preset_rules_keep_their_values(self):
        formulas = {"4*(n+1)": lambda n, k: 4 * (n + 1),
                    "4*(n-2*k+3)": lambda n, k: 4 * (n - 2 * k + 3)}
        for plan in preset_plans().values():
            for variant in plan.variants:
                for n in plan.n_values:
                    expected = (variant.pop_size if isinstance(variant.pop_size, int)
                                else formulas[variant.pop_size](n, plan.k))
                    assert resolve_pop_size(variant.pop_size, n, plan.k) == expected

    def test_cells_evaluate_no_rule(self, monkeypatch):
        # the plan's check evaluates every rule at every size; cells reads the sizes it kept
        plan = preset_plans()["ojzj"]  # five sizes; two of the three variants have a rule string
        parsed, evaluated, policies = [], [], []
        parse, rule_value, policy = lab.ast.parse, lab._rule_value, lab.ReferencePointDistance
        monkeypatch.setattr(lab.ast, "parse",
                            lambda *args, **kwargs: parsed.append(args[0]) or parse(*args, **kwargs))
        monkeypatch.setattr(lab, "_rule_value",
                            lambda *args: evaluated.append(args[0]) or rule_value(*args))
        monkeypatch.setattr(lab, "ReferencePointDistance",
                            lambda reference: policies.append(reference) or policy(reference))
        plan_cells = list(lab.cells(plan))
        assert parsed == [] and evaluated == []
        # one reference-point policy per size, shared by its two refpoint variants
        assert len(policies) == len(plan.n_values)
        by_size = [plan_cells[i:i + 3] for i in range(0, len(plan_cells), 3)]
        assert all(rnsga2[4].policy is rnsga2_n1[4].policy for _, rnsga2, rnsga2_n1 in by_size)
        # in trials.csv order, labels nsga2, rnsga2, rnsga2-n1 at each size
        assert [(n, variant.label, config.pop_size) for n, _, variant, _, config in plan_cells] == [
            (n, label, 4 * (n - 2 * plan.k + 3) if label != "rnsga2-n1" else 1)
            for n in plan.n_values for label in ("nsga2", "rnsga2", "rnsga2-n1")]
        # it is building a plan that parses each rule string once and evaluates it at every size
        crowding_only = replace(plan, variants=plan.variants[:1])
        assert parsed == ["4*(n-2*k+3)"] and evaluated
        # and a plan with no refpoint variant builds no reference-point policy
        list(lab.cells(crowding_only))
        assert len(policies) == len(plan.n_values)

    @pytest.mark.parametrize("rule", [True, 4.0, None, ["n"]])
    def test_rejects_non_rule_values(self, rule):
        with pytest.raises(ValueError):
            resolve_pop_size(rule, 10)

    @pytest.mark.parametrize("rule", ["", "n//0", "0", "n-20", "(n+1", "4*(n+1)\nimport os",
                                      "99999999999999999999*0+4"])
    def test_rejects_malformed_or_non_positive_rules(self, rule):
        with pytest.raises(ValueError):
            resolve_pop_size(rule, 10)

    def test_rejects_deeply_nested_rules(self):
        for rule in ("-" * 100_000 + "1", "1+" * 100_000 + "1", "(" * 1000 + "1" + ")" * 1000):
            with pytest.raises(ValueError):
                resolve_pop_size(rule, 10)


def cell_sizes(plan):
    return [(n, variant_index, config.pop_size) for n, variant_index, _, _, config in lab.cells(plan)]


class TestKeptPopSizes:
    """A plan keeps the population size its check computed for each cell, outside its fields."""

    def test_the_sizes_are_not_a_field(self):
        assert [f.name for f in fields(ExperimentPlan)] == [
            "name", "problem", "n_values", "variants", "runs_per_cell", "master_seed",
            "max_evaluations", "k", "nk_k"]
        plan = tiny_plan()
        assert plan == tiny_plan() and hash(plan) == hash(tiny_plan())
        assert "_pop_sizes" not in repr(plan) and "_pop_sizes" not in asdict(plan)
        doc = json.loads(plan_json(plan))
        doc["_pop_sizes"] = [[28, 1], [36, 1]]
        with pytest.raises(ValueError, match="unknown ExperimentPlan keys"):
            plan_from_json(json.dumps(doc))

    def test_a_changed_plan_has_its_own_sizes(self):
        plan = tiny_plan()
        assert cell_sizes(plan) == [(6, 0, 28), (6, 1, 1), (8, 0, 36), (8, 1, 1)]
        assert cell_sizes(replace(plan, n_values=(10, 7))) == [
            (7, 0, 32), (7, 1, 1), (10, 0, 44), (10, 1, 1)]
        variants = (Variant("b", "refpoint", "n//2"), Variant("a", "crowding", 3))
        assert cell_sizes(replace(plan, variants=variants)) == [
            (6, 1, 3), (6, 0, 3), (8, 1, 3), (8, 0, 4)]
        assert cell_sizes(with_overrides(plan, runs=5, master_seed=3)) == cell_sizes(plan)

    def test_a_pickled_plan_gives_the_same_cells(self):
        for plan in (tiny_plan(), preset_plans()["ojzj"]):
            copy = pickle.loads(pickle.dumps(plan))
            assert copy == plan and list(lab.cells(copy)) == list(lab.cells(plan))

    def test_every_cell_takes_the_benchmarks_size(self, monkeypatch):
        # a size's reference point sets no population size; NK's would enumerate its front
        monkeypatch.setattr(lab, "reference_for", lambda plan, n, problem: (0.0, 0.0))
        for plan in preset_plans().values():
            for n, _, variant, _, config in lab.cells(plan):
                assert config.pop_size == resolve_pop_size(variant.pop_size, n, plan.k)


class TestSizeBounds:
    """Each size bound accepts its limit and rejects one step beyond it."""

    @pytest.mark.parametrize("fits, beyond", [
        ({"n_values": (50,), "variants": (Variant("a", "crowding", 20_000),)},
         {"n_values": (50,), "variants": (Variant("a", "crowding", 20_001),)}),
        # NK plans set a budget: refpoint at N=1 on NK needs one
        ({"problem": "nk", "n_values": (25,), "nk_k": 17, "max_evaluations": 100},
         {"problem": "nk", "n_values": (25,), "nk_k": 18, "max_evaluations": 100}),
        ({"problem": "nk", "n_values": (25,), "nk_k": 3, "max_evaluations": 100},
         {"problem": "nk", "n_values": (26,), "nk_k": 3, "max_evaluations": 100}),
        ({"runs_per_cell": 250_000}, {"runs_per_cell": 250_001}),
    ], ids=["population bits", "NK table", "NK enumeration", "trials"])
    def test_limit_accepted_and_beyond_rejected(self, fits, beyond):
        tiny_plan(**fits)
        with pytest.raises(ValueError):
            tiny_plan(**beyond)

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).parents[1] / "bench" / "plans").glob("*.json")),
        ids=lambda path: path.stem)
    def test_benchmark_plans_fit(self, path):
        lab.load_plan(path)


class TestNeverEndingCells:
    def test_crowding_at_one_needs_a_budget(self):
        # "n-5" resolves to 1 at n=6 only
        variants = (Variant("a", "crowding", "n-5"),)
        with pytest.raises(ValueError, match="max_evaluations"):
            tiny_plan(variants=variants)
        tiny_plan(variants=variants, max_evaluations=100)
        tiny_plan(variants=variants, n_values=(8,))
        tiny_plan(variants=(Variant("a", "refpoint", 1),))


class TestRunExperiment:
    def test_record_cardinality(self):
        cells = run_experiment(tiny_plan())
        assert [(cell.n, cell.variant) for cell in cells] == [
            (6, "nsga2"), (6, "rnsga2-n1"), (8, "nsga2"), (8, "rnsga2-n1")]
        for cell in cells:
            assert len(cell.seeds) == len(cell.evaluations) == len(cell.hits) == 3

    def test_a_cells_columns_are_tuples_in_trial_order(self):
        plan = tiny_plan()
        for (n, variant_index, variant, problem, config), cell in zip(
                lab.cells(plan), run_experiment(plan, parallelism=2)):
            assert (cell.problem, cell.n, cell.k, cell.variant, cell.policy, cell.pop_size) == (
                "omm", n, None, variant.label, variant.policy, config.pop_size)
            seeds = tuple(trial_seed(plan, n, variant_index, t) for t in range(3))
            results = [lab.run(problem, config, seed) for seed in seeds]
            assert cell.seeds == seeds
            assert cell.evaluations == tuple(r.evaluations_to_hit or r.evaluations
                                             for r in results)
            assert cell.hits == tuple(r.hit for r in results)
            for column, kind in ((cell.seeds, int), (cell.evaluations, int), (cell.hits, bool)):
                assert type(column) is tuple and {type(value) for value in column} == {kind}

    def test_omm_preset_covers_all_cells(self):
        plan = lab.with_overrides(preset_plans()["omm"], runs=1)
        cells = {(cell.n, cell.variant, cell.pop_size)
                 for cell in run_experiment(plan, parallelism=2)}
        expected = {(n, label, size)
                    for n in (10, 20, 30, 40, 50)
                    for label, size in (("nsga2", 4 * (n + 1)),
                                        ("rnsga2-n1", 1),
                                        ("rnsga2", 4 * (n + 1)))}
        assert cells == expected

    def test_parallelism_does_not_change_results(self):
        plan = tiny_plan()  # N > 1 and N = 1 cells: trials of very different lengths
        serial = run_experiment(plan, parallelism=1)
        for parallelism in (2, 3, lab.MAX_PARALLELISM):
            assert run_experiment(plan, parallelism=parallelism) == serial

    def test_pool_has_at_most_one_worker_per_job(self, monkeypatch):
        started = []

        def counting_start(*args):
            started.append(args)
            return start_helper(*args)

        start_helper = lab._start_helper
        monkeypatch.setattr(lab, "_start_helper", counting_start)
        plan = tiny_plan(runs_per_cell=1)  # 2 sizes x 2 variants: 4 trials
        serial = run_experiment(plan)
        assert started == []  # parallelism 1 runs every trial in the calling process
        assert run_experiment(plan, parallelism=lab.MAX_PARALLELISM) == serial
        assert len(started) == 3  # helpers beyond the trial count would find nothing to claim
        started.clear()
        assert run_experiment(plan, parallelism=2) == serial
        assert len(started) == 1
        started.clear()
        run_experiment(tiny_plan(n_values=(6,), variants=tiny_plan().variants[:1],
                                 runs_per_cell=1), parallelism=2)
        assert started == []  # a single trial runs without a helper
        with pytest.raises(ValueError, match="parallelism"):
            run_experiment(plan, parallelism=lab.MAX_PARALLELISM + 1)
        assert started == []

    def test_a_trial_seed_is_derived_when_its_trial_is_claimed(self, monkeypatch):
        derived = []

        def counting_seed(*args):
            derived.append(args)
            return trial_seed(*args)

        def first_run(problem, config, seed):
            raise RuntimeError("first trial")

        monkeypatch.setattr(lab, "trial_seed", counting_seed)
        monkeypatch.setattr(lab, "run", first_run)
        plan = tiny_plan(n_values=(6,), variants=tiny_plan().variants[:1],
                         runs_per_cell=lab.MAX_TRIALS)
        with pytest.raises(RuntimeError, match="^first trial$"):
            run_experiment(plan, 1)
        assert derived == [(plan, 6, 0, 0)]  # only the claimed trial's seed

    def test_raising_trial_in_the_calling_process_stops_the_helpers(self, monkeypatch):
        monkeypatch.setattr(lab, "build_problem", lambda plan, n: ParentRaisingOneMinMax(n))
        # the helpers alone would take 12 x 0.5 s / 2 = 3 s
        plan = tiny_plan(n_values=(6,), variants=tiny_plan().variants[:1], runs_per_cell=12)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="^raised in the calling process$"):
            run_experiment(plan, parallelism=3)
        assert time.perf_counter() - start < 1.5  # about one helper trial at most
        assert multiprocessing.active_children() == []

    def test_reproducible_bit_for_bit(self):
        first = summarize(run_experiment(tiny_plan()))
        second = summarize(run_experiment(tiny_plan()))
        assert first == second

    def test_different_master_seed_changes_trials(self):
        a = run_experiment(tiny_plan())
        b = run_experiment(tiny_plan(master_seed=12))
        assert [cell.seeds for cell in a] != [cell.seeds for cell in b]

    def test_seed_schedule_injective(self):
        plan = tiny_plan(runs_per_cell=20)
        seeds = [trial_seed(plan, n, vi, t)
                 for n in plan.n_values
                 for vi in range(len(plan.variants))
                 for t in range(plan.runs_per_cell)]
        assert len(seeds) == len(set(seeds))

    def test_capped_cell_records_misses(self):
        plan = tiny_plan(problem="ommstar", n_values=(10,), max_evaluations=60,
                         variants=(Variant("rnsga2", "refpoint", 4),),
                         runs_per_cell=5)
        cell, = run_experiment(plan)
        misses = [evals for evals, hit in zip(cell.evaluations, cell.hits) if not hit]
        assert misses, "tiny budget should produce at least one miss"
        for evaluations in misses:
            assert evaluations >= 60  # cap-truncated totals stay in the cell


class TestPlanChecks:
    """A plan checks itself when it is built, by any route, with these messages."""

    @pytest.mark.parametrize("changes, message", [
        ({"runs_per_cell": 0}, "runs_per_cell must be at least 1"),
        ({"variants": ()}, "plan needs at least one variant"),
        ({"variants": (Variant("a", "crowding", 4), Variant("a", "refpoint", 1))},
         "variant labels must be unique, got ['a', 'a']"),
        ({"problem": "ojzj", "n_values": (6,), "k": 2}, "k=2 is invalid for n=6"),
        ({"n_values": (6, 6)}, "problem sizes must be unique, got [6, 6]"),
        # with several faults, the first check reports
        ({"runs_per_cell": 0, "variants": (), "master_seed": "7"},
         "master_seed must be an integer, got '7'"),
        ({"n_values": (6, 10 ** 7), "variants": ()}, "plan needs at least one variant"),
        # two lone surrogates that JSON would read back as one character
        ({"name": "a\udb68\udd3e"},
         "the plan name and every variant label must be strings without surrogates"),
        ({"variants": (Variant("a\udb68", "crowding", 4),)},
         "the plan name and every variant label must be strings without surrogates"),
    ])
    def test_building_an_invalid_plan_raises(self, changes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tiny_plan(**changes)

    # past the interpreter's 4,300-digit limit repr raises its own ValueError,
    # so such an integer is quoted by its size
    @pytest.mark.parametrize("build, message", [
        (lambda: replace(preset_plans()["ojzj"], k=10 ** 5000),
         "k=<integer of 16610 bits> is invalid for n=10"),
        (lambda: replace(tiny_plan(), runs_per_cell=10 ** 5000),
         "the plan has <integer of 16612 bits> trials, above the limit of 1000000"),
        # 4,299 nines in JSON, times 12 cells: 4,301 digits
        (lambda: plan_from_json(json.dumps({
            "problem": "omm", "n_values": [6, 8, 10], "runs_per_cell": int("9" * 4299),
            "variants": [{"label": label, "policy": "crowding", "pop_size": 4}
                         for label in "abcd"]})),
         "the plan has <integer of 14285 bits> trials, above the limit of 1000000"),
        (lambda: resolve_pop_size(-10 ** 5000, 6),
         "population rule <negative integer of 16610 bits> gave "
         "<negative integer of 16610 bits> at n=6"),
        (lambda: replace(tiny_plan(), master_seed=[10 ** 5000]),
         "master_seed must be an integer, got <list too large to print>"),
    ], ids=["k", "runs_per_cell", "json runs_per_cell", "population", "in a list"])
    def test_integers_too_long_to_print_are_quoted_by_size(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_replace_and_overrides_check_again(self):
        plan = tiny_plan()
        with pytest.raises(ValueError, match=re.escape("problem sizes must lie in [1, 1000000]")):
            replace(plan, n_values=(10 ** 7,))
        with pytest.raises(ValueError, match="^runs_per_cell must be at least 1$"):
            with_overrides(plan, runs=0)
        # both overrides are checked together, so the first check in order reports
        with pytest.raises(ValueError, match="^master_seed must be an integer, got 1.5$"):
            with_overrides(plan, runs=0, master_seed=1.5)
        assert with_overrides(plan, runs=5, master_seed=3) == tiny_plan(runs_per_cell=5,
                                                                         master_seed=3)
        assert with_overrides(plan) == plan


class TestPlanJson:
    def test_round_trip(self, tmp_path):
        plan = tiny_plan()
        text = plan_json(plan)
        assert plan_from_json(text) == plan
        path = tmp_path / "plan.json"
        path.write_text(text, encoding="utf-8")
        assert lab.load_plan(path) == plan

    # sha256 of plan_json for each preset, recorded while the document was
    # built key by key
    @pytest.mark.parametrize("name, digest", [
        ("omm", "d9d10daf02b155251fb5bd6b6361014024d1e2504c88cccf3421902e9512c6a9"),
        ("ojzj", "537ff10e6fb3c9d20f15ccd93f171a30fd7ed159884f03f5719bec9963538223"),
        ("ommstar", "f26239f2630b7d91d190945718ec8b55ab8904d7bb591ae8e2ea6102bc1ee856"),
        ("nk", "a40e4a600908710be077936672d44485de0a7cf5d899472d82f3c13a41634182"),
    ])
    def test_preset_text_matches_pins(self, name, digest):
        text = plan_json(preset_plans()[name])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_rejects_invalid_document(self):
        with pytest.raises(ValueError):
            plan_from_json('{"problem": "omm", "n_values": [], "variants": '
                           '[{"label": "a", "policy": "crowding", "pop_size": 4}], '
                           '"runs_per_cell": 1}')

    @pytest.mark.parametrize("changes", [
        {"master_seed": "11"},
        {"n_values": [6, 8.0]},
        {"n_values": [6, True]},
        {"nk_k": [3]},
        {"variants": ["nsga2"]},
        {"variants": [{"label": 3, "policy": "crowding", "pop_size": 4}]},
        {"variants": [{"label": "a", "policy": "crowding", "pop_size": 4.5}]},
        {"max_evaluations": -1},
        {"name": json.loads("[" * 500 + "]" * 500)},
    ])
    def test_field_types_are_checked(self, changes):
        doc = json.loads(plan_json(tiny_plan()))
        doc.update(changes)
        with pytest.raises(ValueError):
            plan_from_json(json.dumps(doc))

    def test_values_nested_near_the_recursion_limit(self):
        # json.loads and the repr that quotes a value in a message recurse from
        # different stack depths: nesting that parses may be too deep to quote
        text = plan_json(tiny_plan())[:-1]
        limit = sys.getrecursionlimit()
        for depth in range(limit - 200, limit + 10):
            with pytest.raises(ValueError):
                plan_from_json(f'{text}, "master_seed": {"[" * depth}{"]" * depth}}}')

    @pytest.mark.parametrize("changes, key", [
        ({"max_evaluation": 100}, "max_evaluation"),
        ({"variants": [{"label": "a", "policy": "refpoint", "pop_size": 4, "pop": 4}]}, "pop"),
    ])
    def test_unknown_keys_are_named(self, changes, key):
        doc = json.loads(plan_json(tiny_plan()))
        doc.update(changes)
        with pytest.raises(ValueError, match=f"'{key}'"):
            plan_from_json(json.dumps(doc))


class TestCsvRoundTrip:
    def test_trials_and_summary_files(self, tmp_path):
        cells = run_experiment(tiny_plan())
        trials_path = tmp_path / "trials.csv"
        summary_path = tmp_path / "summary.csv"
        write_trials_csv(cells, trials_path)
        rows = summarize(cells)
        write_summary_csv(rows, summary_path)

        trial_lines = trials_path.read_text(encoding="utf-8").splitlines()
        assert trial_lines[0] == "problem,n,k,variant,policy,pop_size,seed,evaluations,hit"
        assert len(trial_lines) == 4 * 3 + 1  # 2 sizes x 2 variants x 3 runs
        assert ",," in trial_lines[1]  # k column empty for OneMinMax

        parsed = read_summary_csv(summary_path)
        assert parsed == rows

    def test_summary_reader_skips_empty_lines(self, tmp_path):
        rows = summarize(run_experiment(tiny_plan()))
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path)
        path.write_text(path.read_text(encoding="utf-8").replace("\n", "\n\n"),
                        encoding="utf-8")
        assert read_summary_csv(path) == rows

    def test_lf_line_endings(self, tmp_path):
        cells = run_experiment(tiny_plan(n_values=(6,), runs_per_cell=1))
        path = tmp_path / "trials.csv"
        write_trials_csv(cells, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
