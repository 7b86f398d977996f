"""Experiment plans, the seeded parallel runner, summaries, and statistics."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from emolab import lab
from emolab.lab import (
    ExperimentPlan,
    SummaryRow,
    TrialRecord,
    Variant,
    loglog_slope,
    plan_from_json,
    plan_to_json,
    preset_plans,
    rank_sum_test,
    read_summary_csv,
    resolve_pop_size,
    run_experiment,
    summarize,
    trial_seed,
    validate_plan,
    write_summary_csv,
    write_trials_csv,
)


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


class TestRankSumTest:
    def test_identical_samples_full_p(self):
        result = rank_sum_test([5.0] * 12, [5.0] * 12)
        assert result.p_value >= 0.99

    def test_clearly_shifted_samples(self):
        result = rank_sum_test(list(range(1, 21)), list(range(100, 120)))
        assert result.p_value < 1e-4
        assert result.direction == "a"

    def test_statistic_is_pair_count(self):
        result = rank_sum_test([1, 2], [3, 4])
        assert result.statistic == 0.0
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = list(rng.integers(0, 12, size=rng.integers(2, 15)))
            b = list(rng.integers(0, 12, size=rng.integers(2, 15)))
            assert rank_sum_test(a, b).statistic == brute_force_u(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a = list(rng.normal(size=10))
            b = list(rng.normal(loc=0.5, size=8))
            fwd = rank_sum_test(a, b)
            rev = rank_sum_test(b, a)
            assert fwd.p_value == pytest.approx(rev.p_value)
            assert {fwd.direction, rev.direction} in ({"a", "b"}, {"none"})

    def test_undersized_samples(self):
        with pytest.raises(ValueError):
            rank_sum_test([1.0], [2.0, 3.0])


class TestSummarize:
    def test_constant_records(self):
        records = [TrialRecord("omm", 10, None, "v", "crowding", 4, s, t, 100, True)
                   for t, s in enumerate(range(4))]
        row = summarize(records)[0]
        assert row.mean_evals == 100.0
        assert row.std_evals == 0.0
        assert row.success_rate == 1.0
        assert row.runs == 4

    def test_sample_standard_deviation(self):
        records = [TrialRecord("omm", 10, None, "v", "crowding", 4, s, t, e, True)
                   for t, (s, e) in enumerate([(1, 90), (2, 110)])]
        row = summarize(records)[0]
        assert row.mean_evals == 100.0
        assert row.std_evals == pytest.approx(math.sqrt(200))  # divisor n-1

    def test_success_rate_counts_hits(self):
        records = [TrialRecord("omm", 10, None, "v", "crowding", 4, s, t, 50, hit)
                   for t, (s, hit) in enumerate([(1, True), (2, True), (3, True), (4, False)])]
        assert summarize(records)[0].success_rate == 0.75

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestLoglogSlope:
    def test_exact_square_law(self):
        rows = [SummaryRow("omm", n, "v", float(n) ** 2, 0.0, 1.0, 5)
                for n in (10, 20, 30, 40, 50)]
        assert loglog_slope(rows, "v") == pytest.approx(2.0, abs=1e-9)

    def test_constant_means(self):
        rows = [SummaryRow("omm", n, "v", 42.0, 0.0, 1.0, 5) for n in (10, 20, 30)]
        assert loglog_slope(rows, "v") == pytest.approx(0.0, abs=1e-12)

    def test_n_log_n_growth(self):
        ns = (10, 20, 30, 40, 50)
        rows = [SummaryRow("omm", n, "v", n * math.log(n), 0.0, 1.0, 5) for n in ns]
        slope = loglog_slope(rows, "v")
        # independent fit of the same curve
        oracle = np.polyfit([math.log(n) for n in ns],
                            [math.log(n * math.log(n)) for n in ns], 1)[0]
        assert slope == pytest.approx(oracle, abs=1e-9)
        assert 1.2 <= slope <= 1.6

    def test_needs_three_sizes(self):
        rows = [SummaryRow("omm", n, "v", float(n), 0.0, 1.0, 5) for n in (10, 20)]
        with pytest.raises(ValueError):
            loglog_slope(rows, "v")


class TestPresets:
    def test_preset_names(self):
        plans = preset_plans()
        assert set(plans) == {"omm", "ojzj", "ommstar", "nk"}
        for plan in plans.values():
            validate_plan(plan)

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

    @pytest.mark.parametrize("rule", [True, 4.0, None, ["n"]])
    def test_rejects_non_rule_values(self, rule):
        with pytest.raises(ValueError):
            resolve_pop_size(rule, 10)

    @pytest.mark.parametrize("rule", ["", "n//0", "0", "n-20", "(n+1", "4*(n+1)\nimport os"])
    def test_rejects_malformed_or_non_positive_rules(self, rule):
        with pytest.raises(ValueError):
            resolve_pop_size(rule, 10)

    def test_rejects_deeply_nested_rules(self):
        for rule in ("-" * 100_000 + "1", "1+" * 100_000 + "1", "(" * 1000 + "1" + ")" * 1000):
            with pytest.raises(ValueError):
                resolve_pop_size(rule, 10)


class TestSizeBounds:
    """Each size bound accepts its limit and rejects one step beyond it."""

    @pytest.mark.parametrize("fits, beyond", [
        ({"n_values": (50,), "variants": (Variant("a", "crowding", 20_000),)},
         {"n_values": (50,), "variants": (Variant("a", "crowding", 20_001),)}),
        ({"problem": "nk", "n_values": (25,), "nk_k": 17},
         {"problem": "nk", "n_values": (25,), "nk_k": 18}),
        ({"problem": "nk", "n_values": (25,), "nk_k": 3},
         {"problem": "nk", "n_values": (26,), "nk_k": 3}),
        ({"runs_per_cell": 250_000}, {"runs_per_cell": 250_001}),
    ], ids=["population bits", "NK table", "NK enumeration", "trials"])
    def test_limit_accepted_and_beyond_rejected(self, fits, beyond):
        validate_plan(tiny_plan(**fits))
        with pytest.raises(ValueError):
            validate_plan(tiny_plan(**beyond))

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).parents[1] / "bench" / "plans").glob("*.json")),
        ids=lambda path: path.stem)
    def test_benchmark_plans_fit(self, path):
        lab.load_plan(path)


class TestRunExperiment:
    def test_record_cardinality(self):
        records = run_experiment(tiny_plan())
        assert len(records) == 3 * 2 * 2
        for n in (6, 8):
            for label in ("nsga2", "rnsga2-n1"):
                cell = [r for r in records if r.n == n and r.variant == label]
                assert len(cell) == 3

    def test_omm_preset_covers_all_cells(self):
        plan = lab.with_overrides(preset_plans()["omm"], runs=1)
        records = run_experiment(plan, parallelism=2)
        cells = {(r.n, r.variant, r.pop_size) for r in records}
        expected = {(n, label, size)
                    for n in (10, 20, 30, 40, 50)
                    for label, size in (("nsga2", 4 * (n + 1)),
                                        ("rnsga2-n1", 1),
                                        ("rnsga2", 4 * (n + 1)))}
        assert cells == expected

    def test_parallelism_does_not_change_results(self):
        serial = run_experiment(tiny_plan(), parallelism=1)
        parallel = run_experiment(tiny_plan(), parallelism=2)
        assert serial == parallel

    def test_reproducible_bit_for_bit(self):
        first = summarize(run_experiment(tiny_plan()))
        second = summarize(run_experiment(tiny_plan()))
        assert first == second

    def test_different_master_seed_changes_trials(self):
        a = run_experiment(tiny_plan())
        b = run_experiment(tiny_plan(master_seed=12))
        assert [r.seed for r in a] != [r.seed for r in b]

    def test_seed_schedule_injective(self):
        plan = tiny_plan(runs_per_cell=20)
        seeds = [trial_seed(plan, n, vi, t)
                 for n in plan.n_values
                 for vi in range(len(plan.variants))
                 for t in range(plan.runs_per_cell)]
        assert len(seeds) == len(set(seeds))

    def test_invalid_plans_rejected_before_running(self):
        with pytest.raises(ValueError):
            run_experiment(tiny_plan(runs_per_cell=0))
        with pytest.raises(ValueError):
            run_experiment(tiny_plan(variants=()))
        with pytest.raises(ValueError):
            run_experiment(tiny_plan(
                variants=(Variant("a", "crowding", 4), Variant("a", "refpoint", 1))))
        with pytest.raises(ValueError):
            run_experiment(tiny_plan(problem="ojzj", n_values=(6,), k=2))

    def test_capped_cell_records_misses(self):
        plan = tiny_plan(problem="ommstar", n_values=(10,), max_evaluations=60,
                         variants=(Variant("rnsga2", "refpoint", 4),),
                         runs_per_cell=5)
        records = run_experiment(plan)
        misses = [r for r in records if not r.hit]
        assert misses, "tiny budget should produce at least one miss"
        for r in misses:
            assert r.evaluations >= 60  # cap-truncated totals stay in the record


class TestPlanJson:
    def test_round_trip(self, tmp_path):
        plan = tiny_plan()
        text = plan_to_json(plan)
        assert plan_from_json(text) == plan
        path = tmp_path / "plan.json"
        path.write_text(text, encoding="utf-8")
        assert lab.load_plan(path) == plan

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
    ])
    def test_field_types_are_checked(self, changes):
        doc = json.loads(plan_to_json(tiny_plan()))
        doc.update(changes)
        with pytest.raises(ValueError):
            plan_from_json(json.dumps(doc))


class TestCsvRoundTrip:
    def test_trials_and_summary_files(self, tmp_path):
        records = run_experiment(tiny_plan())
        trials_path = tmp_path / "trials.csv"
        summary_path = tmp_path / "summary.csv"
        write_trials_csv(records, trials_path)
        rows = summarize(records)
        write_summary_csv(rows, summary_path)

        trial_lines = trials_path.read_text(encoding="utf-8").splitlines()
        assert trial_lines[0] == "problem,n,k,variant,policy,pop_size,seed,evaluations,hit"
        assert len(trial_lines) == len(records) + 1
        assert ",," in trial_lines[1]  # k column empty for OneMinMax

        parsed = read_summary_csv(summary_path)
        assert parsed == rows

    def test_lf_line_endings(self, tmp_path):
        records = run_experiment(tiny_plan(n_values=(6,), runs_per_cell=1))
        path = tmp_path / "trials.csv"
        write_trials_csv(records, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
