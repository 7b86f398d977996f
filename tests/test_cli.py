"""CLI behaviour: exit codes, printed configuration, CSV and SVG outputs."""

import hashlib
import json

import pytest

from emolab import lab
from emolab.cli import main
from emolab.lab import ExperimentPlan, SummaryRow, Variant, write_summary_csv
from emolab.problems import enumerate_pareto_front


def tiny_plan_file(tmp_path, **overrides):
    base = dict(
        name="tiny",
        problem="omm",
        n_values=(6,),
        variants=(Variant("nsga2", "crowding", "4*(n+1)"),
                  Variant("rnsga2-n1", "refpoint", 1),
                  Variant("rnsga2", "refpoint", "4*(n+1)")),
        runs_per_cell=4,
        master_seed=7,
    )
    base.update(overrides)
    plan = ExperimentPlan(**base)
    path = tmp_path / "plan.json"
    path.write_text(lab.plan_to_json(plan), encoding="utf-8")
    return path


class TestSweep:
    def test_writes_trials_and_summary(self, tmp_path, capsys):
        plan_path = tiny_plan_file(tmp_path)
        out = tmp_path / "results"
        rc = main(["sweep", "--plan", str(plan_path), "--out", str(out),
                   "--parallelism", "1"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "master_seed=7" in printed  # resolved config shown before work
        trials = (out / "trials.csv").read_text(encoding="utf-8").splitlines()
        assert len(trials) == 1 + 4 * 3  # header + runs * variants
        assert (out / "summary.csv").exists()

    def test_seed_override_reproduces_byte_identical_output(self, tmp_path):
        plan_path = tiny_plan_file(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--plan", str(plan_path), "--out", str(out_a),
                     "--seed", "7", "--parallelism", "1"]) == 0
        assert main(["sweep", "--plan", str(plan_path), "--out", str(out_b),
                     "--seed", "7", "--parallelism", "2"]) == 0
        assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_runs_override(self, tmp_path):
        plan_path = tiny_plan_file(tmp_path)
        out = tmp_path / "results"
        assert main(["sweep", "--plan", str(plan_path), "--out", str(out),
                     "--runs", "2", "--parallelism", "1"]) == 0
        trials = (out / "trials.csv").read_text(encoding="utf-8").splitlines()
        assert len(trials) == 1 + 2 * 3

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        rc = main(["sweep", "--plan", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "cannot load plan" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch, capsys):
        plan_path = tiny_plan_file(tmp_path)
        monkeypatch.setenv("EMO_LAB_SEED", "123")
        rc = main(["sweep", "--plan", str(plan_path), "--out", str(tmp_path / "r"),
                   "--parallelism", "1"])
        assert rc == 0
        assert "master_seed=123" in capsys.readouterr().out


# sha256 of trials.csv and summary.csv from `sweep --runs 2 --seed 7 --parallelism 2`,
# recorded before `run` and `oracle` were routed through lab
SWEEP_PINS = {
    "omm": ("f734108f25bedd6e5f3b97f4c2c18734bb67593622c3272d192896184fb3b761",
            "43d0b15667620ad8c58110e1d1fd3517746cb943b5742f408fd7944a648a3e4a"),
    "ojzj": ("aee25e4ef9bc294a9455adbcef77df5c7e3ce3ad126190c868b39bf697d8e398",
             "4b668820a93c30aba83e63e11b8b9ca5052124064868379d57c81ced2dde8bcd"),
    "ommstar": ("cf7b6d383e2c602469aa59b95d7e8059baeae30788f9265075f313d7a6726e63",
                "cdf6d342312ef415b36de59de3f4c5b69055c4a87689b48a47f9f35a6710469f"),
    "nk": ("49999114580b8ea2e035f986f8f797f870eaf4aacb6be30bd60be906227f11e5",
           "76f093857768d876faddf483670fb78efbfb5a8055d1757bfd29c4de75f4492c"),
}
NK_PIN_PLAN = ExperimentPlan(
    name="nk-pin", problem="nk", n_values=(5, 10), nk_k=3,
    variants=(Variant("nsga2", "crowding", 100), Variant("rnsga2", "refpoint", 100)),
    runs_per_cell=2, max_evaluations=20_000,
)


@pytest.mark.parametrize("preset", sorted(SWEEP_PINS))
def test_sweep_outputs_match_pins(tmp_path, preset):
    if preset == "nk":
        plan_path = tmp_path / "nk.json"
        plan_path.write_text(lab.plan_to_json(NK_PIN_PLAN), encoding="utf-8")
        source = ["--plan", str(plan_path)]
    else:
        source = ["--preset", preset]
    out = tmp_path / "results"
    assert main(["sweep", *source, "--runs", "2", "--seed", "7", "--parallelism", "2",
                 "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("trials.csv", "summary.csv"))
    assert digests == SWEEP_PINS[preset]


def _plan_doc(**changes):
    doc = json.loads(lab.plan_to_json(ExperimentPlan(
        name="tiny", problem="omm", n_values=(6,),
        variants=(Variant("nsga2", "crowding", "4*(n+1)"),),
        runs_per_cell=2, master_seed=7)))
    doc.update(changes)
    return doc


MALFORMED_PLANS = {
    "n_values is a number": _plan_doc(n_values=5),
    "top-level array": [_plan_doc()],
    "runs_per_cell is a string": _plan_doc(runs_per_cell="2"),
    "k is a string": _plan_doc(problem="ojzj", n_values=[8], k="2"),
    "max_evaluations is a string": _plan_doc(max_evaluations="10"),
    "max_evaluations is 0": _plan_doc(max_evaluations=0),
}

# outside the population-rule grammar: attribute access, calls, **, unknown
# names, float literals and true division
BAD_RULES = ["().__class__.__mro__.__len__()", "n.bit_length()", "n.real", "abs(n)",
             "9**9**9", "n**2", "m+1", "k+1", "__import__", "4.0*n", "1e3", "n/2"]


@pytest.mark.parametrize("case", [*MALFORMED_PLANS, "parallelism 0"])
def test_malformed_sweep_input_is_usage_error(tmp_path, capsys, case):
    if case == "parallelism 0":
        argv = ["sweep", "--preset", "omm", "--parallelism", "0"]
    else:
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(MALFORMED_PLANS[case]), encoding="utf-8")
        argv = ["sweep", "--plan", str(plan_path)]
    out = tmp_path / "results"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""  # rejected before the config line and any work
    assert not out.exists()


@pytest.mark.parametrize("rule", BAD_RULES)
def test_population_rule_outside_grammar_is_rejected(tmp_path, capsys, rule):
    with pytest.raises(ValueError):
        lab.resolve_pop_size(rule, 5)
    assert main(["run", "--problem", "omm", "--n", "5", "--algo", "nsga2",
                 "--pop", rule]) == 2
    plan_path = tiny_plan_file(tmp_path, variants=(Variant("bad", "crowding", rule),))
    assert main(["sweep", "--plan", str(plan_path), "--out", str(tmp_path / "r")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 2 and all(line.startswith("error: ") for line in errors)


class TestOracle:
    def test_oneminmax_front(self, capsys):
        assert main(["oracle", "--problem", "omm", "--n", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        vectors = [line for line in lines if line and line[0] in "-0123456789"]
        assert len(vectors) == 5
        assert lines[-1] == "size 5"

    def test_ojzj_front(self, capsys):
        assert main(["oracle", "--problem", "ojzj", "--n", "8", "--k", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        vectors = [line for line in lines if line and line[0] in "-0123456789"]
        assert len(vectors) == 7

    def test_ommstar_includes_relocated_point(self, capsys):
        assert main(["oracle", "--problem", "ommstar", "--n", "4"]) == 0
        assert "-4 8" in capsys.readouterr().out.splitlines()

    def test_oracle_sorted_lexicographically(self, capsys):
        assert main(["oracle", "--problem", "omm", "--n", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        vectors = [tuple(float(v) for v in line.split())
                   for line in lines if line and line[0] in "-0123456789"]
        assert vectors == sorted(vectors)

    def test_nk_guard_violation(self, capsys):
        rc = main(["oracle", "--problem", "nk", "--n", "26"])
        assert rc == 2

    def test_invalid_k(self, capsys):
        rc = main(["oracle", "--problem", "ojzj", "--n", "8", "--k", "3"])
        assert rc == 2


class TestRun:
    def test_single_run_prints_result(self, capsys):
        rc = main(["run", "--problem", "omm", "--n", "8", "--algo", "rnsga2",
                   "--pop", "1", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed=5" in out
        assert "hit=true" in out

    def test_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rc = main(["run", "--problem", "omm", "--n", "6", "--algo", "nsga2",
                   "--seed", "3", "--trace", str(trace)])
        assert rc == 0
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "generation,min_distance,front_points"
        assert len(lines) >= 2

    def test_cap_miss_reported(self, capsys):
        rc = main(["run", "--problem", "ommstar", "--n", "12", "--algo", "rnsga2",
                   "--cap", "200", "--seed", "5"])
        assert rc == 0
        assert "hit=false" in capsys.readouterr().out


class TestNkCell:
    """`run` and `oracle` build NK instances and reference points through lab."""

    def cell(self, n, seed):
        return ExperimentPlan(name="cell", problem="nk", n_values=(n,), variants=(),
                              runs_per_cell=1, master_seed=seed, nk_k=3)

    def test_run_reference_is_the_lab_reference(self, capsys):
        assert main(["run", "--problem", "nk", "--n", "12", "--seed", "7",
                     "--algo", "rnsga2", "--cap", "500"]) == 0
        plan = self.cell(12, 7)
        reference = lab.reference_for(plan, 12, lab.build_problem(plan, 12))
        lines = capsys.readouterr().out.splitlines()
        assert f"reference={tuple(round(v, 6) for v in reference)}" in lines[0]
        # the output recorded before run was routed through lab
        assert lines == [
            "run problem=nk n=12 k=2 algo=rnsga2 pop_size=52 rate=1/12 cap=500 seed=7 "
            "reference=(0.719758, 0.611944)",
            "hit=true evaluations_to_hit=305 evaluations=312 generations=5 seed=7",
        ]

    def test_oracle_prints_the_lab_front(self, capsys):
        assert main(["oracle", "--problem", "nk", "--n", "10", "--seed", "7"]) == 0
        front = enumerate_pareto_front(lab.build_problem(self.cell(10, 7), 10))
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:-1] == [" ".join(f"{v:g}" for v in point)
                               for point in front.sorted_points()]
        assert lines[-1] == f"size {len(front)}" == "size 5"


class TestPlot:
    def write_summary(self, tmp_path, variants=3, sizes=(10, 20, 30, 40, 50),
                      mean=lambda n, v: 100.0 * n + v):
        rows = [SummaryRow("omm", n, f"v{v}", mean(n, v), 1.0, 1.0, 5)
                for v in range(variants) for n in sizes]
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path)
        return path

    def test_structural_counts(self, tmp_path):
        summary = self.write_summary(tmp_path)
        out = tmp_path / "chart.svg"
        assert main(["plot", "--summary", str(summary), "--out", str(out)]) == 0
        svg = out.read_text(encoding="utf-8")
        assert svg.count("<polyline") == 3
        assert svg.count("<circle") == 15

    def test_empty_summary_is_usage_error(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("problem,n,variant,mean_evals,std_evals,success_rate,runs\n",
                        encoding="utf-8")
        rc = main(["plot", "--summary", str(path), "--out", str(tmp_path / "c.svg")])
        assert rc == 2

    def test_log_y_rejects_zero_mean(self, tmp_path, capsys):
        summary = self.write_summary(tmp_path, variants=1, sizes=(10, 20),
                                     mean=lambda n, v: 0.0 if n == 10 else 5.0)
        rc = main(["plot", "--summary", str(summary), "--out",
                   str(tmp_path / "c.svg"), "--log-y"])
        assert rc == 2
        assert "positive" in capsys.readouterr().err

    def test_log_y_accepts_positive_means(self, tmp_path):
        summary = self.write_summary(tmp_path)
        out = tmp_path / "chart.svg"
        assert main(["plot", "--summary", str(summary), "--out", str(out),
                     "--log-y"]) == 0
        assert out.exists()

    def test_malformed_csv_is_usage_error(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("nope,really\n1,2\n", encoding="utf-8")
        rc = main(["plot", "--summary", str(path), "--out", str(tmp_path / "c.svg")])
        assert rc == 2
