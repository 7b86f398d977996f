"""CLI behaviour: exit codes, printed configuration, CSV and SVG outputs."""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

from emolab import cli, lab, problems
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


# sha256 of `oracle` stdout and of the `run --trace` CSV, recorded while fronts
# were still wrapped in a ParetoFront type; the omm, ommstar and nk oracle pins
# were re-recorded when their config line began to print k=None, with the
# lines after it unchanged
ORACLE_PINS = {
    "omm": (["--n", "10"],
            "08b41aada5664cabc0188f55e7fbdc51d2273d210567c230137eb26998e415dc"),
    "ojzj": (["--n", "12", "--k", "2"],
             "2b482ba4f40f12c349efd7018f7ee5893efff714e06df83025c76845327746fa"),
    "ommstar": (["--n", "10"],
                "8fae18ae781880a4666ec7eb898613b7eb8936925665a6f600d83da8af762b16"),
    "nk": (["--n", "12", "--seed", "7"],
           "349d5c2361aecb34ed42c76b6db1bd28bde5bf76f18101767cf7a9fb4c3a41eb"),
}
TRACE_PINS = {
    "omm": (["--n", "12", "--algo", "nsga2"],
            "7f8089edd4d0f0e6b181e5a226e6e7fe08daad21ed1d43a75791ba03e7525186"),
    "ojzj": (["--n", "12", "--k", "2", "--algo", "rnsga2"],
             "63a70f143ed4a4a01f4e0b6d719481607b6f1e43b0e6c1984a2b73d343da9b60"),
    "ommstar": (["--n", "12", "--algo", "nsga2", "--cap", "2000"],
                "80ede25a2321f612140fcdedd092f6f0ce8c6f9ecf79e2baf536da76b640b72b"),
    "nk": (["--n", "12", "--algo", "rnsga2", "--cap", "2000"],
           "f4f0da910f5870dc78ca5f59caae28addbc191aea5168add72a1080def2d02af"),
}


# NK n=18 enumerates four blocks of 2^16, where ORACLE_PINS["nk"] is one;
# recorded while every block was still evaluated through evaluator()
NK_MULTI_BLOCK_ORACLE_PIN = (["--n", "18", "--seed", "7"],
                             "5f8444f5b07a0f4f3517d425eee677f8ccbb3ac732bf0e6ed98bb637a56abc05")


@pytest.mark.parametrize("problem", sorted(ORACLE_PINS))
def test_oracle_output_matches_pins(capsys, problem):
    flags, digest = ORACLE_PINS[problem]
    assert main(["oracle", "--problem", problem, *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_multi_block_nk_oracle_matches_pin(capsys):
    flags, digest = NK_MULTI_BLOCK_ORACLE_PIN
    assert main(["oracle", "--problem", "nk", *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def package_env():
    """The environment for a child Python that imports this emolab, with no EMO_LAB_SEED."""
    env = {key: value for key, value in os.environ.items() if key != "EMO_LAB_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    return env


@pytest.mark.parametrize("module", ["emolab", "emolab.cli"])
def test_module_forms_print_the_pinned_oracle(module):
    flags, digest = ORACLE_PINS["omm"]
    result = subprocess.run([sys.executable, "-m", module, "oracle", "--problem", "omm", *flags],
                            capture_output=True, env=package_env(), timeout=60, check=False)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == digest


@pytest.mark.parametrize("problem", sorted(TRACE_PINS))
def test_run_trace_matches_pins(tmp_path, problem):
    flags, digest = TRACE_PINS[problem]
    trace = tmp_path / "trace.csv"
    assert main(["run", "--problem", problem, *flags, "--seed", "3",
                 "--trace", str(trace)]) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest


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
    "nk size above the enumeration limit": _plan_doc(problem="nk", nk_k=3, n_values=[30]),
    "population bits above the bound": _plan_doc(
        n_values=[50], variants=[{"label": "big", "policy": "crowding", "pop_size": "n*n*n"}]),
    "NK table above the bound": _plan_doc(problem="nk", nk_k=24, n_values=[25]),
    "trial count above the bound": _plan_doc(runs_per_cell=10 ** 12),
    "duplicate sizes": _plan_doc(n_values=[6, 6]),
    "unknown top-level key": _plan_doc(max_evaluation=100),
    "unknown variant key": _plan_doc(
        variants=[{"label": "a", "policy": "crowding", "pop_size": 4, "pop": 4}]),
    # never ends on OneMinMax
    "crowding at N=1 without a budget": _plan_doc(
        variants=[{"label": "n1", "policy": "crowding", "pop_size": 1}]),
    # the paper bounds refpoint at N=1 only on OneMinMax and OneJumpZeroJump
    "refpoint at N=1 on ommstar without a budget": _plan_doc(
        problem="ommstar", variants=[{"label": "n1", "policy": "refpoint", "pop_size": 1}]),
    "refpoint at N=1 on nk without a budget": _plan_doc(
        problem="nk", nk_k=3, variants=[{"label": "n1", "policy": "refpoint", "pop_size": 1}]),
    "missing n_values": {key: value for key, value in _plan_doc().items()
                         if key != "n_values"},
    "unknown problem family": _plan_doc(problem="zdt1"),
    "unknown policy": _plan_doc(
        variants=[{"label": "a", "policy": "greedy", "pop_size": 4}]),
    "ojzj without k": _plan_doc(problem="ojzj", n_values=[8]),
    "nk without nk_k": _plan_doc(problem="nk"),
    # k and nk_k belong to one family each: elsewhere they would fill the k column or be ignored
    "k on omm": _plan_doc(k=3, variants=[{"label": "a", "policy": "crowding",
                                          "pop_size": "4*(n+k)"}]),
    "nk_k on ojzj": _plan_doc(problem="ojzj", n_values=[8], k=2, nk_k=2),
    "nk_k not below n": _plan_doc(problem="nk", nk_k=6),
    "size 0": _plan_doc(n_values=[0]),
    # raw text: nested past the JSON parser's recursion limit
    "nested too deeply": "[" * 200_000 + "]" * 200_000,
}

# outside the population-rule grammar: attribute access, calls, **, unknown
# names, float literals and true division
BAD_RULES = ["().__class__.__mro__.__len__()", "n.bit_length()", "n.real", "abs(n)",
             "9**9**9", "n**2", "m+1", "k+1", "__import__", "4.0*n", "1e3", "n/2"]


@pytest.mark.parametrize("case", [*MALFORMED_PLANS, "parallelism 0",
                                  "parallelism above the bound"])
def test_malformed_sweep_input_is_usage_error(tmp_path, capsys, monkeypatch, case):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was created")

    monkeypatch.setattr(lab, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(lab, "run", no_pool)
    if case == "parallelism 0":
        argv = ["sweep", "--preset", "omm", "--parallelism", "0"]
    elif case == "parallelism above the bound":
        argv = ["sweep", "--preset", "omm", "--parallelism", str(lab.MAX_PARALLELISM + 1)]
    else:
        doc = MALFORMED_PLANS[case]
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        argv = ["sweep", "--plan", str(plan_path)]
    out = tmp_path / "results"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""  # rejected before the config line and any work
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "run", "oracle"])
def test_non_integer_env_seed_is_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("EMO_LAB_SEED", "abc")
    out = tmp_path / "results"
    argv = {"sweep": ["sweep", "--preset", "omm", "--out", str(out)],
            "run": ["run", "--problem", "omm", "--n", "3", "--algo", "nsga2"],
            "oracle": ["oracle", "--problem", "omm", "--n", "3"]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "EMO_LAB_SEED" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--problem", "omm", "--n", "50", "--pop", "20001"],
    ["--problem", "omm", "--n", "1000000000", "--pop", "1"],
    ["--problem", "nk", "--n", "1000000000"],
    # the run seed seeds the stream directly, so it cannot be negative
    ["--problem", "omm", "--n", "10", "--seed", "-1"],
])
def test_oversized_run_is_usage_error(capsys, flags):
    assert main(["run", *flags, "--algo", "nsga2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# runs that may never end: crowding at N=1 and any explicit mutation rate on
# OneMinMax (at 1e-300 no bit flips; at 1 an N=1 run cycles between complements),
# and refpoint at N=1 on OneMinMax* and NK
@pytest.mark.parametrize("flags", [
    ["--problem", "omm", "--n", "50", "--algo", "nsga2", "--pop", "1"],
    ["--problem", "omm", "--n", "50", "--algo", "rnsga2", "--rate", "0"],
    ["--problem", "omm", "--n", "50", "--algo", "nsga2", "--rate", "0"],
    ["--problem", "omm", "--n", "10", "--algo", "rnsga2", "--pop", "1", "--rate", "1e-300"],
    ["--problem", "omm", "--n", "10", "--algo", "rnsga2", "--pop", "1", "--rate", "1"],
    ["--problem", "ommstar", "--n", "30", "--algo", "rnsga2", "--pop", "1"],
    ["--problem", "nk", "--n", "20", "--algo", "rnsga2", "--pop", "1"],
])
def test_unbounded_run_without_cap_is_usage_error(capsys, monkeypatch, flags):
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run", refuse)
    assert main(["run", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# oracle is bounded like `run --algo rnsga2 --pop 1`: n <= MAX_POPULATION_BITS, NK n <= 25
@pytest.mark.parametrize("flags", [
    ["--problem", "omm", "--n", str(lab.MAX_POPULATION_BITS + 1)],
    ["--problem", "ommstar", "--n", "1000000000"],
    ["--problem", "ojzj", "--n", "1000000000", "--k", "2"],
    ["--problem", "nk", "--n", "1000000000"],
])
def test_oversized_oracle_is_usage_error(capsys, flags):
    assert main(["oracle", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# --k follows the plan rule: required on ojzj and rejected on every other problem
@pytest.mark.parametrize("argv", [
    ["oracle", "--problem", "omm", "--n", "3", "--k", "9"],
    ["run", "--problem", "nk", "--n", "12", "--algo", "rnsga2", "--cap", "500", "--k", "3"],
    ["oracle", "--problem", "ojzj", "--n", "8"],
    ["run", "--problem", "ojzj", "--n", "8", "--algo", "rnsga2"],
], ids=["oracle k on omm", "run k on nk", "oracle ojzj without k", "run ojzj without k"])
def test_k_outside_the_plan_rule_is_usage_error(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: k must be set on ojzj")


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


# every output path sits under a regular file, so it can never be created
@pytest.mark.parametrize("command", ["sweep", "run", "plot"])
def test_unwritable_output_is_io_error(tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the output was checked")

    monkeypatch.setattr(lab, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(lab, "run", refuse)
    monkeypatch.setattr(cli, "run", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    target = str(blocker / "out")
    summary = tmp_path / "summary.csv"
    write_summary_csv([SummaryRow("omm", 10, "a", 100.0, 1.0, 1.0, 5)], summary)
    argv = {"sweep": ["sweep", "--preset", "omm", "--runs", "30", "--parallelism", "2",
                      "--out", target],
            "run": ["run", "--problem", "nk", "--n", "12", "--algo", "rnsga2", "--cap", "500",
                    "--seed", "3", "--trace", target],
            "plot": ["plot", "--summary", str(summary), "--out", target]}[command]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write ")
    if command != "plot":  # sweep and run check their output before the config line
        assert captured.out == ""
    assert blocker.read_text(encoding="utf-8") == ""


# a sweep opens both result files before its first trial, so a bad path loses no work
@pytest.mark.parametrize("name", ["trials.csv", "summary.csv"])
def test_unwritable_result_file_fails_before_the_sweep(tmp_path, capsys, monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep started before its result files were checked")

    monkeypatch.setattr(lab, "run_experiment", refuse)
    out = tmp_path / "results"
    (out / name).mkdir(parents=True)
    assert main(["sweep", "--preset", "omm", "--runs", "10", "--parallelism", "2",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write results")


# the check that the results can be written leaves nothing behind, so a sweep
# stopped before its end writes no empty CSV for `plot` to trip on
def test_stopped_sweep_leaves_no_result_files(tmp_path, capsys, monkeypatch):
    def stop(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(lab, "run_experiment", stop)
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    kept.mkdir()
    (kept / "trials.csv").write_text("earlier\n", encoding="utf-8")
    for out in (fresh, kept):
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--preset", "omm", "--runs", "2", "--parallelism", "1",
                  "--out", str(out)])
    assert list(fresh.iterdir()) == []
    assert [path.name for path in kept.iterdir()] == ["trials.csv"]
    assert (kept / "trials.csv").read_text(encoding="utf-8") == "earlier\n"


class RaisingOneMinMax(problems.OneMinMax):
    """OneMinMax whose evaluator raises, as a trial with a bug would."""

    def evaluator(self):
        raise RuntimeError("injected trial fault")


class DyingOneMinMax(problems.OneMinMax):
    """OneMinMax whose evaluator ends its pool worker, as an OOM kill would."""

    def evaluator(self):
        if multiprocessing.parent_process() is None:  # never end the test process itself
            raise RuntimeError("expected to run in a pool worker")
        os._exit(9)


# a trial that raises, or a pool worker that dies, ends the sweep with one
# error line and exit 3, not a traceback, and leaves no result file behind
@pytest.mark.parametrize("faulty", [RaisingOneMinMax, DyingOneMinMax])
def test_failed_trial_exits_3_without_results(tmp_path, capsys, monkeypatch, faulty):
    build_problem = lab.build_problem
    monkeypatch.setattr(lab, "build_problem",
                        lambda plan, n: faulty(n) if n == 8 else build_problem(plan, n))
    pools = []

    class CountingPool(lab.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(lab, "ProcessPoolExecutor", CountingPool)
    # at parallelism 2 each cell is eight one-trial chunks: n=6's run, n=8's fail
    plan_path = tiny_plan_file(tmp_path, n_values=(6, 8), runs_per_cell=8,
                               variants=(Variant("nsga2", "crowding", "4*(n+1)"),))
    out = tmp_path / "fresh"
    assert main(["sweep", "--plan", str(plan_path), "--out", str(out),
                 "--parallelism", "2"]) == 3
    assert pools == [2]
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: sweep stopped, no results written")
    assert list(out.iterdir()) == []


def test_closed_stdout_exits_3_without_traceback(tmp_path):
    # about 1.3 MB of front, far more than a pipe holds, so printing must meet the closed pipe
    with open(tmp_path / "stderr", "w+b") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "emolab", "oracle", "--problem", "omm", "--n", "100000"],
            stdout=subprocess.PIPE, stderr=stderr, env=package_env())
        try:
            assert process.stdout.readline().startswith(b"oracle problem=omm")
            process.stdout.close()
            assert process.wait(timeout=60) == 3
        finally:
            process.kill()
            process.wait()
        stderr.seek(0)
        assert b"Traceback" not in stderr.read()


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
        # the output recorded before run was routed through lab, but for k=None:
        # --k belongs to ojzj alone
        assert lines == [
            "run problem=nk n=12 k=None algo=rnsga2 pop_size=52 rate=1/12 cap=500 seed=7 "
            "reference=(0.719758, 0.611944)",
            "hit=true evaluations_to_hit=305 evaluations=312 generations=5 seed=7",
        ]

    def test_run_trace_enumerates_the_front_once(self, tmp_path, monkeypatch):
        calls = []
        enumerate_front = problems.enumerate_pareto_front
        monkeypatch.setattr(problems, "enumerate_pareto_front",
                            lambda problem: calls.append(problem.n) or enumerate_front(problem))
        assert main(["run", "--problem", "nk", "--n", "12", "--algo", "rnsga2", "--seed", "3",
                     "--cap", "500", "--trace", str(tmp_path / "trace.csv")]) == 0
        assert calls == [12]  # the reference point and the trace share one enumeration

    def test_oracle_prints_the_lab_front(self, capsys):
        assert main(["oracle", "--problem", "nk", "--n", "10", "--seed", "7"]) == 0
        front = enumerate_pareto_front(lab.build_problem(self.cell(10, 7), 10))
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:-1] == [" ".join(f"{v:g}" for v in point)
                               for point in sorted(front)]
        assert lines[-1] == f"size {len(front)}" == "size 5"


SVG_TEXT = "{http://www.w3.org/2000/svg}text"


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

    def test_header_must_match_exactly(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        path.write_text("problem, n,variant,mean_evals,std_evals,success_rate,runs\n"
                        "omm,10,v0,100.0,1.0,1.0,5\n", encoding="utf-8")
        rc = main(["plot", "--summary", str(path), "--out", str(tmp_path / "c.svg")])
        assert rc == 2
        assert "unexpected summary header" in capsys.readouterr().err

    def test_text_is_escaped_into_well_formed_xml(self, tmp_path):
        rows = [SummaryRow("omm", n, variant, 10.0 * n, 1.0, 1.0, 5)
                for variant in ("a<b&c", "plain 'quoted' \"label\"") for n in (10, 20)]
        summary = tmp_path / "summary.csv"
        write_summary_csv(rows, summary)
        out = tmp_path / "chart.svg"
        assert main(["plot", "--summary", str(summary), "--out", str(out),
                     "--title", "x < y & z"]) == 0
        svg = out.read_text(encoding="utf-8")
        texts = [el.text for el in ElementTree.fromstring(svg).iter(SVG_TEXT)]
        assert "x < y & z" in texts and "a<b&c" in texts
        # text without &, < or > keeps its bytes
        assert '>plain \'quoted\' "label"</text>' in svg

    @pytest.mark.parametrize("row", [
        "omm,10,v0,100.0",
        "omm,10,v0,100.0,1.0,1.0,5,surplus",
        "omm,10,v0,nan,1.0,1.0,5",
        "omm,10,v0,inf,1.0,1.0,5",
        "omm,10,v0,100.0,-inf,1.0,5",
        "omm,10,v0,100.0,1.0,nan,5",
    ], ids=["missing fields", "surplus field", "nan mean", "inf mean", "-inf std",
            "nan success rate"])
    def test_malformed_rows_are_usage_error(self, tmp_path, capsys, row):
        path = tmp_path / "summary.csv"
        path.write_text(",".join(lab.SUMMARY_HEADER) + "\nomm,20,v0,200.0,1.0,1.0,5\n"
                        + row + "\n", encoding="utf-8")
        out = tmp_path / "c.svg"
        assert main(["plot", "--summary", str(path), "--out", str(out)]) == 2
        assert "error: cannot read summary" in capsys.readouterr().err
        assert not out.exists()
