"""Seeded fuzzing of the command line, in process: every argv ends in exit 0, 2 or 3, fast.

Each case draws a subcommand of `cli.build_parser()` and some of its flags, by the
names, types and choices that the parser holds, and gives them values at the edges:
negatives, zero, each limit and one past it, integers past int()'s limit on digits,
non-numbers, NaN and infinite rates, malformed population rules, paths under a regular
file, missing or broken plan and summary files, and undecodable argv bytes, which
Python hands over as surrogate escapes. `cli.main(argv)` must return 0, 2 or 3, or
argparse must exit 2. Nothing else may escape, stderr stays under 1 KiB, and a case ends
within CASE_SECONDS and leaves no child process. stdout and stderr are UTF-8 with the
error handlers that `cli.entrypoint` runs under.

Every case is cheap by construction: a draw that might be heavy is drawn again. Left out:
- `run` without --cap or with one above 2,000, except at n <= 12 on OneMinMax and
  OneJumpZeroJump, where a run ends soon; sizes above 10,000 (the limit of 1,000,000
  included), and NK above n = 16, whose reference point enumerates the front;
- `oracle` at sizes above 10,000, which print a line per ones count, and NK at
  n = 17..25 (`ENUMERATION_LIMIT` 25 itself takes about a second);
- `sweep --preset` unless --runs, --parallelism or --plan makes the sweep stop first;
  --runs above 4 up to `MAX_TRIALS`; a sweep at a parallelism other than 1 or 2, the
  default included, which may start as many helpers;
- `plot` of large summaries (CI plots a field over csv's size limit);
- an empty `sweep --out`, which is the working directory, and NUL characters, which an
  operating system's argv cannot hold.

The corpus is fixed by SEEDS and CASES; `draw_case(workspace, seed, index)` rebuilds a
case's argv over the files that `make_workspace` writes. A longer campaign runs from the
command line, under the same bounds,

    PYTHONPATH=src python tests/test_argv_fuzz.py --seed 7 --cases 2000

printing each failing case and exiting 1 if there is one.
"""

import argparse
import io
import json
import multiprocessing
import os
import random
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import pytest

from emolab import cli, lab

SEEDS = (1, 2)
CASES = 500             # per seed
CASE_SECONDS = 5.0      # the slowest of 8,000 cases at seeds 11 and 12: 0.16 s on a 2-core Xeon
MESSAGE_BYTES = 1024
CHEAP_CAP = 2000        # the largest --cap a run gets above n = 12
SURROGATE = "\udcff"    # how Python hands over the argv byte 0xff

PARSER = cli.build_parser()
SUBCOMMANDS = next(action.choices for action in PARSER._actions
                   if isinstance(action, argparse._SubParsersAction))

PLANS = {
    "plan-omm.json": lab.ExperimentPlan(
        name="omm", problem="omm", n_values=(6, 9), runs_per_cell=1, max_evaluations=300,
        variants=(lab.Variant("n1", "refpoint", 1), lab.Variant("third", "crowding", "n//3"))),
    "plan-nk.json": lab.ExperimentPlan(
        name="nk", problem="nk", n_values=(8,), nk_k=2, runs_per_cell=2, max_evaluations=200,
        variants=(lab.Variant("pair", "refpoint", 2),)),
    "plan-ojzj.json": lab.ExperimentPlan(
        name="ojzj", problem="ojzj", n_values=(8,), k=2, runs_per_cell=2, max_evaluations=500,
        variants=(lab.Variant("n1", "refpoint", 1),)),
}
SUMMARY_ROWS = {
    "summary.csv": "omm,10,v0,12.5,3.0,1.0,5\nomm,20,v0,40.0,9.5,1.0,5\nojzj,10,v1,1.0,0.0,0.5,2\n",
    "summary-zero.csv": "omm,10,v0,0.0,0.0,0.0,5\n",   # --log-y refuses a zero mean
    "summary-header.csv": "",                          # no data rows
    "summary-row.csv": "omm,ten,v0,1.0,1.0,1.0,5\n",
    "summary-nan.csv": "omm,10,v0,nan,1.0,1.0,5\n",
}
BROKEN = {  # file name: bytes
    "plan-rule.json": json.dumps(dict(asdict(PLANS["plan-omm.json"]), variants=[
        dict(label="v", policy="refpoint", pop_size="n**n")])).encode(),
    "plan-cut.json": b'{"name": "omm", ',
    "plan-empty.json": b"",
    "plan-bytes.json": b"\xff\xfe{}",
    "summary-bytes.csv": b"\xff\xfeproblem\n",
    "file": b"a regular file, so no path lies under it\n",
}
# paths that every path flag may get, besides its own files; a case may create those that
# name its index, so that each case meets the workspace as make_workspace leaves it
EDGE_PATHS = ("missing-{index}", "missing-{index}/deeper/name", SURROGATE + "{index}", "dir",
              "file", "file/under", "x" * 300)


def make_workspace(directory) -> str:
    """Write the plan and summary files that cases read into directory; returns its path."""
    root = Path(directory)
    for name, plan in PLANS.items():
        (root / name).write_text(json.dumps(asdict(plan)), encoding="utf-8")
    header = ",".join(lab.SUMMARY_HEADER) + "\n"
    for name, rows in SUMMARY_ROWS.items():
        (root / name).write_text(header + rows, encoding="utf-8")
    for name, data in BROKEN.items():
        (root / name).write_bytes(data)
    (root / "dir").mkdir(exist_ok=True)
    return str(root)


def _integer(rng, limits):
    """Text for an integer flag at an edge: one of its limits or one past it, a small,
    negative or huge integer, one past int()'s limit on digits, or text that is no integer."""
    return rng.choice([
        lambda: str(rng.choice(limits)),
        lambda: str(rng.randint(-3, 3)),
        lambda: str(-rng.randint(1, 10 ** 6)),
        lambda: str(rng.choice([2 ** 31, 2 ** 63, 2 ** 64]) + rng.randint(-1, 1)),
        lambda: rng.choice(["", "-", "+"]) + "9" * rng.choice([4300, 4301, 100_000]),
        lambda: rng.choice(["", " ", "x", "1.5", "1e3", "0x10", "nan", "inf", "١٢",
                            " 7 ", "+0", "-0", "1_000", "--", "7" + SURROGATE]),
    ])()


def _typical_integer(rng, flag, drawn):
    """Text for an integer flag that its checks accept, given the flags drawn before it."""
    n = _int(drawn.get("--n")) or 8
    return str({"--n": lambda: rng.randint(1, 30), "--k": lambda: rng.randint(2, max(2, n // 4)),
                "--runs": lambda: rng.randint(1, 4), "--parallelism": lambda: rng.randint(1, 2),
                "--cap": lambda: rng.randint(1, CHEAP_CAP),
                "--seed": lambda: rng.randint(0, 10 ** 6)}[flag]())


def _limits(flag, drawn):
    """A flag's limits and the values one past them, given the flags drawn before it."""
    n = _int(drawn.get("--n")) or 0
    return {"--n": [1, 12, 16, 17, lab.ENUMERATION_LIMIT, lab.ENUMERATION_LIMIT + 1, 10_000,
                    lab.MAX_POPULATION_BITS, lab.MAX_POPULATION_BITS + 1],
            "--k": [1, 2, n // 4, n // 4 + 1],
            "--runs": [1, 4, lab.MAX_TRIALS, lab.MAX_TRIALS + 1],
            "--parallelism": [1, 2, lab.MAX_PARALLELISM, lab.MAX_PARALLELISM + 1],
            "--cap": [1, CHEAP_CAP, CHEAP_CAP + 1],
            "--seed": [0, 2 ** 64 - 1, 2 ** 64]}[flag]


# text for the flags that take text, (typical, at an edge); --pop is a population rule
TEXT = {
    "--rate": (["0.125", "0.5", "1", "0", "0.01"],
               ["1.0000001", "-0.0", "-0.5", "1e-300", "5e-324", "nan", "NaN", "inf", "-inf",
                "1/8", "", "x", "0x1p-3", "1" + SURROGATE]),
    "--pop": (["1", "2", "4*(n+1)", "n", "n//4+1", "4*(n-2*k+3)"],
              ["0", "-1", "n-n", "n*n*n", "2**n", "(", "n+", "k", "n/2", "1e3", "lambda: 1",
               "9" * 5000, "(" * 1000 + "n" + ")" * 1000, "-" * 500 + "1", "n" + SURROGATE]),
    "--title": (["", "a < b & c", "Runs"], ["\x01", SURROGATE, "\u202e", "x" * 1000, "x" * 100_000]),
}
# each path flag's own files, (typical, at an edge); every path flag may also get EDGE_PATHS
PATHS = {
    ("sweep", "--plan"): (list(PLANS), [name for name in BROKEN if name.startswith("plan")]),
    ("sweep", "--out"): (["out-{index}"], ["dir"]),
    ("run", "--trace"): (["trace-{index}.csv"], []),
    ("plot", "--summary"): (["summary.csv"], [*SUMMARY_ROWS, "summary-bytes.csv"]),
    ("plot", "--out"): (["chart-{index}.svg"], []),
}


def _value(rng, workspace, command, action, drawn, index, edge):
    """Text for one flag, typical or at an edge: by its type and choices, or by its name
    for a flag that takes text."""
    flag = action.option_strings[-1]
    if action.choices is not None:
        choice = rng.choice(sorted(action.choices))
        return rng.choice(["", choice.upper(), choice + " ", "x" * 1000]) if edge else choice
    if action.type is cli._integer:
        return _integer(rng, _limits(flag, drawn)) if edge else _typical_integer(rng, flag, drawn)
    if (command, flag) in PATHS:
        typical, own_edges = PATHS[command, flag]
        name = rng.choice([*own_edges, *EDGE_PATHS] if edge else typical)
        return os.path.join(workspace, name.format(index=index))
    return rng.choice(TEXT[flag][edge])


def _int(text):
    """The integer that `cli._integer` reads from text, or None."""
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


def _heavy(command, flags) -> bool:
    """Whether the flags might make a case slow: see the module docstring. Values that
    argparse or a check refuses before any work keep a case cheap."""
    n, problem = _int(flags.get("--n")), flags.get("--problem")
    if command in ("run", "oracle"):
        if n is None or not 1 <= n <= lab.MAX_POPULATION_BITS:
            return False
        if n > 10_000 or (problem == "nk" and n > 16):
            return True
    if command == "run":
        cap = _int(flags.get("--cap"))
        soon = n <= 12 and problem in ("omm", "ojzj")
        return not soon and ("--cap" not in flags or cap is not None and cap > CHEAP_CAP)
    if command == "sweep":
        parallelism, runs = flags.get("--parallelism"), flags.get("--runs")
        if parallelism is not None and not 1 <= (_int(parallelism) or 0) <= lab.MAX_PARALLELISM:
            return False
        if "--plan" in flags and "--preset" in flags:
            return False
        if runs is not None and not 1 <= (_int(runs) or 0) <= lab.MAX_TRIALS:
            return False
        return (parallelism is None or _int(parallelism) > 2 or "--preset" in flags
                or runs is not None and _int(runs) > 4)
    return False


def _draw(rng, workspace, index):
    """One argv: a subcommand, then each of its flags or not, a required one mostly, one of
    a required group of flags mostly alone; now and then a flag twice or an unknown one."""
    command = rng.choice(sorted(SUBCOMMANDS))
    parser = SUBCOMMANDS[command]
    edges = rng.choice([0.0, 0.05, 0.2, 0.5])  # the share of values drawn at an edge
    grouped = [action for group in parser._mutually_exclusive_groups
               for action in group._group_actions]
    chosen = rng.choice(grouped) if grouped else None
    argv, flags = [command], {}
    for action in parser._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if action in grouped:
            keep = action is chosen and rng.random() < 0.9 or rng.random() < 0.1
        elif action.dest == "k":  # typically given on ojzj alone
            keep = (flags.get("--problem") == "ojzj") != (rng.random() < edges)
        else:
            keep = rng.random() < (1 - edges / 4 if action.required else 0.5)
        for _ in range(keep + (keep and rng.random() < 0.03)):
            flag = action.option_strings[-1]
            if action.nargs == 0:
                argv.append(flag)
                flags[flag] = None
            else:
                edge = rng.random() < edges
                flags[flag] = _value(rng, workspace, command, action, flags, index, edge)
                argv += [flag, flags[flag]]
    if rng.random() < 0.02:
        argv += rng.choice([["--bogus"], ["extra"], ["-n"], ["--n="]])
    return command, flags, argv


def draw_case(workspace, seed, index):
    """Case `index` of the corpus at `seed`: (subcommand, argv)."""
    rng = random.Random(f"argv-{seed}-{index}")
    while True:
        command, flags, argv = _draw(rng, workspace, index)
        if not _heavy(command, flags):
            return command, argv


def check_case(workspace, seed, index):
    """Run one case: ((subcommand, outcome), None), or (None, why the case fails)."""
    command, argv = draw_case(workspace, seed, index)
    shown = lab._cut(repr(argv), 300)
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="surrogateescape")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    seed_variable = os.environ.pop("EMO_LAB_SEED", None)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            outcome = f"exit {cli.main(argv)}"
    except SystemExit as exc:  # argparse's own error
        outcome = f"argparse {exc.code}"
    except Exception as exc:
        return None, f"case {seed} {index} {shown} raised {type(exc).__name__}: {str(exc)[:200]}"
    finally:
        if seed_variable is not None:
            os.environ["EMO_LAB_SEED"] = seed_variable
    elapsed = time.perf_counter() - start
    err.flush()
    message = err.buffer.getvalue()
    if outcome not in ("exit 0", "exit 2", "exit 3", "argparse 2"):
        return None, f"case {seed} {index} {shown}: {outcome}: {message[:200]}"
    if len(message) >= MESSAGE_BYTES:
        return None, f"case {seed} {index} {shown}: {len(message)} bytes on stderr"
    if elapsed >= CASE_SECONDS:
        return None, f"case {seed} {index} {shown} took {elapsed:.2f} s"
    if multiprocessing.active_children():
        return None, f"case {seed} {index} {shown} left a child process"
    return (command, outcome), None


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return make_workspace(tmp_path_factory.mktemp("argv"))


@pytest.mark.parametrize("seed", SEEDS)
def test_every_argv_exits_0_2_or_3(workspace, seed):
    outcomes = Counter()
    for index in range(CASES):
        outcome, failure = check_case(workspace, seed, index)
        assert failure is None, failure
        outcomes[outcome] += 1
    # every subcommand both works and refuses, in its own code and in argparse, and some
    # subcommand meets a file it cannot write
    for command in SUBCOMMANDS:
        for outcome in ("exit 0", "exit 2", "argparse 2"):
            assert outcomes[command, outcome], (command, outcome, outcomes)
    assert any(outcome == "exit 3" for _, outcome in outcomes), outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=CASES)
    parser.add_argument("--seed", type=int, default=SEEDS[0])
    args = parser.parse_args(argv)
    outcomes = Counter()
    with tempfile.TemporaryDirectory() as directory:
        workspace = make_workspace(directory)
        for index in range(args.cases):
            outcome, failure = check_case(workspace, args.seed, index)
            if failure is not None:
                print(failure)
            outcomes[outcome[1] if outcome else "failed"] += 1
    print(f"{args.cases} cases at seed {args.seed}: "
          + ", ".join(f"{count} {outcome}" for outcome, count in sorted(outcomes.items())))
    return 1 if outcomes["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
