"""Command-line surface: run sweeps, single runs, front oracles, and SVG charts.

Every subcommand prints its fully resolved configuration (including seeds)
before doing any work, so any output can be reproduced from the printed
line alone. Exit codes: 0 success, 2 usage or validation problem, 3 I/O
failure, a closed stdout included (`emolab oracle ... | head -1`), or a
sweep whose trial raised or whose pool worker died. The
EMO_LAB_SEED environment variable supplies a master seed when --seed is
not given.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import lab
from .evolve import GenerationTrace, run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3

# `run` and `oracle` have no K flag: their NK instances use the NK preset's K.
NK_K = 3
ALGORITHM_POLICIES = {"nsga2": "crowding", "rnsga2": "refpoint"}

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]


def _resolve_seed(value, default=None):
    """--seed, else EMO_LAB_SEED, else default; a non-integer variable is a ValueError."""
    if value is not None:
        return int(value)
    env = os.environ.get("EMO_LAB_SEED")
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"EMO_LAB_SEED must be an integer, got {env!r}") from None


def _fail(code: int, message: str) -> int:
    """Report an error on stderr and return the exit code for it."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _check_writable(*paths) -> None:
    """Raise OSError unless every path can be written, before any work.

    A file that exists already is opened for appending and left as it was;
    one that this check creates is removed again, so a command that stops
    before writing its results leaves no empty file behind.
    """
    for path in paths:
        try:
            open(path, "x").close()
        except FileExistsError:
            open(path, "a").close()
        else:
            os.unlink(path)


def _cell_plan(args, master_seed: int, variant: lab.Variant,
               max_evaluations=None) -> lab.ExperimentPlan:
    """The one (problem, n) cell that the flags of `run` and `oracle` describe, validated."""
    plan = lab.ExperimentPlan(
        name=args.command,
        problem=args.problem,
        n_values=(args.n,),
        variants=(variant,),
        runs_per_cell=1,
        master_seed=master_seed,
        max_evaluations=max_evaluations,
        k=args.k,
        nk_k=NK_K if args.problem == "nk" else None,
    )
    lab.validate_plan(plan)
    return plan


def cmd_sweep(args) -> int:
    if not 1 <= args.parallelism <= lab.MAX_PARALLELISM:
        return _fail(EXIT_USAGE, f"--parallelism must lie in [1, {lab.MAX_PARALLELISM}]")
    source = args.preset or args.plan
    try:
        plan = lab.preset_plans()[args.preset] if args.preset else lab.load_plan(args.plan)
        plan = lab.with_overrides(plan, runs=args.runs, master_seed=_resolve_seed(args.seed))
        lab.validate_plan(plan)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_USAGE, f"cannot load plan {source!r}: {exc}")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _check_writable(out_dir / "trials.csv", out_dir / "summary.csv")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write results: {exc}")
    print(f"sweep plan={plan.name} problem={plan.problem} n_values={list(plan.n_values)} "
          f"variants={[v.label for v in plan.variants]} runs={plan.runs_per_cell} "
          f"master_seed={plan.master_seed} cap={plan.max_evaluations} "
          f"parallelism={args.parallelism} out={args.out}")
    try:
        records = lab.run_experiment(plan, parallelism=args.parallelism)
    except Exception as exc:  # a trial that raised, or a pool worker that died
        return _fail(EXIT_IO, f"sweep stopped, no results written: {type(exc).__name__}: {exc}")
    summary = lab.summarize(records)
    try:
        lab.write_trials_csv(records, out_dir / "trials.csv")
        lab.write_summary_csv(summary, out_dir / "summary.csv")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write results: {exc}")
    print(f"wrote {len(records)} trials to {out_dir / 'trials.csv'} "
          f"and {len(summary)} summary rows to {out_dir / 'summary.csv'}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        master_seed = _resolve_seed(args.seed, lab.DEFAULT_MASTER_SEED)
        # bounded like `run --algo rnsga2 --pop 1 --cap 1`, a cell valid on every problem
        plan = _cell_plan(args, master_seed, lab.Variant("oracle", "refpoint", 1), 1)
        print(f"oracle problem={args.problem} n={args.n} k={args.k} seed={master_seed}")
        front = lab.build_problem(plan, args.n).front()
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    for point in sorted(front):
        print(" ".join(f"{v:g}" for v in point))
    print(f"size {len(front)}")
    return EXIT_OK


def cmd_run(args) -> int:
    variant = lab.Variant(args.algo, ALGORITHM_POLICIES[args.algo], args.pop)
    try:
        seed = _resolve_seed(args.seed, lab.DEFAULT_MASTER_SEED)
        if seed < 0:  # used as the run's stream seed, unlike the masked seeds of a sweep
            raise ValueError(f"the run seed must be non-negative, got {seed}")
        plan = _cell_plan(args, seed, variant, args.cap)
        if args.rate is not None and args.cap is None:
            raise ValueError("--rate needs --cap: runs are bounded only at the default 1/n")
        _, _, _, problem, config = next(lab.cells(plan))
        config = replace(config, mutation_rate=args.rate)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    if args.trace is not None:
        try:
            _check_writable(args.trace)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write trace: {exc}")
    print(f"run problem={args.problem} n={args.n} k={args.k} algo={args.algo} "
          f"pop_size={config.pop_size} rate={args.rate if args.rate is not None else f'1/{args.n}'} "
          f"cap={args.cap} seed={seed} "
          f"reference={tuple(round(v, 6) for v in config.reference_point)}")
    trace = None if args.trace is None else GenerationTrace(problem, config.reference_point)
    result = run(problem, config, seed, on_generation=trace)
    if trace is not None:
        try:
            trace.write_csv(args.trace)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write trace: {exc}")
        print(f"wrote trace with {len(trace.rows)} rows to {args.trace}")
    print(f"hit={'true' if result.hit else 'false'} "
          f"evaluations_to_hit={result.evaluations_to_hit} "
          f"evaluations={result.evaluations} generations={result.generations} "
          f"seed={result.seed}")
    return EXIT_OK


def render_line_chart(series, log_y: bool = False, title: str = "") -> str:
    """Build an SVG line chart: one polyline and one marker set per series.

    series maps a label to a list of (x, y) pairs. With log_y the y axis is
    log10-scaled; callers must guard against non-positive values first. The
    title and labels are escaped, so any text gives well-formed XML.
    """
    from html import escape  # imported here: a module-level import adds to every sweep's RSS

    width, height = 720, 440
    left, right, top, bottom = 80, 200, 40, 60
    plot_w = width - left - right
    plot_h = height - top - bottom

    xs = sorted({x for pts in series.values() for x, _ in pts})
    ys = [math.log10(y) if log_y else y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1, x_hi + 1
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1, y_hi + 1

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        y = math.log10(y) if log_y else y
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{left}" y="{top - 14}" font-size="15">'
                     f'{escape(title, quote=False)}</text>')

    for x in xs:
        parts.append(f'<line x1="{sx(x):.2f}" y1="{top + plot_h}" x2="{sx(x):.2f}" '
                     f'y2="{top + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(x):.2f}" y="{top + plot_h + 22}" font-size="12" '
                     f'text-anchor="middle">{x:g}</text>')
    ticks = 5
    for i in range(ticks):
        y_val = y_lo + (y_hi - y_lo) * i / (ticks - 1)
        y_pix = top + plot_h - (y_val - y_lo) / (y_hi - y_lo) * plot_h
        shown = 10 ** y_val if log_y else y_val
        parts.append(f'<line x1="{left - 5}" y1="{y_pix:.2f}" x2="{left}" y2="{y_pix:.2f}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{left - 9}" y="{y_pix + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{shown:.4g}</text>')

    for idx, (label, pts) in enumerate(sorted(series.items())):
        color = PALETTE[idx % len(PALETTE)]
        pts = sorted(pts)
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                     f'points="{coords}"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" '
                         f'fill="{color}"/>')
        ly = top + 18 + idx * 20
        lx = left + plot_w + 16
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="13">'
                     f'{escape(label, quote=False)}</text>')

    parts.append("</svg>")
    return "\n".join(parts)


def cmd_plot(args) -> int:
    print(f"plot summary={args.summary} out={args.out} log_y={args.log_y}")
    try:
        rows = lab.read_summary_csv(args.summary)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_USAGE, f"cannot read summary {args.summary!r}: {exc}")
    if not rows:
        return _fail(EXIT_USAGE, "summary contains no data rows")
    if args.log_y and any(row.mean_evals <= 0 for row in rows):
        return _fail(EXIT_USAGE, "--log-y requires every mean to be positive")
    series = {}
    multi_problem = len({row.problem for row in rows}) > 1
    for row in rows:
        label = f"{row.problem}/{row.variant}" if multi_problem else row.variant
        series.setdefault(label, []).append((row.n, row.mean_evals))
    svg = render_line_chart(series, log_y=args.log_y, title=args.title)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(svg + "\n")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write SVG: {exc}")
    print(f"wrote chart with {len(series)} series to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emolab",
        description="NSGA-II / R-NSGA-II experiment lab on bitstring benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a preset or plan file, write trials/summary CSVs")
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=lab.PROBLEM_FAMILIES)
    group.add_argument("--plan", help="path to a plan JSON file")
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.add_argument("--runs", type=int, default=None, help="override runs per cell")
    sweep.add_argument("--seed", type=int, default=None, help="master seed override")
    sweep.add_argument("--parallelism", type=int,
                       default=min(os.cpu_count() or 1, lab.MAX_PARALLELISM))
    sweep.set_defaults(func=cmd_sweep)

    # the one (problem, n) cell that `oracle` and `run` act on
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--problem", required=True, choices=lab.PROBLEM_FAMILIES)
    cell.add_argument("--n", type=int, required=True)
    cell.add_argument("--k", type=int, help="valley width: required on ojzj, rejected elsewhere")
    cell.add_argument("--seed", type=int, default=None,
                      help="master seed: picks the NK instance and seeds a run")

    oracle = sub.add_parser("oracle", parents=[cell], help="print a problem's Pareto front")
    oracle.set_defaults(func=cmd_oracle)

    runner = sub.add_parser("run", parents=[cell], help="execute a single seeded run")
    runner.add_argument("--algo", required=True, choices=tuple(ALGORITHM_POLICIES))
    runner.add_argument("--pop", default="4*(n+1)",
                        help="population size, an integer or a rule over n (and k)")
    runner.add_argument("--rate", type=float, default=None, help="mutation rate (default 1/n)")
    runner.add_argument("--cap", type=int, default=None, help="evaluation budget")
    runner.add_argument("--trace", default=None, help="write a per-generation trace CSV here")
    runner.set_defaults(func=cmd_run)

    plot = sub.add_parser("plot", help="render a summary CSV as an SVG line chart")
    plot.add_argument("--summary", required=True, help="summary.csv from a sweep")
    plot.add_argument("--out", required=True, help="output SVG path")
    plot.add_argument("--log-y", action="store_true", dest="log_y")
    plot.add_argument("--title", default="")
    plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone; point stdout at devnull, as the
        # Python docs advise, so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
