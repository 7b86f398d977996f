"""Seeded fuzzing of plan input: every case builds a plan or raises a short ValueError, fast.

Cases either mutate the JSON of the four presets and read it with
`plan_from_json`, or give the fields of a preset fuzzed values through
`dataclasses.replace` and `with_overrides`. The corpus is fixed by SEEDS and
CASES; a failing case is reported with its route, seed and index, and
`fuzz_case(route, seed, index)` rebuilds it. A plan of a synthetic problem
that builds must also give each cell the population size `resolve_pop_size`
gives its variant, in the same time bound. A longer campaign runs from the
command line, under the same time and message bounds,

    PYTHONPATH=src python tests/test_plan_fuzz.py --seed 7 --cases 5000

running both routes, printing each failing case and exiting 1 if there is one.
"""

import argparse
import json
import math
import random
import sys
import time
from dataclasses import asdict, fields, replace

import pytest

from emolab.lab import (ExperimentPlan, Variant, cells, plan_from_json, preset_plans,
                        resolve_pop_size, with_overrides)

SEEDS = (1, 2)
CASES = 600             # per seed and route
CASE_SECONDS = 0.5      # the slowest of 40,000 cases at seeds 11 and 12: 0.09 s on a 2-core Xeon
MESSAGE_BYTES = 1024

PRESETS = tuple(preset_plans().values())
PLAN_KEYS = tuple(f.name for f in fields(ExperimentPlan))
VARIANT_KEYS = tuple(f.name for f in fields(Variant))


def _number(rng):
    """A number a plan field may hold, or one no field accepts."""
    return rng.choice([
        lambda: rng.choice([1, -1]) * 10 ** rng.randint(10, 4000),
        lambda: -rng.randint(1, 10 ** 6),
        lambda: rng.randint(-3, 60),
        lambda: 2 ** 63 + rng.randint(-1, 1),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: float(rng.randint(1, 100)),
        lambda: rng.choice([math.nan, math.inf, -math.inf, 1e308, -0.0]),
        lambda: rng.choice([True, False, None]),
    ])()


def _string(rng):
    """A long, non-ASCII or near-miss string."""
    return rng.choice([
        lambda: "x" * rng.randint(1000, 300_000),
        lambda: "".join(chr(rng.choice([rng.randint(0x80, 0xD7FF), rng.randint(0xD800, 0xDFFF),
                                        rng.randint(0xE000, 0x10FFFF)]))
                        for _ in range(rng.randint(1, 200))),
        lambda: rng.choice(["", " ", "\x00", "omm ", "OMM", "refpoint\n", "crowding",
                            "nk", "ojzj", "nsga2", "ñ", "‮"]),
    ])()


def _rule(rng):
    """A population rule: deep, wide, overflowing, or a random mix of tokens."""
    depth = rng.choice([1, 10, 100, 1000, 10_000])
    width = rng.choice([2, 10, 100, 1000])
    return rng.choice([
        lambda: "(" * depth + "n" + ")" * depth,
        lambda: "-" * depth + "n",
        lambda: "+".join(["n"] * width),
        lambda: "*".join(["(n+1)"] * width),
        lambda: "//".join(["n"] * width),
        lambda: "".join(rng.choice(["n", "k", "1", "+", "-", "*", "//", "(", ")", " ", "0",
                                    "**", ".", "e", "9" * 30, "_", "[", "lambda"])
                        for _ in range(rng.randint(1, 40))),
        lambda: f"{rng.randint(-10, 10 ** 20)}*n//{rng.randint(-3, 3)}",
    ])()


def _value(rng, depth=0):
    """Any JSON value: scalars, rules, and wide or deep lists and objects."""
    if depth > 2:
        return _number(rng)
    nesting = rng.choice([10, 100, 500])
    return rng.choice([
        lambda: _number(rng),
        lambda: _string(rng),
        lambda: _rule(rng),
        lambda: [_value(rng, depth + 1) for _ in range(rng.choice([0, 1, 3]))],
        lambda: [rng.randint(-9, 10 ** 6) for _ in range(1000)],
        lambda: {_string(rng)[:20]: _value(rng, depth + 1) for _ in range(rng.randint(0, 3))},
        lambda: json.loads("[" * nesting + "]" * nesting),
    ])()


def _mutate(rng, doc, duplicates):
    """Apply one mutation to a plan document; duplicates collects top-level (key, value) pairs
    to repeat after the document's own."""
    variants = doc.get("variants")
    variants = [v for v in variants if isinstance(v, dict)] if isinstance(variants, list) else []
    target = rng.choice([doc, *variants])
    keys = PLAN_KEYS if target is doc else VARIANT_KEYS
    kind = rng.randrange(9)
    if kind == 0 and target:
        del target[rng.choice(list(target))]
    elif kind == 1:
        target[rng.choice(keys)] = _value(rng)
    elif kind == 2:
        duplicates.append((rng.choice(PLAN_KEYS), _value(rng)))
    elif kind == 3:
        key = rng.choice(["runs_per_cell", "master_seed", "max_evaluations", "k", "nk_k"])
        doc[key] = _number(rng)
    elif kind == 4 and isinstance(doc.get("n_values"), list):
        sizes = doc["n_values"]
        if sizes and rng.random() < 0.5:
            sizes[rng.randrange(len(sizes))] = _number(rng)
        else:
            doc["n_values"] = [rng.randint(-2, 40) for _ in range(rng.choice([0, 1, 30, 1000]))]
    elif kind == 5:
        if target is doc:
            doc[rng.choice(["name", "problem"])] = _string(rng)
        else:
            target[rng.choice(["label", "policy"])] = _string(rng)
    elif kind == 6 and variants:
        rng.choice(variants)["pop_size"] = rng.choice([_rule, _number])(rng)
    elif kind == 7 and isinstance(doc.get("variants"), list):
        extra = rng.choice([_number, _string, lambda r: [], lambda r: None])
        doc["variants"] += [extra(rng) for _ in range(rng.randint(1, 3))]
    elif kind == 8:
        labels = rng.choice([lambda i: f"v{i}", lambda i: "same"])
        doc["variants"] = [dict(asdict(PRESETS[0].variants[0]), label=labels(i))
                           for i in range(rng.choice([2, 50, 1000]))]
    else:
        target[_string(rng)[:100]] = _value(rng)


def _json_case(rng):
    """The text of a preset plan after one to four mutations."""
    doc = json.loads(json.dumps(asdict(rng.choice(PRESETS))))
    duplicates = []
    for _ in range(rng.randint(1, 4)):
        _mutate(rng, doc, duplicates)
    text = json.dumps(doc)
    if duplicates and doc:
        # JSON lets a key repeat; the last value wins
        text = text[:-1] + "".join(f", {json.dumps(k)}: {json.dumps(v)}" for k, v in duplicates)
        text += "}"
    return lambda: plan_from_json(text)


def _replace_case(rng):
    """A preset with one or two fields replaced, keeping each field's shape."""
    plan = rng.choice(PRESETS)
    if rng.random() < 0.2:
        runs, seed = (rng.choice([None, _number(rng)]) for _ in range(2))
        return lambda: with_overrides(plan, runs=runs, master_seed=seed)
    changes = {}
    for name in rng.sample(PLAN_KEYS, rng.randint(1, 2)):
        if name == "n_values":
            changes[name] = tuple(rng.choice([lambda: rng.randint(1, 60), lambda: _number(rng)])()
                                  for _ in range(rng.choice([0, 1, 5, 300])))
        elif name == "variants":
            changes[name] = tuple(
                Variant(rng.choice([f"v{i}", _value(rng)]),
                        rng.choice(["crowding", "refpoint", _value(rng)]),
                        rng.choice([_rule, _number, _value])(rng))
                for i in range(rng.choice([0, 1, 3, 100])))
        else:
            changes[name] = _value(rng)
    return lambda: replace(plan, **changes)


ROUTES = {"json": _json_case, "replace": _replace_case}


def fuzz_case(route, seed, index):
    """One corpus case, as a call that returns a plan or raises."""
    rng = random.Random(f"{route}-{seed}-{index}")
    return ROUTES[route](rng)


def check_case(route, seed, index):
    """Build one case: ("plan" or "ValueError", None), or (None, why the case fails)."""
    build = fuzz_case(route, seed, index)
    start = time.perf_counter()
    try:
        plan = build()
    except ValueError as exc:
        outcome = "ValueError"
        message = str(exc).encode("utf-8", "surrogatepass")
        if len(message) >= MESSAGE_BYTES:
            return None, f"case {route} {seed} {index}: {message[:200]}"
    except Exception as exc:
        return None, f"case {route} {seed} {index} raised {type(exc).__name__}: {str(exc)[:200]}"
    else:
        outcome = "plan"
        # an accepted plan reads back from its own JSON
        if plan_from_json(json.dumps(asdict(plan))) != plan:
            return None, f"case {route} {seed} {index}: the plan does not read back from its JSON"
        # its cells take the sizes the benchmark resolves; NK cells would enumerate fronts
        if plan.problem != "nk" and any(
                config.pop_size != resolve_pop_size(variant.pop_size, n, plan.k)
                for n, _, variant, _, config in cells(plan)):
            return None, f"case {route} {seed} {index}: a cell's population size is not its rule's"
    elapsed = time.perf_counter() - start
    if elapsed >= CASE_SECONDS:
        return None, f"case {route} {seed} {index} took {elapsed:.2f} s"
    return outcome, None


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_case_builds_a_plan_or_raises_a_short_value_error(route, seed):
    outcomes = {"plan": 0, "ValueError": 0}
    for index in range(CASES):
        outcome, failure = check_case(route, seed, index)
        assert failure is None, failure
        outcomes[outcome] += 1
    # the corpus reaches both outcomes, not only the first check that rejects
    assert min(outcomes.values()) >= CASES // 20, outcomes


# campaign cases that once built a plan whose JSON read back as another plan: its name
# held two lone surrogates, which JSON reads back as one other character
@pytest.mark.parametrize("seed, index", [(1009, 935), (1009, 1191), (1010, 439)])
def test_pinned_cases(seed, index):
    assert check_case("replace", seed, index) == ("ValueError", None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=CASES, help="cases per route")
    parser.add_argument("--seed", type=int, default=SEEDS[0])
    args = parser.parse_args(argv)
    outcomes = {"plan": 0, "ValueError": 0, "failed": 0}
    for route in sorted(ROUTES):
        for index in range(args.cases):
            outcome, failure = check_case(route, args.seed, index)
            if failure is not None:
                print(failure)
            outcomes[outcome or "failed"] += 1
    print(f"{args.cases} cases per route at seed {args.seed}: {outcomes['plan']} plans, "
          f"{outcomes['ValueError']} ValueErrors, {outcomes['failed']} failed")
    return 1 if outcomes["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
