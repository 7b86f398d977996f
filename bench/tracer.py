"""Per-layer spans recorded from outside the program.

Each traced function is replaced, in the module where its caller looks it
up, by a wrapper that counts calls and accumulates busy time (wall time
inside the call) and self time (busy time minus the time of traced calls
nested inside it). The program itself is not edited.

Some layers also record a few counts next to their spans:

- survival.survival_select: pool size, and how many of the offspring (the
  part of the pool past `capacity`, as step_generation builds it) survive.
- survival.fast_nondominated_sort: number of fronts returned.
- survival.crowding_distance_assign, survival.reference_distances: front size.
- problems.evaluate: distinct genomes per evolve.run, counted by the tracer
  itself, so the new-genome ratio does not depend on the NK memo's state.
- evolve.run: the duration of every run, for percentiles.

A function that a later refactor removed, or moved out of the module named
here, is reported as absent rather than patched.

Caveat for NK: the traced sweep runs serially, so trials reuse the memo that
reference-point enumeration filled in the same process, while pool workers
receive the instance unpickled with an empty memo. problems.evaluate.busy_s
therefore reads low on nk-k3; compare new_genome_ratio instead. For the same
reason the traced serial sweep can take less wall time there than the timed
parallel sweep's CPU time, so trace.wall_over_cpu falls below 1. Likewise only
the search's evaluate calls (looked up in emolab.evolve) are counted; the
2^n evaluations inside enumeration count towards enumerate_pareto_front.
"""

from __future__ import annotations

import importlib
import time

# (layer, module the caller looks the function up in, attribute)
LAYERS = (
    ("cli.main", "emolab.cli", "main"),
    ("lab.run_experiment", "emolab.lab", "run_experiment"),
    ("evolve.run", "emolab.lab", "run"),
    ("evolve.initialize", "emolab.evolve", "initialize"),
    ("evolve.step_generation", "emolab.evolve", "step_generation"),
    ("core.random_bitstring", "emolab.evolve", "random_bitstring"),
    ("core.bitwise_mutate", "emolab.evolve", "bitwise_mutate"),
    ("problems.evaluate", "emolab.evolve", "evaluate"),
    ("problems.enumerate_pareto_front", "emolab.problems", "enumerate_pareto_front"),
    ("survival.survival_select", "emolab.evolve", "survival_select"),
    ("survival.fast_nondominated_sort", "emolab.survival", "fast_nondominated_sort"),
    ("survival.crowding_distance_assign", "emolab.survival", "crowding_distance_assign"),
    ("survival.reference_distances", "emolab.survival", "reference_distances"),
)

# Errors a count hook may hit when a refactor changes a layer's arguments.
_HOOK_ERRORS = (TypeError, AttributeError, IndexError, ValueError)


class LayerStat:
    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.sums = {}

    def add(self, key, value):
        self.sums[key] = self.sums.get(key, 0) + value


class Tracer:
    """Holds the spans of one traced process; install() patches the layers."""

    def __init__(self):
        self.stats = {}
        self.absent = []
        self.hook_failures = set()
        self.run_durations = []
        self.genomes = set()
        self.distinct_genomes = 0
        self._stack = []

    def install(self):
        for layer, module_name, attr in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(layer)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(layer)
                continue
            setattr(module, attr, self._wrap(layer, fn))

    def _wrap(self, layer, fn):
        stat = self.stats[layer] = LayerStat()
        before = getattr(self, "_before_" + layer.replace(".", "_"), None)
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            if before is not None:
                before()
            frame = [0.0]
            stack.append(frame)
            call_start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            busy = end - call_start
            stat.calls += 1
            stat.busy_s += busy
            stat.self_s += busy - frame[0]
            if after is not None:
                try:
                    after(stat, busy, args, result)
                except _HOOK_ERRORS:
                    self.hook_failures.add(layer)
            if stack:
                # the parent's self time excludes this call and its bookkeeping
                stack[-1][0] += clock() - start
            return result

        return traced

    def _close_genomes(self):
        self.distinct_genomes += len(self.genomes)
        self.genomes = set()

    def _before_evolve_run(self):
        self._close_genomes()

    def _after_evolve_run(self, stat, busy, args, result):
        self.run_durations.append(busy)
        self._close_genomes()

    def _after_problems_evaluate(self, stat, busy, args, result):
        self.genomes.add(args[1].tobytes())

    def _after_survival_survival_select(self, stat, busy, args, result):
        combined, capacity = args[0], args[1]
        offspring = {id(ind) for ind in combined[capacity:]}
        stat.add("pool", len(combined))
        stat.add("offspring", len(offspring))
        stat.add("offspring_kept", sum(id(ind) in offspring for ind in result))

    def _after_survival_fast_nondominated_sort(self, stat, busy, args, result):
        stat.add("fronts", len(result))

    def _after_survival_crowding_distance_assign(self, stat, busy, args, result):
        stat.add("front", len(args[0]))

    def _after_survival_reference_distances(self, stat, busy, args, result):
        stat.add("front", len(args[0]))

    def report(self) -> dict:
        """Plain-data summary: per-layer calls, busy_s, self_s and count sums."""
        self._close_genomes()
        if "problems.evaluate" in self.stats:
            self.stats["problems.evaluate"].add("distinct_genomes", self.distinct_genomes)
        return {
            "layers": {
                layer: {"calls": s.calls, "busy_s": s.busy_s, "self_s": s.self_s,
                        "sums": s.sums}
                for layer, s in self.stats.items()
            },
            "absent": self.absent,
            "hook_failures": sorted(self.hook_failures),
            "run_durations": self.run_durations,
        }
