"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The statistical criteria reproduce the standard sweep setups at desk scale
(200 runs for the separations, 100 for the reversal, 20 instances for the
NK comparison) and pin their thresholds here. Heavy sweeps are restricted
to the cells the criterion actually measures; every restriction keeps the
preset's variant structure, population rules, and reference points.

Run with `pytest tests/test_acceptance.py -v -s`; every criterion prints
its wall time, including the sweeps its fixtures run. All tests here carry
the `acceptance` marker, so `pytest -m "not acceptance"` runs the fast suite.
"""

import math
import os
import statistics
import time

import pytest

from dataclasses import replace

import emolab.lab as lab
from emolab.cli import main
from emolab.core import child_seed, stream
from emolab.evolve import AlgorithmConfig, run
from emolab.lab import Variant, rank_sum_test, run_experiment, summarize
from emolab.problems import (
    OneJumpZeroJump,
    OneMinMax,
    OneMinMaxStar,
    default_reference_point,
    enumerate_pareto_front,
    generate_nk_instance,
    pareto_front_closed_form,
)
from emolab.survival import (
    CrowdingDistance,
    ReferencePointDistance,
    crowding_distance_assign,
    fast_nondominated_sort,
)

pytestmark = pytest.mark.acceptance

PARALLELISM = max(1, min(os.cpu_count() or 1, 8))
ACCEPT_SEED = 971  # master seed for every acceptance sweep


def report(criterion, passed, detail, seconds=None):
    wall = "" if seconds is None else f" [wall {seconds:.1f}s]"
    print(f"\n[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}{wall}")
    assert passed, f"{criterion} failed: {detail}"


def timed_experiments(*plans):
    """Records of all plans and the wall time it took to run them."""
    started = time.time()
    records = []
    for plan in plans:
        records.extend(run_experiment(plan, parallelism=PARALLELISM))
    return records, time.time() - started


def cell_evals(records, n, variant):
    return [r.evaluations for r in records if r.n == n and r.variant == variant]


def test_criterion_1_oracle_equivalence():
    started = time.time()
    problems = []
    for n in range(4, 13):
        problems.append((OneMinMax(n), n + 1))
        problems.append((OneMinMaxStar(n), n + 1))
        for k in (2, 3):
            if 2 <= k <= n // 4:
                problems.append((OneJumpZeroJump(n, k), n - 2 * k + 3))
    for problem, expected_size in problems:
        enumerated = enumerate_pareto_front(problem)
        closed = pareto_front_closed_form(problem)
        assert set(enumerated) == closed, problem
        assert len(closed) == expected_size, problem
    elapsed = time.time() - started
    report("C1 oracle equivalence", elapsed < 10.0,
           f"{len(problems)} fronts matched closed forms in {elapsed:.2f}s")


def test_criterion_2_sorting_oracle():
    from test_survival import fronts_of, random_population, strip_partition

    started = time.time()
    rng = stream(515)
    checked = 0
    for _ in range(200):
        objectives, birth = random_population(rng)
        fronts = fronts_of(fast_nondominated_sort(objectives))
        oracle = strip_partition(objectives)
        assert ([sorted(birth[f].tolist()) for f in fronts]
                == [sorted(birth[f].tolist()) for f in oracle])
        checked += 1
    elapsed = time.time() - started
    report("C2 sorting oracle", elapsed < 10.0,
           f"{checked} random populations matched the strip partition in {elapsed:.2f}s")


def test_criterion_3_crowding_hand_trace():
    started = time.time()
    front = [(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (4.0, 0.0)]
    dist = crowding_distance_assign(front, list(range(len(front)))).tolist()
    interior = [dist[1], dist[2], dist[3]]
    ok = (dist[0] == math.inf and dist[4] == math.inf
          and interior == [1.0, 1.0, 1.0])
    report("C3 crowding hand trace", ok,
           f"boundaries inf, interior {interior}", time.time() - started)


@pytest.fixture(scope="module")
def omm_records():
    plan = replace(lab.preset_plans()["omm"], n_values=(50,), runs_per_cell=200,
                   master_seed=ACCEPT_SEED)
    return timed_experiments(plan)


def test_criterion_4_oneminmax_separation(omm_records):
    started = time.time()
    omm_records, sweep_s = omm_records
    nsga2 = cell_evals(omm_records, 50, "nsga2")
    r_small = cell_evals(omm_records, 50, "rnsga2-n1")
    r_same = cell_evals(omm_records, 50, "rnsga2")
    assert len(nsga2) == len(r_small) == len(r_same) == 200
    factor = statistics.fmean(nsga2) / statistics.fmean(r_small)
    test = rank_sum_test(r_same, nsga2)
    ok = (factor >= 5.0
          and statistics.fmean(r_same) < statistics.fmean(nsga2)
          and test.direction == "a" and test.p_value < 0.01)
    report("C4 OneMinMax separation", ok,
           f"n=50 means: nsga2={statistics.fmean(nsga2):.0f}, "
           f"rnsga2-n1={statistics.fmean(r_small):.0f} (factor {factor:.1f}x), "
           f"rnsga2={statistics.fmean(r_same):.0f}, p={test.p_value:.2e}",
           sweep_s + time.time() - started)


@pytest.fixture(scope="module")
def ojzj_n30_records():
    plan = replace(lab.preset_plans()["ojzj"], n_values=(30,), runs_per_cell=200,
                   master_seed=ACCEPT_SEED,
                   variants=(Variant("nsga2", "crowding", "4*(n-2*k+3)"),
                             Variant("rnsga2-n1", "refpoint", 1)))
    return timed_experiments(plan)


@pytest.fixture(scope="module")
def ojzj_r1_curve_records():
    plan = replace(lab.preset_plans()["ojzj"], runs_per_cell=200,
                   master_seed=ACCEPT_SEED,
                   variants=(Variant("rnsga2-n1", "refpoint", 1),))
    return timed_experiments(plan)


def test_criterion_5_ojzj_separation(ojzj_n30_records, ojzj_r1_curve_records):
    started = time.time()
    (ojzj_n30_records, n30_s), (ojzj_r1_curve_records, curve_s) = (
        ojzj_n30_records, ojzj_r1_curve_records)
    nsga2 = cell_evals(ojzj_n30_records, 30, "nsga2")
    r_small = cell_evals(ojzj_n30_records, 30, "rnsga2-n1")
    assert len(nsga2) == len(r_small) == 200
    ratio = statistics.fmean(nsga2) / statistics.fmean(r_small)
    test = rank_sum_test(r_small, nsga2)
    slope = lab.loglog_slope(summarize(ojzj_r1_curve_records), "rnsga2-n1")
    ok = (ratio >= 3.0 and test.direction == "a" and test.p_value < 0.01
          and 1.5 <= slope <= 3.0)
    report("C5 OneJumpZeroJump separation", ok,
           f"n=30 means: nsga2={statistics.fmean(nsga2):.0f}, "
           f"rnsga2-n1={statistics.fmean(r_small):.0f} (ratio {ratio:.1f}x), "
           f"p={test.p_value:.2e}, rnsga2-n1 log-log slope={slope:.2f}",
           n30_s + curve_s + time.time() - started)


@pytest.fixture(scope="module")
def ommstar_records():
    plan = replace(lab.preset_plans()["ommstar"], n_values=(30,), runs_per_cell=100,
                   master_seed=ACCEPT_SEED)
    return timed_experiments(plan)


def test_criterion_6_oneminmax_star_reversal(ommstar_records):
    started = time.time()
    ommstar_records, sweep_s = ommstar_records
    summary = {row.variant: row for row in summarize(ommstar_records)}
    nsga2, rnsga2 = summary["nsga2"], summary["rnsga2"]
    assert nsga2.runs == rnsga2.runs == 100
    ok = (nsga2.success_rate == 1.0
          and nsga2.mean_evals < 100_000 / 2
          and rnsga2.success_rate <= 0.05)
    report("C6 OneMinMax* reversal", ok,
           f"n=30: nsga2 success={nsga2.success_rate:.2f} mean={nsga2.mean_evals:.0f}, "
           f"rnsga2 success={rnsga2.success_rate:.2f} mean={rnsga2.mean_evals:.0f}",
           sweep_s + time.time() - started)


@pytest.fixture(scope="module")
def nk_instance_records():
    base = lab.preset_plans()["nk"]
    return timed_experiments(*(
        replace(base, n_values=(15,), runs_per_cell=1,
                master_seed=child_seed(ACCEPT_SEED, "nk-accept", instance_index),
                name=f"nk-{instance_index}")
        for instance_index in range(20)))


def test_criterion_7_nk_qualitative_ordering(nk_instance_records):
    started = time.time()
    nk_instance_records, sweep_s = nk_instance_records
    nsga2 = [r for r in nk_instance_records if r.variant == "nsga2"]
    rnsga2 = [r for r in nk_instance_records if r.variant == "rnsga2"]
    assert len(nsga2) == len(rnsga2) == 20
    nsga2_median = statistics.median(r.evaluations for r in nsga2)
    rnsga2_median = statistics.median(r.evaluations for r in rnsga2)
    nsga2_capped = sum(1 for r in nsga2 if not r.hit)
    rnsga2_capped = sum(1 for r in rnsga2 if not r.hit)
    ok = nsga2_median < rnsga2_median and rnsga2_capped > nsga2_capped
    report("C7 NK qualitative ordering", ok,
           f"medians: nsga2={nsga2_median:.0f} vs rnsga2={rnsga2_median:.0f}; "
           f"capped runs: nsga2={nsga2_capped}/20 vs rnsga2={rnsga2_capped}/20",
           sweep_s + time.time() - started)


def _reference_runs(problem, reference, pop_size, cap, runs, seed_key):
    """Execute R-NSGA-II runs recording the per-generation minimum distance."""
    config = AlgorithmConfig(policy=ReferencePointDistance(reference),
                             pop_size=pop_size, reference_point=reference,
                             max_evaluations=cap)
    violations = 0
    generations = 0
    for i in range(runs):
        dists = []
        run(problem, config, child_seed(ACCEPT_SEED, seed_key, i),
            on_generation=lambda s: dists.append(
                min(math.dist(v, reference)
                    for v in s.objectives.tolist())))
        generations += len(dists) - 1
        violations += sum(1 for a, b in zip(dists, dists[1:]) if b > a)
    return violations, generations


def test_criterion_8_invariant_suite():
    started = time.time()
    # elitism towards the reference point, 50 seeded runs per problem
    cases = [
        ("omm", OneMinMax(20), (0.0, 20.0), 8, None),
        ("ojzj", OneJumpZeroJump(16, 2), (18.0, 2.0), 8, None),
        ("ommstar", OneMinMaxStar(20), (-20.0, 40.0), 8, 4000),
        ("nk", generate_nk_instance(12, 3, child_seed(ACCEPT_SEED, "c8-nk")),
         None, 20, 6000),
    ]
    total_violations = 0
    details = []
    for label, problem, reference, pop_size, cap in cases:
        if reference is None:
            reference = default_reference_point(
                problem, stream(child_seed(ACCEPT_SEED, "c8-nk-ref")))
        violations, generations = _reference_runs(
            problem, reference, pop_size, cap, 50, f"c8-{label}")
        total_violations += violations
        details.append(f"{label}:{violations}/{generations}")

    # front retention: NSGA-II on OneMinMax, N = 4(n+1), n = 20
    n = 20
    problem = OneMinMax(n)
    front = pareto_front_closed_form(problem)
    config = AlgorithmConfig(policy=CrowdingDistance(), pop_size=4 * (n + 1),
                             reference_point=(0.0, float(n)))
    retention_violations = 0
    retention_generations = 0
    for i in range(50):
        covered = []
        run(problem, config, child_seed(ACCEPT_SEED, "c8-retention", i),
            on_generation=lambda s: covered.append(
                frozenset(set(map(tuple, s.objectives.tolist())) & front)))
        retention_generations += len(covered) - 1
        retention_violations += sum(1 for a, b in zip(covered, covered[1:])
                                    if not a <= b)
    total_violations += retention_violations
    details.append(f"retention:{retention_violations}/{retention_generations}")
    report("C8 invariant suite", total_violations == 0,
           "violations/generations " + ", ".join(details), time.time() - started)


def test_criterion_9_determinism(tmp_path):
    started = time.time()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["sweep", "--preset", "omm", "--runs", "10", "--seed", "7",
            "--parallelism", str(PARALLELISM)]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    byte_identical = ((out_a / "trials.csv").read_bytes()
                      == (out_b / "trials.csv").read_bytes())

    plan = replace(lab.preset_plans()["omm"], runs_per_cell=10, master_seed=7)
    serial = run_experiment(plan, parallelism=1)
    parallel = run_experiment(plan, parallelism=8)
    ok = byte_identical and serial == parallel
    report("C9 determinism", ok,
           f"byte-identical trials.csv: {byte_identical}; "
           f"parallelism 1 vs 8 record sets equal: {serial == parallel}",
           time.time() - started)
