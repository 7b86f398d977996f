"""emolab: a desk-scale lab for NSGA-II and reference-point R-NSGA-II on
bi-objective bitstring benchmarks, with brute-force oracles and a seeded,
reproducible experiment harness."""

from .core import (
    Dominance,
    bits_from_str,
    bits_to_str,
    bitwise_mutate,
    child_seed,
    count_ones,
    dominance,
    dominates,
    euclidean_distance,
    random_bitstring,
    stream,
)
from .evolve import AlgorithmConfig, GenerationTrace, RunResult, RunState, run, target_hit
from .lab import (
    ExperimentPlan,
    StatTestResult,
    SummaryRow,
    TrialRecord,
    Variant,
    loglog_slope,
    preset_plans,
    rank_sum_test,
    run_experiment,
    summarize,
)
from .problems import (
    NkInstance,
    NkLandscape,
    OjzjClass,
    OneJumpZeroJump,
    OneMinMax,
    OneMinMaxStar,
    ParetoFront,
    batch_evaluator,
    classify_ojzj,
    default_reference_point,
    enumerate_pareto_front,
    evaluate,
    generate_nk_instance,
    pareto_front_closed_form,
)
from .survival import (
    CrowdingDistance,
    ReferencePointDistance,
    crowding_distance_assign,
    fast_nondominated_sort,
    reference_distances,
    survival_select,
)

__version__ = "0.1.0"
