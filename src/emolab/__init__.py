"""emolab: a desk-scale lab for NSGA-II and reference-point R-NSGA-II on
bi-objective bitstring benchmarks, with brute-force oracles and a seeded,
reproducible experiment harness."""

from .core import (
    bits_from_str,
    bitwise_mutate,
    child_seed,
    dominates,
    random_bitstring,
    stream,
)
from .evolve import AlgorithmConfig, GenerationTrace, RunResult, RunState, run
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
    NkLandscape,
    OneJumpZeroJump,
    OneMinMax,
    OneMinMaxStar,
    batch_evaluator,
    default_reference_point,
    enumerate_pareto_front,
    evaluate,
    generate_nk_instance,
    pareto_front,
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
