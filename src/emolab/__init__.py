"""emolab: a desk-scale lab for NSGA-II and reference-point R-NSGA-II on
bi-objective bitstring benchmarks, with brute-force oracles and a seeded,
reproducible experiment harness."""

from .core import (
    bitwise_mutate,
    child_seed,
    stream,
)
from .evolve import AlgorithmConfig, GenerationTrace, RunResult, RunState, run
from .lab import (
    CellTrials,
    ExperimentPlan,
    SummaryRow,
    Variant,
    preset_plans,
    run_experiment,
    summarize,
)
from .problems import (
    NkLandscape,
    OneJumpZeroJump,
    OneMinMax,
    OneMinMaxStar,
    enumerate_pareto_front,
    generate_nk_instance,
)
from .survival import (
    CrowdingDistance,
    ReferencePointDistance,
    reference_distances,
    survival_select,
)

__version__ = "0.1.0"
