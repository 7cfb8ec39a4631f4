"""Bee colony optimization library with adaptive colony sizing and an experiment harness."""

from .core import Bounds, ConfigurationError, RngStream
from .engine import (
    STRATEGIES,
    RunResult,
    TerminationRule,
    Trace,
    VariantConfig,
    fitness_map,
    run,
)
from .harness import (
    ExperimentStats,
    acceleration_rate,
    compare_table,
    convergence_export,
    run_batch,
    run_batches,
)
from .problems import (
    BENCHMARK_NAMES,
    ENGINEERING_NAMES,
    PROBLEM_NAMES,
    LJConfig,
    Problem,
    make_problem,
)

__all__ = [
    "Bounds",
    "ConfigurationError",
    "RngStream",
    "STRATEGIES",
    "RunResult",
    "TerminationRule",
    "Trace",
    "VariantConfig",
    "fitness_map",
    "run",
    "ExperimentStats",
    "acceleration_rate",
    "compare_table",
    "convergence_export",
    "run_batch",
    "run_batches",
    "BENCHMARK_NAMES",
    "ENGINEERING_NAMES",
    "PROBLEM_NAMES",
    "LJConfig",
    "Problem",
    "make_problem",
]
