"""Multi-run experiments: 30-run statistics, acceleration rates, comparison tables."""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, integer
from .engine import RunResult, TerminationRule, VariantConfig, run
from .problems import Problem

# Report formatting threshold: statistics whose magnitude falls below this are
# written as exact zero.
ZERO_THRESHOLD = 1e-20


@dataclass(frozen=True)
class ExperimentStats:
    """Cross-run aggregates for one (problem, variant) pair."""

    problem: str
    variant: str
    dim: int
    runs: int
    best: float
    mean: float
    sd: float
    mean_nfe: float


Cell = tuple[Problem, VariantConfig, TerminationRule]


def run_batches(cells: list[Cell], runs: int, base_seed: int,
                jobs: int = 1) -> list[list[RunResult]]:
    """`runs` independent seeded runs of every (problem, config, termination) cell.

    Returns one result list per cell, in cell order; run i of every cell
    uses seed base_seed + i. With jobs > 1 every run of every cell goes to
    one process pool of min(jobs, total runs) workers, and the results are
    collected in submission order, so they equal the serial ones bit for
    bit. The problems are sent to the workers, so each `evaluate` must
    pickle: a module-level function or a callable instance. The first run
    to raise cancels the runs still queued, and its error propagates once
    the running ones have ended.
    """
    runs = integer("runs", runs)
    base_seed = integer("base_seed", base_seed)
    jobs = integer("jobs", jobs)
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs!r}")
    if base_seed < 0:  # refused before any run starts
        raise ConfigurationError(f"base_seed must be >= 0, got {base_seed!r}")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs!r}")
    tasks = [(cell, base_seed + i) for cell in cells for i in range(runs)]
    workers = min(jobs, len(tasks))
    if workers <= 1:
        results = [run(*cell, seed) for cell, seed in tasks]
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(run, *cell, seed) for cell, seed in tasks]
            results = [f.result() for f in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    return [results[k:k + runs] for k in range(0, len(results), runs)]


def run_batch(problem: Problem, config: VariantConfig, termination: TerminationRule,
              runs: int, base_seed: int, jobs: int = 1) -> list[RunResult]:
    """Independent seeded runs, seed = base_seed + index; order follows the seeds.

    One cell of `run_batches`, with the same pool and pickling rules.
    """
    return run_batches([(problem, config, termination)], runs, base_seed, jobs)[0]


def aggregate(problem: Problem, variant: str, results: list[RunResult],
              sample_sd: bool = False) -> ExperimentStats:
    """Best/mean/SD of final objectives plus mean NFE, in the user's sense."""
    bests = np.array([r.best_objective for r in results])
    best = float(bests.max() if problem.direction == "maximize" else bests.min())
    ddof = 1 if sample_sd and len(results) > 1 else 0
    return ExperimentStats(
        problem=problem.name,
        variant=variant,
        dim=problem.dimension,
        runs=len(results),
        best=best,
        mean=float(bests.mean()),
        sd=float(bests.std(ddof=ddof)),
        mean_nfe=float(np.mean([r.nfe for r in results])),
    )


def acceleration_rate(nfe_compared: float, nfe_baseline: float) -> float:
    """Percent of the compared variant's NFE that the baseline saves:
    100 * (compared - baseline) / compared; positive when the baseline is faster.

    `compare_table` passes each variant as `compared` and its baseline (the
    CLI's `--baseline`, the promoted method) as `baseline`, so AR(306, 197) =
    35.62 reads "the baseline needs 35.62% fewer evaluations".
    """
    if nfe_compared <= 0:
        raise ValueError(f"compared NFE must be positive, got {nfe_compared!r}")
    return 100.0 * (nfe_compared - nfe_baseline) / nfe_compared


@dataclass(frozen=True)
class ComparisonTable:
    """NFE columns per variant plus pairwise acceleration rates against a baseline.

    `ar[variant][problem]` holds the signed rate even where the baseline is
    slower; `slower` flags those cells (rendered as "---"). Averages include
    the signed values as-is, so slower cells pull the footer average down.
    """

    problems: tuple[str, ...]
    variants: tuple[str, ...]
    baseline: str
    nfe: dict[str, dict[str, float]]  # variant -> problem -> mean NFE
    ar: dict[str, dict[str, float]]   # non-baseline variant -> problem -> AR
    slower: dict[str, dict[str, bool]]
    average_ar: dict[str, float]


def compare_table(stats: list[ExperimentStats], baseline_variant: str) -> ComparisonTable:
    """Build the per-problem NFE/AR comparison against `baseline_variant`."""
    variants = tuple(dict.fromkeys(s.variant for s in stats))
    if baseline_variant not in variants:
        raise ConfigurationError(f"baseline {baseline_variant!r} not among the stats")
    by_variant: dict[str, dict[str, float]] = {v: {} for v in variants}
    for s in stats:
        by_variant[s.variant][s.problem] = s.mean_nfe
    problems = tuple(by_variant[baseline_variant])
    for v in variants:
        if tuple(by_variant[v]) != problems:
            raise ConfigurationError(f"variant {v!r} does not cover the same problems")

    others = tuple(v for v in variants if v != baseline_variant)
    ar: dict[str, dict[str, float]] = {}
    slower: dict[str, dict[str, bool]] = {}
    average_ar: dict[str, float] = {}
    for v in others:
        ar[v] = {
            p: acceleration_rate(by_variant[v][p], by_variant[baseline_variant][p])
            for p in problems
        }
        slower[v] = {p: ar[v][p] < 0 for p in problems}
        average_ar[v] = sum(ar[v].values()) / len(problems)
    return ComparisonTable(
        problems=problems,
        variants=variants,
        baseline=baseline_variant,
        nfe=by_variant,
        ar=ar,
        slower=slower,
        average_ar=average_ar,
    )


def convergence_export(results: list[RunResult]) -> tuple[np.ndarray, np.ndarray]:
    """Median best-objective across runs on a common NFE grid.

    The grid is the sorted union of all trace NFE values; each trace is
    linearly interpolated onto it (held flat beyond its ends).
    """
    if not results:
        raise ValueError("no runs to export")
    grid = np.unique(np.concatenate([[n for n, _ in r.trace] for r in results]))
    series = np.empty((len(results), grid.size))
    for row, r in enumerate(results):
        xs = np.array([n for n, _ in r.trace], dtype=float)
        ys = np.array([f for _, f in r.trace])
        series[row] = np.interp(grid, xs, ys)
    return grid, np.median(series, axis=0)


def format_stat(value: float) -> str:
    """Report-table cell: values under the zero threshold print as 0."""
    if abs(value) < ZERO_THRESHOLD:
        return "0"
    return f"{value:.2E}"
