"""The benchmark's workloads: their inputs, one round of work, and its checks.

A round is the same list of operations every time, with the same seeds, so
every round of a run must give bit-identical results. A run repeats rounds
until its time is up and reports medians over them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from beehive import (
    ENGINEERING_NAMES,
    STRATEGIES,
    Bounds,
    ConfigurationError,
    LJConfig,
    Problem,
    TerminationRule,
    VariantConfig,
    cli,
    make_problem,
    run,
    run_batch,
)
from beehive.harness import aggregate
from beehive.problems import make_lennard_jones

import checks
from calibration import Clock

CHEAP_DIMENSION = 30
CHEAP_ACCURACY = 1e-8
CHEAP_CAP = 200_000
LJ_ATOMS = 13
LJ_BUDGET = 5_000
ENG_RUNS = 2
ENG_MAX_NFE = 8_000   # about 75 cycles per run, so scouts fire (limit 100)
ENG_JOBS = 2
# Loops per sample of the ENG_JOBS-core clock: one concurrent sample varies
# more than one single-core sample, and the mean of three tracked blocks best.
ENG_CLOCK_REPEATS = 3
PARALLEL_SEEDS = (1, 2)  # fixed: the parallel checks do not depend on --seed
PARALLEL_MAX_NFE = 2_000
# Serial pair i runs with seed SEED_STRIDE * seed + i. Pairs on one box with
# one seed would share their initial colony, so one lucky seed would speed up
# every pair at once and the run's totals would swing with it.
SEED_STRIDE = 100


@dataclass(frozen=True)
class Pair:
    """One (problem, strategy) cell of a workload, with its independent checks."""

    problem: Problem
    config: VariantConfig
    termination: TerminationRule
    reference: Callable | None  # independent objective, or None
    lower: np.ndarray
    upper: np.ndarray

    @property
    def key(self) -> str:
        return f"{self.problem.name}/{self.config.strategy}"

    def check(self, result) -> list[str]:
        target, accuracy = self.termination.target, self.termination.accuracy
        reached = None if target is None else (lambda best: abs(best - target) <= accuracy)
        errors = checks.check_run(
            result, lower=self.lower, upper=self.upper,
            cap=self.termination.max_nfe,
            cycle_evals=checks.max_cycle_evals(self.config),
            reference=self.reference,
            maximize=self.problem.direction == "maximize",
            reached=reached,
        )
        return [f"{self.key} seed {result.seed}: {e}" for e in errors]


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def peak_rss_mb(with_workers: bool) -> float:
    """Peak resident memory of this process, plus that of its largest child
    when the workload has pool workers (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_workers:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def layer_metrics(tracer, *, results, rounds: int, round_wall: float, work_wall: float,
                  serial_wall: float, overhead: float) -> dict:
    """Per-layer figures from a traced run.

    `round_wall` is the traced rounds' wall time and `work_wall` the part of it
    spent in runs (serial) or `run_batch` (engineering); `serial_wall` is the
    untraced serial wall of the runs one parallel block makes (0: no block);
    `overhead` is the traced work's calibrated time over the same work untraced.
    """
    t = tracer
    run_time = sum(t.durations("run"))
    n_scout = len(t.durations("scout"))
    n_adapt = len(t.durations("adapt"))
    batch_per_round = t.time["run_batch"] / rounds
    us = 1e6
    return {
        "problems.evaluate_us": (_ratio(t.time["evaluate"], t.evals) * us, "us/call"),
        "problems.objective_share": (_ratio(t.time["evaluate"], run_time), "ratio"),
        "core.random_calls_per_eval": (_ratio(t.random_calls, t.evals), "count"),
        "core.random_position_us": (
            _ratio(t.time["random_position"], t.calls["random_position"]) * us, "us/call"),
        "engine.employed_us_per_eval": (
            _ratio(sum(t.durations("employed")), t.phase_evals["employed"]) * us, "us"),
        "engine.onlooker_us_per_eval": (
            _ratio(sum(t.durations("onlooker")), t.phase_evals["onlooker"]) * us, "us"),
        "engine.onlooker_draws_per_placement": (
            _ratio(t.phase_random["onlooker"] - t.candidate_random["onlooker"],
                   t.candidate_calls["onlooker"]), "count"),
        "engine.candidate_us": (
            _ratio(t.time["candidate"], sum(t.candidate_calls.values())) * us, "us/call"),
        "engine.greedy_select_self_us": (
            _ratio(t.time["greedy_select"] - t.time["greedy_select_evaluate"],
                   t.calls["greedy_select"]) * us, "us/call"),
        "engine.accept_ratio": (_ratio(t.accepted, t.calls["greedy_select"]), "ratio"),
        "engine.scout_us": (_ratio(sum(t.durations("scout")), n_scout) * us, "us/call"),
        "engine.scouts_per_cycle": (_ratio(t.phase_evals["scout"], n_scout), "count"),
        "engine.adapt_us": (_ratio(sum(t.durations("adapt")), n_adapt) * us, "us/call"),
        "engine.colony_size_mean": (
            statistics.fmean(t.colony_sizes) if t.colony_sizes else 0.0, "count"),
        "engine.cycles": (statistics.fmean(r.cycles for r in results), "count"),
        "harness.pools_created": (t.calls["pool"] / rounds, "count"),
        "harness.parallel_speedup": (_ratio(serial_wall, batch_per_round), "ratio"),
        "harness.result_pickle_bytes": (_ratio(t.pickle_bytes, t.pickled_runs), "B/run"),
        "cli.write_ms": (t.time["write"] / rounds * 1e3, "ms"),
        "cli.overhead_s": ((round_wall - work_wall - t.time["write"]) / rounds, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


# ---------------------------------------------------------------------------
# Serial workloads: seeded run() calls, one per (problem, strategy) pair
# ---------------------------------------------------------------------------

@dataclass
class Round:
    results: list
    walls: list[float]  # seconds of each run() call
    cals: list[float]   # the same in calibration loops
    wall: float         # seconds of the runs and their trace CSVs
    cal: float          # the same in calibration loops


class SerialWorkload:
    def __init__(self, problems: Callable, termination: TerminationRule,
                 extra_check: Callable):
        self._problems = problems
        self.termination = termination
        self.extra_check = extra_check

    def build(self) -> list[Pair]:
        pairs = []
        for problem, reference, half_width in self._problems():
            lower = np.full(problem.dimension, -half_width)
            for strategy in STRATEGIES:
                pairs.append(Pair(problem, VariantConfig(strategy), self.termination,
                                  reference, lower, -lower))
        return pairs

    def _round(self, pairs, seed, out_dir: Path, clock, tracer=None) -> Round:
        results, walls, cals = [], [], []
        for i, pair in enumerate(pairs):
            problem = tracer.objective(pair.problem) if tracer else pair.problem
            run_seed = SEED_STRIDE * seed + i
            mark = clock.mark()
            t0 = perf_counter()
            if tracer:
                with tracer.span("run"):
                    result = run(problem, pair.config, pair.termination, run_seed)
            else:
                result = run(problem, pair.config, pair.termination, run_seed)
            walls.append(perf_counter() - t0)
            clock.sample()
            cals.append(clock.cal(walls[-1], mark))
            results.append(result)
        mark = clock.mark()
        t0 = perf_counter()
        for pair, result in zip(pairs, results):
            # what `beehive run --traces` writes for each seeded run
            name = f"{pair.problem.name}_{pair.config.strategy}_trace_seed{result.seed}.csv"
            cli.write_trace_csv(out_dir / name, result)
        write = perf_counter() - t0
        return Round(results, walls, cals, sum(walls) + write,
                     sum(cals) + clock.cal(write, mark))

    def _check(self, pairs, rounds: list[Round]) -> tuple[list[str], str]:
        errors = []
        for pair, result in zip(pairs, rounds[0].results):
            errors += pair.check(result)
            errors += [f"{pair.key}: {e}" for e in self.extra_check(result)]
        first = checks.digest(rounds[0].results)
        if any(checks.digest(r.results) != first for r in rounds[1:]):
            errors.append("a repeated round with the same seeds gave different results")
        return errors, first

    def measure(self, seed: int, seconds: float, out_dir: Path, between: Callable) -> Outcome:
        pairs = self.build()
        clock = Clock()
        rounds: list[Round] = []
        start = perf_counter()
        while not rounds or perf_counter() - start < seconds:
            rounds.append(self._round(pairs, seed, out_dir, clock))
            between()
        rss = peak_rss_mb(with_workers=False)  # before the checks import scipy
        errors, dig = self._check(pairs, rounds)
        first = rounds[0].results
        nfe = sum(r.nfe for r in first) * len(rounds)

        def per_run(attr):
            return geomean(statistics.median(getattr(rnd, attr)[i] for rnd in rounds)
                           for i in range(len(pairs)))

        metrics = {
            "run_cal": (per_run("cals"), "cal"),
            "evals_per_cal": (nfe / sum(sum(rnd.cals) for rnd in rounds), "1/cal"),
            "nfe_to_target": (geomean(r.nfe for r in first), "evaluations"),
            "block_cal": (statistics.median(rnd.cal for rnd in rounds), "cal"),
            "peak_rss_mb": (rss, "MB"),
        }
        at_cap = sum(r.nfe >= self.termination.max_nfe for r in first)
        notes = [
            f"digest seed={seed} sha256={dig}",
            f"rounds={len(rounds)} runs_per_round={len(pairs)} runs_at_cap={at_cap}",
            f"raw: run_s={per_run('walls'):.4f} "
            f"block_s={statistics.median(rnd.wall for rnd in rounds):.4f} "
            f"evals_per_s={nfe / sum(sum(rnd.walls) for rnd in rounds):.1f} "
            f"calibration_ms={statistics.median(clock.samples) * 1e3:.3f}",
        ]
        return Outcome(metrics, len(rounds) * len(pairs), 0, errors, notes)

    def trace(self, seed: int, seconds: float, out_dir: Path, tracer) -> Outcome:
        pairs = self.build()
        clock = Clock()
        plain: list[Round] = []
        traced: list[Round] = []
        start = perf_counter()
        while not plain or perf_counter() - start < seconds:
            plain.append(self._round(pairs, seed, out_dir, clock))
            with tracer.engine_probes(), tracer.harness_probes(), tracer.span("round"):
                traced.append(self._round(pairs, seed, out_dir, clock, tracer))
            tracer.count_results(traced[-1].results)
        errors, dig = self._check(pairs, plain)
        if any(checks.digest(r.results) != dig for r in traced):
            errors.append("tracing changed the seeded results")
        metrics = layer_metrics(
            tracer, results=traced[0].results, rounds=len(traced),
            round_wall=sum(r.wall for r in traced),
            work_wall=sum(sum(r.walls) for r in traced), serial_wall=0.0,
            overhead=sum(r.cal for r in traced) / sum(r.cal for r in plain))
        rounds = len(plain) + len(traced)
        return Outcome(metrics, rounds * len(pairs), 0, errors,
                       [f"digest seed={seed} sha256={dig}"])


def _cheap_problems():
    return [(make_problem("sphere", CHEAP_DIMENSION), checks.sphere, 5.12),
            (make_problem("rastrigin", CHEAP_DIMENSION), checks.rastrigin, 5.12)]


def _cheap_extra(result) -> list[str]:
    return [] if result.best_objective >= 0.0 else [f"best {result.best_objective!r} < 0"]


def _lj_problems():
    return [(make_lennard_jones(LJConfig(LJ_ATOMS)), checks.lennard_jones,
             2.0 * LJ_ATOMS ** (1.0 / 3.0))]


def _lj_extra(result) -> list[str]:
    errors = []
    if not result.best_objective < result.trace[0][1]:
        errors.append(f"best {result.best_objective!r} did not improve on the "
                      f"initial {result.trace[0][1]!r}")
    if result.best_objective < checks.LJ13_GLOBAL_MIN - 1e-6:
        errors.append(f"best {result.best_objective!r} is below the LJ13 global minimum")
    return errors


# ---------------------------------------------------------------------------
# Engineering batch: `beehive bench engineering` through cli.main
# ---------------------------------------------------------------------------

def shifted_sphere(x) -> float:
    """A user-defined objective: module-level, so a Problem using it pickles."""
    d = np.asarray(x, dtype=float) - 1.0
    return float(np.dot(d, d))


def parallel_cases() -> list[Problem]:
    """Problems that `make_problem(name, dimension)` cannot rebuild in a worker."""
    return [
        make_lennard_jones(LJConfig(3, box_half_width=0.4)),
        Problem(name="shifted_sphere", dimension=4, bounds=Bounds.cube(-5.0, 5.0, 4),
                evaluate=shifted_sphere),
    ]


def parallel_matches_serial(problem: Problem) -> bool:
    """One operation: `run_batch(jobs=2)` must equal the same runs made serially."""
    config = VariantConfig()
    termination = TerminationRule(max_nfe=PARALLEL_MAX_NFE)
    serial = [run(problem, config, termination, s) for s in PARALLEL_SEEDS]
    try:
        parallel = run_batch(problem, config, termination, runs=len(PARALLEL_SEEDS),
                             base_seed=PARALLEL_SEEDS[0], jobs=ENG_JOBS)
    except ConfigurationError:
        return False
    return all(checks.same_result(a, b) for a, b in zip(serial, parallel))


@dataclass
class Block:
    wall: float  # seconds of the `beehive bench engineering` invocation
    cal: float   # the same in calibration loops
    stats: list[dict]
    comparison: dict
    failed: int


@dataclass
class Reference:
    """The block's runs made serially, per pair, with their timings."""

    results: list[list]
    walls: list[list[float]]
    cals: list[list[float]]
    wall: float


class EngineeringWorkload:
    def build(self) -> list[Pair]:
        pairs = []
        for name in ENGINEERING_NAMES:
            problem = make_problem(name)
            reference = checks.lennard_jones if name == "lennard_jones" else None
            for strategy in STRATEGIES:
                # the CLI's defaults: accuracy stop only where an optimum is known
                termination = TerminationRule(max_nfe=ENG_MAX_NFE, target=problem.known_optimum)
                pairs.append(Pair(problem, VariantConfig(strategy), termination, reference,
                                  problem.bounds.lower, problem.bounds.upper))
        parallel_cases()  # built here too, so set-up time covers every problem
        return pairs

    def _reference(self, pairs, seed, clock, tracer=None) -> Reference:
        results, walls, cals = [], [], []
        total = 0.0
        for pair in pairs:
            problem = tracer.objective(pair.problem) if tracer else pair.problem
            mark = clock.mark()
            rs, ws = [], []
            for i in range(ENG_RUNS):
                t0 = perf_counter()
                if tracer:
                    with tracer.span("run"):
                        rs.append(run(problem, pair.config, pair.termination, seed + i))
                else:
                    rs.append(run(problem, pair.config, pair.termination, seed + i))
                ws.append(perf_counter() - t0)
            clock.sample()  # a pair's runs are too short to sample one by one
            total += sum(ws)
            results.append(rs)
            walls.append(ws)
            cals.append([clock.cal(w, mark) for w in ws])
        return Reference(results, walls, cals, total)

    def _block(self, seed, out_dir: Path, clock, tracer=None) -> Block:
        """One `beehive bench engineering` invocation; `clock` samples ENG_JOBS cores."""
        argv = ["bench", "engineering", "--runs", str(ENG_RUNS),
                "--max-nfe", str(ENG_MAX_NFE), "--jobs", str(ENG_JOBS),
                "--seed", str(seed), "--output-dir", str(out_dir)]
        probes = tracer.harness_probes() if tracer else contextlib.nullcontext()
        mark = clock.mark()
        with contextlib.redirect_stdout(io.StringIO()), probes:
            t0 = perf_counter()
            code = cli.main(argv)
            wall = perf_counter() - t0
        clock.sample()
        if code != 0:
            raise RuntimeError(f"beehive {' '.join(argv)} exited with {code}")
        stats = json.loads((out_dir / "stats.json").read_text())
        comparison = json.loads((out_dir / "comparison.json").read_text())
        failed = sum(not parallel_matches_serial(p) for p in parallel_cases())
        return Block(wall, clock.cal(wall, mark), stats, comparison, failed)

    def _check(self, pairs, ref: Reference, blocks: list[Block]) -> tuple[list[str], str]:
        errors = []
        expected = []
        for pair, rs in zip(pairs, ref.results):
            for r in rs:
                errors += pair.check(r)
            stats = aggregate(pair.problem, pair.config.strategy, rs)
            expected.append(json.loads(json.dumps(vars(stats))))
        for b in blocks:
            errors += checks.check_stats(b.stats, expected)
            errors += checks.check_comparison(b.comparison, b.stats)
        return errors, checks.digest(r for rs in ref.results for r in rs)

    def _attempted(self, pairs, blocks: int) -> int:
        return blocks * (ENG_RUNS * len(pairs) + len(parallel_cases()))

    def measure(self, seed: int, seconds: float, out_dir: Path, between: Callable) -> Outcome:
        pairs = self.build()
        clock = Clock()
        ref = self._reference(pairs, seed, clock)
        blocks: list[Block] = []
        with Clock(cores=ENG_JOBS, repeats=ENG_CLOCK_REPEATS) as jobs_clock:
            start = perf_counter()
            while not blocks or perf_counter() - start < seconds:
                blocks.append(self._block(seed, out_dir, jobs_clock))
                between()
        rss = peak_rss_mb(with_workers=True)  # before the checks import scipy
        errors, dig = self._check(pairs, ref, blocks)
        nfe = sum(s["mean_nfe"] * s["runs"] for s in blocks[0].stats) * len(blocks)

        def per_run(timings):
            return geomean(statistics.median(ts) for ts in timings)

        metrics = {
            "run_cal": (per_run(ref.cals), "cal"),
            "evals_per_cal": (nfe / sum(b.cal for b in blocks), "1/cal"),
            "nfe_to_target": (geomean(statistics.median(r.nfe for r in rs)
                                      for rs in ref.results), "evaluations"),
            "block_cal": (statistics.median(b.cal for b in blocks), "cal"),
            "peak_rss_mb": (rss, "MB"),
        }
        notes = [
            f"digest seed={seed} sha256={dig}",
            f"blocks={len(blocks)} parallel_checks_failed_per_block={blocks[0].failed}",
            f"raw: run_s={per_run(ref.walls):.4f} "
            f"block_s={statistics.median(b.wall for b in blocks):.4f} "
            f"evals_per_s={nfe / sum(b.wall for b in blocks):.1f} "
            f"calibration_ms={statistics.median(clock.samples) * 1e3:.3f} "
            f"on {ENG_JOBS} cores={statistics.median(jobs_clock.samples) * 1e3:.3f}",
        ]
        return Outcome(metrics, self._attempted(pairs, len(blocks)),
                       sum(b.failed for b in blocks), errors, notes)

    def trace(self, seed: int, seconds: float, out_dir: Path, tracer) -> Outcome:
        pairs = self.build()
        clock = Clock()
        ref = self._reference(pairs, seed, clock)
        with tracer.engine_probes():
            traced_ref = self._reference(pairs, seed, clock, tracer)
        plain: list[Block] = []
        traced: list[Block] = []
        with Clock(cores=ENG_JOBS, repeats=ENG_CLOCK_REPEATS) as jobs_clock:
            start = perf_counter()
            while not plain or perf_counter() - start < seconds:
                plain.append(self._block(seed, out_dir, jobs_clock))
                with tracer.span("cli.main"):
                    traced.append(self._block(seed, out_dir, jobs_clock, tracer))
        errors, dig = self._check(pairs, ref, plain + traced)
        if checks.digest(r for rs in traced_ref.results for r in rs) != dig:
            errors.append("tracing changed the seeded results")
        overhead = ((sum(map(sum, traced_ref.cals)) + sum(b.cal for b in traced))
                    / (sum(map(sum, ref.cals)) + sum(b.cal for b in plain)))
        metrics = layer_metrics(
            tracer, results=[r for rs in ref.results for r in rs], rounds=len(traced),
            round_wall=sum(b.wall for b in traced), work_wall=tracer.time["run_batch"],
            serial_wall=ref.wall, overhead=overhead)
        return Outcome(metrics, self._attempted(pairs, len(plain) + len(traced)),
                       sum(b.failed for b in plain + traced), errors,
                       [f"digest seed={seed} sha256={dig}"])


WORKLOADS = {
    "cheap-d30": SerialWorkload(
        _cheap_problems,
        TerminationRule(max_nfe=CHEAP_CAP, accuracy=CHEAP_ACCURACY, target=0.0),
        extra_check=_cheap_extra),
    "lj13-budget": SerialWorkload(
        _lj_problems, TerminationRule(max_nfe=LJ_BUDGET), extra_check=_lj_extra),
    "engineering-batch": EngineeringWorkload(),
}
