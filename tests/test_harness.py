"""Batch statistics, acceleration rates, comparison tables, convergence export."""
import math
import multiprocessing
import re
from concurrent.futures import Future

import numpy as np
import pytest

from beehive.core import Bounds, ConfigurationError
from beehive import harness
from beehive.engine import RunResult, TerminationRule, VariantConfig, run
from beehive.harness import (
    ExperimentStats,
    acceleration_rate,
    aggregate,
    compare_table,
    convergence_export,
    format_stat,
    run_batch,
    run_batches,
)
from beehive.problems import LJConfig, Problem, make_lennard_jones, make_problem
from test_golden import SCOUTING
from test_problems import DESIGNS


def shifted_sphere(x):
    """A user objective at module level, so a Problem using it pickles."""
    d = np.asarray(x, dtype=float) - 1.0
    return float(np.dot(d, d))


def nan_objective(x):
    return float("nan")


def same_result(a, b):
    """Bit-identical seeded outputs."""
    return (a.seed == b.seed and a.best_objective == b.best_objective
            and a.best_position.tobytes() == b.best_position.tobytes()
            and a.nfe == b.nfe and a.trace == b.trace)


USER_PROBLEM = Problem(name="shifted_sphere", dimension=4, bounds=Bounds.cube(-5.0, 5.0, 4),
                       evaluate=shifted_sphere)


class RecordingExecutor:
    """In-process stand-in for the process pool: records its arguments and
    runs each submitted call at once, so no process starts."""

    created: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


def stub_result(best, nfe=100, seed=0, trace=None):
    if trace is None:
        trace = ((0, best * 2), (nfe, best))
    return RunResult(best_objective=best, best_position=np.zeros(2),
                     nfe=nfe, cycles=1, trace=trace, seed=seed)


def stub_stats(problem, variant, mean_nfe):
    return ExperimentStats(problem=problem, variant=variant, dim=2, runs=30,
                           best=0.0, mean=0.0, sd=0.0, mean_nfe=mean_nfe)


class TestRunBatch:
    def test_seeds_are_consecutive(self):
        problem = make_problem("sphere", dimension=2)
        results = run_batch(problem, VariantConfig(strategy="basic"),
                            TerminationRule(max_nfe=500), runs=3, base_seed=10)
        assert [r.seed for r in results] == [10, 11, 12]

    def test_parallel_matches_sequential(self):
        problem = make_problem("rastrigin", dimension=3)
        config = VariantConfig(strategy="sac2", initial_colony=20, sn_min=10, sn_max=20)
        term = TerminationRule(max_nfe=2000)
        seq = run_batch(problem, config, term, runs=4, base_seed=7, jobs=1)
        par = run_batch(problem, config, term, runs=4, base_seed=7, jobs=2)
        assert len(par) == 4
        assert all(same_result(a, b) for a, b in zip(seq, par))

    @pytest.mark.parametrize("problem", [
        make_lennard_jones(LJConfig(3, box_half_width=0.4)),
        USER_PROBLEM,
    ], ids=["lj3-box0.4", "user-problem"])
    def test_parallel_matches_serial_for_problems_without_a_registry_name(self, problem):
        config = VariantConfig()
        term = TerminationRule(max_nfe=2000)
        seq = run_batch(problem, config, term, runs=2, base_seed=1, jobs=1)
        par = run_batch(problem, config, term, runs=2, base_seed=1, jobs=2)
        assert len(par) == 2
        assert all(same_result(a, b) for a, b in zip(seq, par))

    def test_zero_runs_rejected(self):
        problem = make_problem("sphere", dimension=2)
        with pytest.raises(ConfigurationError):
            run_batch(problem, VariantConfig(), TerminationRule(), runs=0, base_seed=0)


def mixed_cells():
    """Cells of different problems, strategies and budgets, one user-defined."""
    return [
        (make_problem("sphere", dimension=2), VariantConfig("basic"), TerminationRule(max_nfe=600)),
        (USER_PROBLEM, VariantConfig("sac1"), TerminationRule(max_nfe=900)),
        (make_problem("gear_train"), VariantConfig("sac"), TerminationRule(max_nfe=700)),
        (make_lennard_jones(LJConfig(3, box_half_width=0.4)), VariantConfig("sac2"),
         TerminationRule(max_nfe=500)),
    ]


class TestRunBatches:
    @staticmethod
    def check_equal_to_serial_runs(cells, jobs):
        batches = run_batches(cells, runs=2, base_seed=5, jobs=jobs)
        assert len(batches) == len(cells)
        for (problem, config, term), results in zip(cells, batches):
            expected = [run(problem, config, term, seed) for seed in (5, 6)]
            assert len(results) == 2
            assert all(same_result(a, b) for a, b in zip(expected, results))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_cells_equal_serial_runs(self, jobs):
        self.check_equal_to_serial_runs(mixed_cells(), jobs)

    def test_hooked_designs_in_workers_equal_serial_runs(self):
        # their `OnFloats` objectives pickle into the workers with their hooks
        config = VariantConfig("sac1", **SCOUTING)
        cells = [(make_problem(name), config, TerminationRule(max_nfe=1500))
                 for name in DESIGNS]
        self.check_equal_to_serial_runs(cells, jobs=2)

    @pytest.mark.parametrize("n_cells, runs, jobs, workers", [
        (1, 2, 8, [2]),
        (3, 1, 8, [3]),
        (3, 2, 2, [2]),
        (1, 1, 8, []),
        (3, 2, 1, []),
    ])
    def test_workers_capped_at_the_run_count(self, monkeypatch, n_cells, runs, jobs, workers):
        monkeypatch.setattr(RecordingExecutor, "created", [])
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingExecutor)
        cells = mixed_cells()[:n_cells]
        batches = run_batches(cells, runs=runs, base_seed=1, jobs=jobs)
        assert RecordingExecutor.created == workers
        assert [[r.seed for r in rs] for rs in batches] == [list(range(1, runs + 1))] * n_cells

    @pytest.mark.parametrize("args,named", [
        (dict(runs=2.5), "runs must be an integer, got 2.5"),
        (dict(base_seed=0.5), "base_seed must be an integer, got 0.5"),
        (dict(jobs=1.5), "jobs must be an integer, got 1.5"),
        (dict(runs=True), "runs must be an integer, got True"),
        (dict(base_seed=True), "base_seed must be an integer, got True"),
        (dict(jobs=True), "jobs must be an integer, got True"),
        (dict(base_seed=-2, runs=3), "base_seed must be >= 0, got -2"),
    ])
    def test_bad_count_or_seed_is_refused_before_any_run(self, monkeypatch, args, named):
        # 0.5 ran seeds 0.5 and 1.5 as seeds 0 and 1, and jobs=1.5 was accepted
        started = []
        monkeypatch.setattr(harness, "run", lambda *a: started.append(a))
        cells = mixed_cells()[:1]
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            run_batches(cells, **{**dict(runs=2, base_seed=0, jobs=1), **args})
        assert started == []

    def test_numpy_counts_and_seed_are_ints(self):
        [results] = run_batches(mixed_cells()[:1], runs=np.int64(2), base_seed=np.int32(3),
                                jobs=np.int8(1))
        assert [type(r.seed) for r in results] == [int, int]
        assert [r.seed for r in results] == [3, 4]

    def test_first_failure_cancels_the_queue_and_leaves_no_worker(self, monkeypatch):
        submitted = []

        class SpyPool(harness.ProcessPoolExecutor):
            def submit(self, *args):
                submitted.append(super().submit(*args))
                return submitted[-1]

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SpyPool)
        nan_problem = Problem(name="nan_problem", dimension=2,
                              bounds=Bounds.cube(-1.0, 1.0, 2), evaluate=nan_objective)
        cells = [(nan_problem, VariantConfig(), TerminationRule(max_nfe=1000))]
        cells += [(make_problem("rastrigin", dimension=10), VariantConfig(),
                   TerminationRule(max_nfe=20_000))] * 5
        with pytest.raises(ValueError, match="nan_problem"):
            run_batches(cells, runs=2, base_seed=1, jobs=2)
        assert multiprocessing.active_children() == []
        assert len(submitted) == 12
        assert any(f.cancelled() for f in submitted)


class TestAggregate:
    def test_single_run(self):
        problem = make_problem("sphere", dimension=2)
        stats = aggregate(problem, "basic", [stub_result(3.5, nfe=120)])
        assert stats.best == stats.mean == 3.5
        assert stats.sd == 0.0
        assert stats.mean_nfe == 120.0
        assert stats.runs == 1

    def test_known_values(self):
        problem = make_problem("sphere", dimension=2)
        results = [stub_result(v, nfe=n) for v, n in [(1.0, 100), (2.0, 200), (6.0, 300)]]
        stats = aggregate(problem, "basic", results)
        assert stats.best == 1.0
        assert stats.mean == 3.0
        assert abs(stats.sd - math.sqrt(14.0 / 3.0)) < 1e-12
        assert stats.mean_nfe == 200.0

    def test_sample_sd_uses_n_minus_one(self):
        problem = make_problem("sphere", dimension=2)
        results = [stub_result(v) for v in (1.0, 2.0, 6.0)]
        stats = aggregate(problem, "basic", results, sample_sd=True)
        assert abs(stats.sd - math.sqrt(14.0 / 2.0)) < 1e-12

    def test_two_pass_agreement(self):
        rng = np.random.default_rng(4)
        values = rng.random(30) * 1e-8
        problem = make_problem("sphere", dimension=2)
        stats = aggregate(problem, "basic", [stub_result(v) for v in values])
        mean = sum(values) / 30
        var = sum((v - mean) ** 2 for v in values) / 30
        assert abs(stats.sd - math.sqrt(var)) < 1e-12 * max(1.0, stats.sd)

    def test_maximization_best_is_max(self):
        problem = make_problem("air_heater")
        stats = aggregate(problem, "sac2", [stub_result(v) for v in (3.1, 4.2, 2.0)])
        assert stats.best == 4.2

    def test_run_experiment_end_to_end(self):
        problem = make_problem("sphere", dimension=2)
        stats = aggregate(problem, "basic",
                          run_batch(problem, VariantConfig(strategy="basic"),
                                    TerminationRule(max_nfe=500), runs=3, base_seed=1))
        assert stats.problem == "sphere" and stats.variant == "basic"
        assert stats.runs == 3 and stats.dim == 2
        assert stats.best <= stats.mean


class TestAccelerationRate:
    def test_examples(self):
        assert abs(acceleration_rate(306, 197) - 35.62) < 0.005
        assert acceleration_rate(150, 150) == 0.0
        assert acceleration_rate(100, 150) == -50.0

    def test_zero_compared_nfe_rejected(self):
        with pytest.raises(ValueError):
            acceleration_rate(0, 100)

    @pytest.mark.parametrize("compared", [0, -3.5])
    def test_non_positive_compared_nfe_is_named(self, compared):
        with pytest.raises(ValueError, match=f"compared NFE must be positive, got {compared!r}$"):
            acceleration_rate(compared, 5)

    def test_full_reduction_is_100(self):
        assert acceleration_rate(500, 0) == 100.0


class TestCompareTable:
    # reference mean NFE per variant on five design problems, with a known footer
    NFE = {
        "basic": (306, 838, 463, 240000, 8438),
        "sac": (289, 756, 418, 240000, 8517),
        "sac1": (249, 524, 317, 240000, 6913),
        "sac2": (197, 513, 321, 240000, 5568),
    }
    PROBLEMS = ("gas_production", "air_heater", "gear_train",
                "lennard_jones", "gas_compressor")

    def _stats(self):
        return [
            stub_stats(p, v, nfe)
            for v, row in self.NFE.items()
            for p, nfe in zip(self.PROBLEMS, row)
        ]

    def test_reference_averages(self):
        table = compare_table(self._stats(), "sac2")
        assert table.baseline == "sac2"
        assert table.problems == self.PROBLEMS
        assert abs(table.average_ar["basic"] - 27.82) < 0.005
        assert abs(table.average_ar["sac"] - 24.36) < 0.005
        assert abs(table.average_ar["sac1"] - 8.24) < 0.005

    def test_cell_values_and_slower_flags(self):
        table = compare_table(self._stats(), "sac2")
        assert abs(table.ar["basic"]["gas_production"] - 35.62) < 0.005
        assert table.ar["basic"]["lennard_jones"] == 0.0
        assert abs(table.ar["sac1"]["gear_train"] - (-1.26)) < 0.005
        assert table.slower["sac1"]["gear_train"] is True
        flags = [table.slower[v][p] for v in table.ar for p in self.PROBLEMS]
        assert sum(flags) == 1

    def test_identical_variants_give_zero(self):
        stats = [stub_stats("sphere", v, 1000.0) for v in ("basic", "sac2")]
        table = compare_table(stats, "sac2")
        assert table.ar["basic"]["sphere"] == 0.0
        assert table.average_ar["basic"] == 0.0

    def test_missing_baseline_rejected(self):
        stats = [stub_stats("sphere", "basic", 1000.0)]
        with pytest.raises(ConfigurationError):
            compare_table(stats, "sac2")

    def test_mismatched_problem_sets_rejected(self):
        stats = [
            stub_stats("sphere", "basic", 1000.0),
            stub_stats("ackley", "basic", 1000.0),
            stub_stats("sphere", "sac2", 900.0),
        ]
        with pytest.raises(ConfigurationError):
            compare_table(stats, "sac2")


class TestConvergenceExport:
    def test_single_run_passthrough(self):
        trace = ((0, 8.0), (50, 2.0), (100, 1.0))
        grid, median = convergence_export([stub_result(1.0, trace=trace)])
        assert grid.tolist() == [0, 50, 100]
        assert median.tolist() == [8.0, 2.0, 1.0]

    def test_flat_traces(self):
        runs = [stub_result(5.0, trace=((0, 5.0), (100, 5.0))),
                stub_result(5.0, trace=((0, 5.0), (80, 5.0)))]
        grid, median = convergence_export(runs)
        assert grid.tolist() == [0, 80, 100]
        assert median.tolist() == [5.0, 5.0, 5.0]

    def test_median_of_linear_traces(self):
        a = stub_result(9.0, trace=((0, 10.0), (100, 9.0)))
        b = stub_result(19.0, trace=((0, 20.0), (100, 19.0)))
        grid, median = convergence_export([a, b])
        # both decay at 1/100 per evaluation, so the median is the midline
        assert np.allclose(median, 15.0 - grid / 100.0)

    def test_interpolates_interior_points(self):
        a = stub_result(0.0, trace=((0, 10.0), (100, 0.0)))
        b = stub_result(4.0, trace=((0, 10.0), (50, 4.0), (100, 4.0)))
        grid, median = convergence_export([a, b])
        assert grid.tolist() == [0, 50, 100]
        assert median.tolist() == [10.0, 4.5, 2.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convergence_export([])


class TestFormatStat:
    def test_zero_threshold(self):
        assert format_stat(0.0) == "0"
        assert format_stat(5e-21) == "0"
        assert format_stat(-5e-21) == "0"

    def test_scientific_cells(self):
        assert format_stat(1.234e-5) == "1.23E-05"
        assert format_stat(169.8437) == "1.70E+02"
        assert format_stat(-1.4621) == "-1.46E+00"
