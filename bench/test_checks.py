"""Tests of the benchmark's own checkers: the independent objectives agree
with beehive's, and every check rejects a corrupted output.

Run from the repository root: python3 -m pytest -q bench
"""
import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
from beehive import (  # noqa: E402
    ENGINEERING_NAMES, STRATEGIES, TerminationRule, VariantConfig, cli, make_problem, run,
)
from beehive.harness import aggregate  # noqa: E402
from beehive.problems import LJConfig, make_lennard_jones  # noqa: E402


@pytest.mark.parametrize("problem, reference", [
    (make_problem("sphere", 30), checks.sphere),
    (make_problem("rastrigin", 30), checks.rastrigin),
    (make_lennard_jones(LJConfig(13)), checks.lennard_jones),
    (make_lennard_jones(LJConfig(3)), checks.lennard_jones),
])
def test_references_agree_with_beehive(problem, reference):
    rng = np.random.default_rng(7)
    lower, upper = problem.bounds.lower, problem.bounds.upper
    for _ in range(50):
        x = rng.uniform(lower, upper)
        assert reference(x) == pytest.approx(problem.evaluate_min(x), rel=1e-9, abs=1e-12)


def _sphere_run():
    problem = make_problem("sphere", 5)
    config = VariantConfig("basic")
    result = run(problem, config, TerminationRule(max_nfe=3_000), seed=3)
    kwargs = dict(lower=problem.bounds.lower, upper=problem.bounds.upper, cap=3_000,
                  cycle_evals=checks.max_cycle_evals(config), reference=checks.sphere)
    return result, kwargs


def test_check_run_accepts_a_real_run():
    result, kwargs = _sphere_run()
    assert checks.check_run(result, **kwargs) == []


def test_check_run_rejects_a_shifted_best_position():
    result, kwargs = _sphere_run()
    shifted = result.best_position.copy()
    shifted[0] += 0.1
    errors = checks.check_run(dataclasses.replace(result, best_position=shifted), **kwargs)
    assert any("evaluates to" in e for e in errors)


def test_check_run_rejects_a_position_outside_the_box():
    result, kwargs = _sphere_run()
    outside = np.full_like(result.best_position, 6.0)
    errors = checks.check_run(dataclasses.replace(result, best_position=outside), **kwargs)
    assert any("outside the box" in e for e in errors)


def test_check_run_rejects_a_non_monotone_trace():
    result, kwargs = _sphere_run()
    trace = list(result.trace)
    trace[1], trace[2] = trace[2], trace[1]
    errors = checks.check_run(dataclasses.replace(result, trace=tuple(trace)), **kwargs)
    assert any("decreases" in e or "worsens" in e for e in errors)


def test_check_run_rejects_a_trace_that_does_not_end_at_the_result():
    result, kwargs = _sphere_run()
    errors = checks.check_run(dataclasses.replace(result, trace=result.trace[:-1]), **kwargs)
    assert any("does not end" in e for e in errors)


def test_check_run_rejects_an_early_stop_without_the_target():
    result, kwargs = _sphere_run()
    errors = checks.check_run(result, **{**kwargs, "cap": result.nfe + 1},
                              reached=lambda best: best <= 1e-8)
    assert any("without reaching its target" in e for e in errors)


def test_check_run_rejects_an_overshoot_of_a_cycle():
    result, kwargs = _sphere_run()
    errors = checks.check_run(result, **{**kwargs, "cap": result.nfe - kwargs["cycle_evals"]})
    assert any("exceeds the cap" in e for e in errors)


@pytest.fixture(scope="module")
def engineering_block(tmp_path_factory):
    """A small `beehive bench engineering` and the same runs made serially."""
    out = tmp_path_factory.mktemp("block")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["bench", "engineering", "--runs", "2", "--max-nfe", "300",
                         "--seed", "5", "--output-dir", str(out)]) == 0
    expected = []
    for name in ENGINEERING_NAMES:
        problem = make_problem(name)
        for strategy in STRATEGIES:
            term = TerminationRule(max_nfe=300, target=problem.known_optimum)
            rs = [run(problem, VariantConfig(strategy), term, 5 + i) for i in range(2)]
            expected.append(json.loads(json.dumps(vars(aggregate(problem, strategy, rs)))))
    stats = json.loads((out / "stats.json").read_text())
    comparison = json.loads((out / "comparison.json").read_text())
    return stats, comparison, expected


def test_check_stats_accepts_the_cli_output(engineering_block):
    stats, comparison, expected = engineering_block
    assert checks.check_stats(stats, expected) == []
    assert checks.check_comparison(comparison, stats) == []


def test_check_stats_rejects_an_edited_row(engineering_block):
    stats, _, expected = engineering_block
    edited = json.loads(json.dumps(stats))
    edited[3]["mean"] += 1e-9
    assert checks.check_stats(edited, expected)


def test_check_comparison_rejects_an_edited_rate(engineering_block):
    stats, comparison, _ = engineering_block
    edited = json.loads(json.dumps(comparison))
    variant = next(iter(edited["acceleration_rate"]))
    problem = next(iter(edited["acceleration_rate"][variant]))
    edited["acceleration_rate"][variant][problem] += 0.5
    assert checks.check_comparison(edited, stats)


def test_digest_sees_the_last_bit():
    result, _ = _sphere_run()
    nudged = dataclasses.replace(result, best_objective=np.nextafter(result.best_objective, 1.0))
    assert checks.digest([result]) != checks.digest([nudged])
    assert checks.digest([result]) == checks.digest([run(make_problem("sphere", 5),
                                                         VariantConfig("basic"),
                                                         TerminationRule(max_nfe=3_000), 3)])


def test_clock_leaves_no_process_running():
    import multiprocessing
    import multiprocessing.resource_tracker

    from calibration import Clock

    with Clock(cores=2) as clock:
        clock.sample()
        helpers = [process for _, process in clock._peers]
        assert helpers and all(p.is_alive() for p in helpers)
    assert not any(p.is_alive() for p in helpers)
    assert multiprocessing.active_children() == []
    assert multiprocessing.resource_tracker._resource_tracker._pid is None
