"""Acceptance gate: one test per criterion, each printing a pass/fail line.

These are statistical end-to-end checks over fixed seed blocks, plus the exact
arithmetic and property suites. Budgets and tolerances are stated inline.
"""
import dataclasses
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from beehive.core import RngStream
from beehive.engine import (
    STRATEGIES,
    TerminationRule,
    VariantConfig,
    fitness_map,
    run,
    selection_probabilities,
)
from beehive.harness import (
    ExperimentStats, acceleration_rate, compare_table, run_batch, run_batches,
)
from beehive.problems import make_problem
from conftest import in_box


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# Parallel runs give the serial results bit for bit (criterion 09 checks it).
JOBS = min(2, os.cpu_count() or 1)


def batches(cells, runs, base_seed, max_nfe, target=None, accuracy=1e-20):
    """The runs of every (problem, strategy) cell on one process pool of JOBS
    workers, one result list per cell; run i of each cell uses seed base_seed + i."""
    term = TerminationRule(max_nfe=max_nfe, accuracy=accuracy, target=target)
    return run_batches([(problem, VariantConfig(strategy=strategy), term)
                        for problem, strategy in cells], runs, base_seed, jobs=JOBS)


def test_criterion_01_schaffer_d2_all_variants_reach_zero():
    """All five strategies reach raw best <= 1e-16 on Schaffer D=2,
    30 runs each, 1e6 NFE budget."""
    problem = make_problem("schaffer", dimension=2)
    worst = {}
    above = {}
    blocks = batches([(problem, strategy) for strategy in STRATEGIES], runs=30,
                     base_seed=100, max_nfe=1_000_000, target=0.0, accuracy=1e-20)
    for strategy, results in zip(STRATEGIES, blocks):
        worst[strategy] = max(abs(r.best_objective) for r in results)
        above[strategy] = [r.seed for r in results if abs(r.best_objective) > 1e-16]
    failing = {s: f"{v:.3e}" for s, v in worst.items() if v > 1e-16}
    detail = ("all strategies at or below 1e-16" if not failing
              else f"strategies above the 1e-16 bar: {failing}")
    assert _report(1, not failing, detail), (
        f"worst final objective per strategy over 30 runs: "
        f"{ {s: f'{v:.3e}' for s, v in worst.items()} }; "
        f"seeds above the bar: { {s: seeds for s, seeds in above.items() if seeds} }"
    )


def test_criterion_02_sphere_d30_elitist_faster():
    """Basic strategy median best <= 1e-8 within 2e5 NFE on Sphere D=30
    (15 seeds); the elitist strategy reaches 1e-8 with a smaller median NFE."""
    problem = make_problem("sphere", dimension=30)
    basic, elitist = batches([(problem, "basic"), (problem, "sac1")], runs=15,
                             base_seed=200, max_nfe=200_000, target=0.0, accuracy=1e-8)
    basic_best = float(np.median([r.best_objective for r in basic]))
    basic_nfe = float(np.median([r.nfe for r in basic]))
    elitist_nfe = float(np.median([r.nfe for r in elitist]))
    ok = basic_best <= 1e-8 and elitist_nfe < basic_nfe
    assert _report(
        2, ok,
        f"basic median best {basic_best:.2e}, median NFE {basic_nfe:.0f}; "
        f"elitist median NFE {elitist_nfe:.0f}",
    )


def test_criterion_03_elitism_speedup_on_griewank_and_rastrigin():
    """Mean NFE to reach 1e-8 is lower for the elitist strategy than the basic
    one on Griewank and Rastrigin D=30 (15 seeds each)."""
    details = []
    ok = True
    names = ("griewank", "rastrigin")
    cells = [(make_problem(name, dimension=30), strategy)
             for name in names for strategy in ("basic", "sac1")]
    blocks = batches(cells, runs=15, base_seed=300, max_nfe=300_000,
                     target=0.0, accuracy=1e-8)
    for name, basic, elitist in zip(names, blocks[::2], blocks[1::2]):
        mean_basic = float(np.mean([r.nfe for r in basic]))
        mean_elitist = float(np.mean([r.nfe for r in elitist]))
        ok = ok and mean_elitist < mean_basic
        details.append(f"{name}: elitist {mean_elitist:.0f} vs basic {mean_basic:.0f}")
    assert _report(3, ok, "; ".join(details))


def test_criterion_04_gear_train_hits_1e8():
    """Global-local strategy solves the gear ratio problem (best <= 1e-8)
    in at least 80% of 30 runs within 240000 NFE; plus the exact-rational
    value at the known good tooth counts."""
    exact = float((Fraction(1000, 6931) - Fraction(19 * 16, 43 * 49)) ** 2)
    problem = make_problem("gear_train")
    point = problem.evaluate(np.array([19.0, 16.0, 43.0, 49.0]))
    point_ok = abs(point - exact) < 1e-20 and abs(point - 2.7e-12) < 1e-13
    (results,) = batches([(problem, "sac2")], runs=30, base_seed=500,
                         max_nfe=240_000, target=0.0, accuracy=1e-8)
    hits = sum(1 for r in results if r.best_objective <= 1e-8)
    ok = point_ok and hits >= 24
    assert _report(
        4, ok,
        f"{hits}/30 runs at or below 1e-8; "
        f"(19,16,43,49) evaluates to {point:.6e} (oracle {exact:.6e})",
    )


def test_criterion_05_gas_production_mean():
    """Every strategy lands the 30-run mean within 169.84 +/- 0.05 on the
    gas production problem."""
    problem = make_problem("gas_production")
    blocks = batches([(problem, strategy) for strategy in STRATEGIES], runs=30,
                     base_seed=600, max_nfe=12_000)
    means = {strategy: float(np.mean([r.best_objective for r in results]))
             for strategy, results in zip(STRATEGIES, blocks)}
    ok = all(abs(m - 169.84) <= 0.05 for m in means.values())
    assert _report(5, ok, f"means: { {s: f'{m:.5f}' for s, m in means.items()} }")


def test_criterion_06_gas_compressor_best():
    """30-run best on the compressor design problem falls in
    [2.7e6, 3.1e6]."""
    problem = make_problem("gas_compressor")
    (results,) = batches([(problem, "sac2")], runs=30, base_seed=700, max_nfe=15_000)
    best = min(r.best_objective for r in results)
    ok = 2.7e6 <= best <= 3.1e6
    assert _report(6, ok, f"best over 30 runs: {best:.6e}")


def test_criterion_07_acceleration_rate_arithmetic():
    """AR(306, 197) = 35.62 +/- 0.01 and the reference NFE matrix reproduces
    the 27.82 / 24.36 / 8.24 average AR footer."""
    spot = acceleration_rate(306, 197)
    nfe = {
        "basic": (306, 838, 463, 240000, 8438),
        "sac": (289, 756, 418, 240000, 8517),
        "sac1": (249, 524, 317, 240000, 6913),
        "sac2": (197, 513, 321, 240000, 5568),
    }
    problems = ("f1", "f2", "f3", "f4", "f5")
    stats = [
        ExperimentStats(problem=p, variant=v, dim=0, runs=30,
                        best=0.0, mean=0.0, sd=0.0, mean_nfe=x)
        for v, row in nfe.items() for p, x in zip(problems, row)
    ]
    table = compare_table(stats, "sac2")
    expected = {"basic": 27.82, "sac": 24.36, "sac1": 8.24}
    ok = abs(spot - 35.62) <= 0.01 and all(
        abs(table.average_ar[v] - e) < 0.005 for v, e in expected.items()
    )
    avgs = {v: f"{table.average_ar[v]:.2f}" for v in expected}
    assert _report(7, ok, f"AR(306,197)={spot:.2f}; average ARs {avgs}")


def test_criterion_08_lennard_jones_small_clusters():
    """Optimized 2-atom energy within 1e-6 of -1; 3-atom energy within
    1e-3 of -3."""
    p2 = make_problem("lennard_jones", n_atoms=2)
    # the two cells differ in seeds and targets, so they take a call each
    (r2,) = batches([(p2, "sac2")], runs=5, base_seed=800, max_nfe=50_000,
                    target=-1.0, accuracy=1e-6)
    best2 = min(r.best_objective for r in r2)
    p3 = make_problem("lennard_jones", n_atoms=3)
    (r3,) = batches([(p3, "sac2")], runs=5, base_seed=810, max_nfe=150_000,
                    target=-3.0, accuracy=1e-3)
    best3 = min(r.best_objective for r in r3)
    ok = abs(best2 - (-1.0)) <= 1e-6 and abs(best3 - (-3.0)) <= 1e-3
    assert _report(8, ok, f"2-atom best {best2:.9f}; 3-atom best {best3:.6f}")


def test_criterion_09_property_suite():
    """Cross-cutting invariants: bounds membership, monotone traces, exact NFE
    accounting, even colony sizes, bit-exact (and parallel) determinism,
    fitness mapping, probability normalization, strategy reductions,
    benchmark symmetry, and rigid-motion invariance."""
    checks = []

    # bounds membership + monotone traces + NFE accounting, all strategies
    calls = [0]
    base = make_problem("rastrigin", dimension=5)

    def counting(x, _inner=base.evaluate):
        calls[0] += 1
        return _inner(x)

    counted = dataclasses.replace(base, evaluate=counting)
    for strategy in STRATEGIES:
        calls[0] = 0
        config = VariantConfig(strategy=strategy, initial_colony=20,
                               sn_min=10, sn_max=20)
        r = run(counted, config, TerminationRule(max_nfe=3000), seed=9)
        checks.append(("bounds:" + strategy, in_box(base.bounds, r.best_position)))
        bests = [f for _, f in r.trace]
        checks.append(("monotone:" + strategy,
                       all(b <= a for a, b in zip(bests, bests[1:]))))
        checks.append(("nfe:" + strategy, r.nfe == calls[0]))

    # bit-exact determinism, sequential and parallel
    problem = make_problem("ackley", dimension=4)
    config = VariantConfig(strategy="sac2")
    term = TerminationRule(max_nfe=2000)
    seq = run_batch(problem, config, term, runs=3, base_seed=4, jobs=1)
    par = run_batch(problem, config, term, runs=3, base_seed=4, jobs=2)
    again = run_batch(problem, config, term, runs=3, base_seed=4, jobs=1)
    checks.append(("determinism", all(
        a.best_objective == b.best_objective == c.best_objective
        and a.trace == b.trace == c.trace
        for a, b, c in zip(seq, par, again)
    )))

    # fitness mapping and probability normalization
    checks.append(("fitness", fitness_map(0.0) == 1.0
                   and fitness_map(3.0) == 0.25 and fitness_map(-2.0) == 3.0))
    from test_engine import make_colony, proposed
    colony = make_colony([[x, 0] for x in np.linspace(0.1, 2.0, 9)])
    checks.append(("probability-sum",
                   abs(math.fsum(selection_probabilities(colony)) - 1.0) < 1e-12))

    # strategy reductions: zero weight / zero pull collapse to the basic move
    from conftest import ScriptedRng, index_draw, real_draw
    draws = [index_draw(1, 2), index_draw(1, 3), real_draw(0.3, -1, 1)]
    move_a = proposed(0, make_colony([[2, 3], [4, 1], [-2, 0]]),
                      ScriptedRng(draws), VariantConfig("sac2", c_factor=0.0))
    move_b = proposed(0, make_colony([[2, 3], [4, 1], [-2, 0]]),
                      ScriptedRng(draws + [0.0]), VariantConfig("gbest"))
    move_c = proposed(0, make_colony([[2, 3], [4, 1], [-2, 0]]),
                      ScriptedRng(draws), VariantConfig("basic"))
    checks.append(("reductions", move_a == move_c == move_b))

    # benchmark symmetry and origin optimum
    rng = np.random.default_rng(1)
    sym_ok = True
    for name in ("sphere", "rastrigin", "ackley", "griewank"):
        p = make_problem(name, dimension=6)
        span = p.bounds.upper - p.bounds.lower
        sym_ok = sym_ok and abs(p.evaluate(np.zeros(6))) < 1e-12
        for _ in range(200):
            x = p.bounds.lower + rng.random(6) * span
            sym_ok = sym_ok and math.isclose(
                p.evaluate(x), p.evaluate(-x), rel_tol=1e-12, abs_tol=1e-12)
    checks.append(("symmetry", sym_ok))

    # colony evenness after every adaptation step is enforced structurally;
    # spot-check by running an adaptive strategy and replaying its sizes
    sizes_ok = True
    from beehive.engine import (
        Colony, _new_source, adapt_colony_size, employed_phase, onlooker_phase, scout_phase,
    )
    p = make_problem("griewank", dimension=3)
    cfg = VariantConfig(strategy="sac", initial_colony=20, sn_min=10, sn_max=20)
    stream = RngStream(3)
    col = Colony(p.bounds)
    for i in range(10):
        _new_source(col, cfg, p, stream, i)
    for _ in range(40):
        employed_phase(col, cfg, p, stream)
        onlooker_phase(col, cfg, p, stream)
        scout_phase(col, cfg, p, stream)
        adapt_colony_size(col, cfg, p, stream)
        sizes_ok = sizes_ok and len(col.sources) % 2 == 0
        sizes_ok = sizes_ok and cfg.sn_min <= len(col.sources) <= cfg.sn_max
    checks.append(("even-sizes", sizes_ok))

    # rigid-motion invariance of the cluster energy
    lj = make_problem("lennard_jones", n_atoms=4)
    gen = np.random.default_rng(2)
    q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
    inv_ok = True
    for _ in range(20):
        pts = gen.standard_normal((4, 3)) * 1.5
        a = lj.evaluate(pts.ravel())
        b = lj.evaluate((pts @ q.T + np.array([0.4, -0.9, 1.1])).ravel())
        inv_ok = inv_ok and abs(a - b) <= 1e-9 * max(1.0, abs(a))
    checks.append(("rigid-motion", inv_ok))

    failed = [name for name, ok in checks if not ok]
    assert _report(9, not failed,
                   f"{len(checks)} property checks"
                   + (f"; failing: {failed}" if failed else ", all passing"))


def test_criterion_10_ackley_property_based():
    """Ackley D=30 accepted on properties only: origin optimum, monotone
    convergence, and elitist median best <= 1e-6 by 5e5 NFE (5 seeds)."""
    problem = make_problem("ackley", dimension=30)
    origin_ok = abs(problem.evaluate(np.zeros(30))) < 1e-12
    (results,) = batches([(problem, "sac1")], runs=5, base_seed=900,
                         max_nfe=500_000, target=0.0, accuracy=1e-6)
    monotone = all(
        all(b <= a for a, b in zip([f for _, f in r.trace],
                                   [f for _, f in r.trace][1:]))
        for r in results
    )
    median_best = float(np.median([r.best_objective for r in results]))
    ok = origin_ok and monotone and median_best <= 1e-6
    assert _report(10, ok, f"median best {median_best:.2e} at budget 5e5; "
                           f"origin ok: {origin_ok}; monotone: {monotone}")
