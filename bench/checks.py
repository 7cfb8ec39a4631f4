"""Correctness checks for the benchmark, made apart from the program.

The objectives here are written from their textbook definitions, not from
`beehive.problems`. Each `check_*` function returns a list of messages; an
empty list means the output passed.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

# Relative and absolute tolerance for comparing a reported best with the
# re-evaluation of its position: the two sums run in different orders.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Wales & Doye 1997 (J. Phys. Chem. A 101:5111): LJ13 global minimum, in epsilon.
LJ13_GLOBAL_MIN = -44.326801


def sphere(x) -> float:
    return math.fsum(v * v for v in x)


def rastrigin(x) -> float:
    # 10 - 10 cos(2 pi v) == 20 sin^2(pi v): no cancellation near the optimum
    return math.fsum(v * v + 20.0 * math.sin(math.pi * v) ** 2 for v in x)


def lennard_jones(x) -> float:
    """Cluster energy with pair term 1/r^12 - 2/r^6 (minimum -1 at r = 1)."""
    from scipy.spatial.distance import pdist

    inv6 = pdist(np.asarray(x, dtype=float).reshape(-1, 3)) ** -6.0
    return float(np.sum(inv6 * inv6 - 2.0 * inv6))


def max_cycle_evals(config) -> int:
    """Most evaluations one cycle can make: employed and onlooker bees, one
    scout, and (adaptive variants) growth of the colony up to `sn_max`."""
    if config.adaptive_sizing:
        return 2 * config.sn_max + 1
    return config.initial_colony + 1


def check_run(result, *, lower, upper, cap, cycle_evals, reference=None,
              maximize=False, reached=None) -> list[str]:
    """Properties every run must have.

    `reference` re-evaluates `best_position`; `reached` tells whether a best
    met the run's target (None: the run has no target and stops on budget).
    """
    errors = []
    best = result.best_objective
    position = np.asarray(result.best_position, dtype=float)
    if reference is not None:
        expected = reference(position)
        if not math.isclose(best, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            errors.append(f"best {best!r} but best_position evaluates to {expected!r}")
    if not (np.all(position >= lower) and np.all(position <= upper)):
        errors.append("best_position lies outside the box")
    trace = result.trace
    if not trace or tuple(trace[-1]) != (result.nfe, best):
        errors.append(f"trace does not end at (nfe, best) = ({result.nfe}, {best!r})")
    for (n0, f0), (n1, f1) in zip(trace, trace[1:]):
        if n1 < n0:
            errors.append(f"trace NFE decreases from {n0} to {n1}")
            break
        if (f1 < f0) if maximize else (f1 > f0):
            errors.append(f"trace best worsens from {f0!r} to {f1!r} at NFE {n1}")
            break
    if result.nfe >= cap + cycle_evals:
        errors.append(f"nfe {result.nfe} exceeds the cap {cap} by a cycle or more")
    hit = reached is not None and reached(best)
    if not hit and result.nfe < cap:
        errors.append(f"run stopped at nfe {result.nfe} below the cap {cap} "
                      f"without reaching its target (best {best!r})")
    return errors


def check_stats(records: list[dict], expected: list[dict]) -> list[str]:
    """`stats.json` records must equal the statistics recomputed serially."""
    if len(records) != len(expected):
        return [f"stats.json has {len(records)} records, expected {len(expected)}"]
    return [f"stats.json record {i} is {got} but serial runs give {want}"
            for i, (got, want) in enumerate(zip(records, expected)) if got != want]


def check_comparison(doc: dict, records: list[dict]) -> list[str]:
    """Acceleration rates must equal 100 (a - b) / a from the table's own NFE
    columns (a: the variant, b: the baseline), and those columns must be the
    mean NFE of `stats.json`."""
    errors = []
    nfe = doc["nfe"]
    base = doc["baseline"]
    for r in records:
        if r["variant"] in nfe and nfe[r["variant"]].get(r["problem"]) != r["mean_nfe"]:
            errors.append(f"comparison NFE for {r['variant']}/{r['problem']} "
                          f"differs from stats.json mean_nfe {r['mean_nfe']}")
    for variant, rates in doc["acceleration_rate"].items():
        for problem, rate in rates.items():
            a, b = nfe[variant][problem], nfe[base][problem]
            want = 100.0 * (a - b) / a
            if not math.isclose(rate, want, rel_tol=1e-12, abs_tol=1e-12):
                errors.append(f"rate {variant}/{problem} is {rate!r}, "
                              f"its NFE columns give {want!r}")
            if doc["baseline_slower"][variant][problem] != (rate < 0):
                errors.append(f"baseline_slower flag wrong for {variant}/{problem}")
        mean = sum(rates.values()) / len(rates)
        if not math.isclose(doc["average_acceleration_rate"][variant], mean,
                            rel_tol=1e-12, abs_tol=1e-12):
            errors.append(f"average rate for {variant} is not the mean of its rates")
    return errors


def same_result(a, b) -> bool:
    """Bit-identical seeded outputs."""
    return (a.best_objective == b.best_objective and a.nfe == b.nfe
            and tuple(a.trace) == tuple(b.trace)
            and np.array_equal(a.best_position, b.best_position))


def digest(results) -> str:
    """SHA-256 over the exact bits of each run's seed, best, position, NFE and trace."""
    h = hashlib.sha256()
    for r in results:
        h.update(repr((r.seed, float(r.best_objective).hex(), r.nfe,
                       tuple((n, float(f).hex()) for n, f in r.trace))).encode())
        h.update(np.asarray(r.best_position, dtype=float).tobytes())
    return h.hexdigest()
