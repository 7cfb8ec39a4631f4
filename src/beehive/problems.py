"""Objective functions: five scalable benchmarks and five engineering design problems.

All problems expose the same `Problem` record. Objectives are evaluated in the
user's optimization sense; `evaluate_min` gives the minimization-sense value the
optimizer consumes (maximization problems are negated at this boundary, once).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Bounds, ConfigurationError

# Degenerate-bracket cutoff for the gas production objective: below this the
# 0^(-0.85) term is treated as 0 so the function stays total at x1 = 40.
GAS_PRODUCTION_EPS = 1e-12

# Squared-distance floor for Lennard-Jones: coincident atoms get a large but
# finite pair energy so the fitness mapping stays well defined.
LJ_R2_FLOOR = 1e-12
LJ_PENALTY = 1e30


@dataclass(frozen=True)
class Problem:
    """An objective with its box, optimization sense, and optional known optimum."""

    name: str
    dimension: int
    bounds: Bounds
    evaluate: Callable[[np.ndarray], float]
    direction: str = "minimize"  # or "maximize"
    integrality: np.ndarray | None = None  # bool mask, length D
    known_optimum: float | None = None  # minimization sense

    def __post_init__(self):
        if self.dimension != self.bounds.dimension:
            raise ConfigurationError(
                f"{self.name}: dimension {self.dimension} does not match the "
                f"{self.bounds.dimension}-D bounds")
        if self.integrality is not None and len(self.integrality) != self.dimension:
            raise ConfigurationError(
                f"{self.name}: integrality mask has length {len(self.integrality)}, "
                f"not the dimension {self.dimension}")
        if self.direction not in ("minimize", "maximize"):
            raise ConfigurationError(
                f"{self.name}: direction must be 'minimize' or 'maximize', "
                f"not {self.direction!r}")

    def evaluate_min(self, x: np.ndarray) -> float:
        """Objective in minimization sense (negated for maximization problems)."""
        f = self.evaluate(x)
        return f if self.direction == "minimize" else -f

    def to_user_sense(self, f_min: float) -> float:
        return f_min if self.direction == "minimize" else -f_min


# ---------------------------------------------------------------------------
# Benchmark functions
# ---------------------------------------------------------------------------

def _sphere(x):
    return float(np.dot(x, x))


def _griewank(x):
    s = np.dot(x, x) / 4000.0
    p = np.prod(np.cos(x / np.sqrt(np.arange(1.0, x.size + 1.0))))
    return float(s - p + 1.0)


def _ackley(x):
    n = x.size
    return float(
        -20.0 * math.exp(-0.2 * math.sqrt(np.dot(x, x) / n))
        - math.exp(np.sum(np.cos(2.0 * math.pi * x)) / n)
        + 20.0
        + math.e
    )


def _rastrigin(x):
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * math.pi * x)))


def _schaffer(x):
    s = float(np.dot(x, x))
    return 0.5 + (math.sin(math.sqrt(s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2


# Each benchmark: (objective, half-width of its cube box, the dimensions
# `beehive bench benchmarks` runs, the first being the default). All have
# their minimum 0 at the origin.
_BENCHMARKS = {
    "sphere": (_sphere, 5.12, (30, 60)),
    "griewank": (_griewank, 600.0, (30, 60)),
    "ackley": (_ackley, 32.0, (30, 60)),
    "rastrigin": (_rastrigin, 5.12, (30, 60)),
    "schaffer": (_schaffer, 100.0, (2, 3)),
}


# ---------------------------------------------------------------------------
# Engineering design problems
# ---------------------------------------------------------------------------

def _gas_production(x):
    x1, x2 = float(x[0]), float(x[1])
    t = (40.0 - x1) * math.log(x2 / 200.0)
    bracket = t ** -0.85 if t > GAS_PRODUCTION_EPS else 0.0
    return (
        61.8
        + 5.72 * x1
        + 0.2623 * bracket
        + 0.087 * t
        + 700.23 * x2 ** -0.75
    )


def _air_heater(x):
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    fs = 0.079 * x3 ** -0.25
    # The friction-factor chain is implemented exactly as typeset: f_r's power
    # term uses x3, while R_M uses x2 (likely a typo for x2 in the original
    # reference).
    fr = 2.0 / (0.95 * x3 ** 0.53 + 2.5 * math.log(1.0 / (2.0 * x1)) ** 2 - 3.75) ** 2
    f_bar = 0.5 * (fs + fr)
    e_plus = x1 * x3 * math.sqrt(f_bar / 2.0)
    r_m = 0.95 * x2 ** 0.53
    g_h = 4.5 * e_plus ** 0.28 * 0.7 ** 0.57
    return 2.51 * math.log(e_plus) + 5.5 - 0.1 * r_m - g_h


def _gear_train(x):
    # teeth counts are integers: round half away from zero before evaluating
    t = np.floor(np.asarray(x, dtype=float) + 0.5)
    ratio = (t[0] * t[1]) / (t[2] * t[3])
    return float((1.0 / 6.931 - ratio) ** 2)


@dataclass(frozen=True)
class LJConfig:
    """Lennard-Jones cluster setup: atom count and the symmetric coordinate box."""

    n_atoms: int
    box_half_width: float | None = None  # default scales with cluster radius

    def __post_init__(self):
        if self.n_atoms < 2:
            raise ConfigurationError("Lennard-Jones cluster needs at least 2 atoms")

    @property
    def half_width(self) -> float:
        if self.box_half_width is not None:
            return self.box_half_width
        return 2.0 * self.n_atoms ** (1.0 / 3.0)


@functools.lru_cache(maxsize=None)
def _lj_pairs(n):
    """Pair index table for n atoms: (first, second, row slices), shared read-only.

    Pairs run in `np.triu_indices` order, so atom i's pairs with atoms i+1..n-1
    are the contiguous slice rows[i] of the pair arrays.
    """
    first, second = np.triu_indices(n, 1)
    first.flags.writeable = second.flags.writeable = False
    starts = [i * (2 * n - i - 1) // 2 for i in range(n)]
    return first, second, tuple(map(slice, starts, starts[1:]))


@dataclass(frozen=True)
class LennardJones:
    """Cluster potential energy of `n_atoms` atoms from their 3N coordinates.

    Pair energy is normalized so a pair at unit distance sits at the minimum
    with energy -1 (i.e. 1/r^12 - 2/r^6); a cluster of N atoms at mutual unit
    distances therefore scores -1 per pair. A module-level callable, so a
    `Problem` that uses it pickles into worker processes.
    """

    n_atoms: int

    def __call__(self, x):
        n = self.n_atoms
        first, second, rows = _lj_pairs(n)
        pts = np.asarray(x, dtype=float).reshape(n, 3)
        d = pts.take(second, axis=0) - pts.take(first, axis=0)
        r2 = np.einsum("ij,ij->i", d, d)
        tiny = r2 < LJ_R2_FLOOR
        r2 = np.where(tiny, 1.0, r2)
        inv6 = 1.0 / (r2 * r2 * r2)
        pair = np.where(tiny, LJ_PENALTY, inv6 * inv6 - 2.0 * inv6)
        # Sum atom by atom: each atom's row with numpy's own reduction, then
        # the rows one after another into a float. Any other grouping (one
        # np.sum over all pairs, np.add.reduceat) changes the last bits.
        total = 0.0
        for row in rows:
            total += float(np.add.reduce(pair[row]))
        return total


def make_lennard_jones(config: LJConfig) -> Problem:
    """Lennard-Jones cluster (see `LennardJones`), 3N coordinates, minimize."""
    n = config.n_atoms
    half = config.half_width
    return Problem(
        name="lennard_jones",
        dimension=3 * n,
        bounds=Bounds.cube(-half, half, 3 * n),
        evaluate=LennardJones(n),
    )


def _gas_compressor(x):
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    return (
        8.61e5 * math.sqrt(x1) * x2 * x3 ** (-2.0 / 3.0) / math.sqrt(x2 * x2 - 1.0)
        + 3.69e4 * x3
        + 7.72e8 / x1 * x2 ** 0.219
        - 765.43e6 / x1
    )


# The fixed-size designs: (objective, lower bounds, upper bounds, direction,
# integer variables). Lennard-Jones scales with its atom count and is built
# by `make_lennard_jones`.
_ENGINEERING = {
    # optimal capacity of gas production facilities
    "gas_production": (_gas_production, (17.5, 300.0), (40.0, 600.0), "minimize", False),
    # thermohydraulic performance of a roughened air heater
    "air_heater": (_air_heater, (0.02, 10.0, 3000.0), (0.8, 40.0, 20000.0),
                   "maximize", False),
    # compound gear train ratio matching; the variables are teeth counts
    "gear_train": (_gear_train, (12.0,) * 4, (60.0,) * 4, "minimize", True),
    # gas transmission compressor design
    "gas_compressor": (_gas_compressor, (10.0, 1.1, 10.0), (55.0, 2.0, 40.0),
                       "minimize", False),
}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

BENCHMARK_DIMENSIONS = {name: dims for name, (_, _, dims) in _BENCHMARKS.items()}
BENCHMARK_NAMES = tuple(_BENCHMARKS)
ENGINEERING_NAMES = (
    "gas_production",
    "air_heater",
    "gear_train",
    "lennard_jones",
    "gas_compressor",
)
PROBLEM_NAMES = BENCHMARK_NAMES + ENGINEERING_NAMES


def make_problem(name: str, dimension: int | None = None, n_atoms: int | None = None) -> Problem:
    """Build any registered problem by name.

    `dimension` applies to the benchmarks (default: the first of their
    `BENCHMARK_DIMENSIONS`) and, for lennard_jones, may stand in for
    3*n_atoms when `n_atoms` is not given.
    """
    if name in _BENCHMARKS:
        fn, half_width, dims = _BENCHMARKS[name]
        if dimension is None:
            dimension = dims[0]
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, not {dimension}")
        return Problem(name, dimension, Bounds.cube(-half_width, half_width, dimension), fn,
                       known_optimum=0.0)
    if name in _ENGINEERING:
        fn, lower, upper, direction, integer = _ENGINEERING[name]
        integrality = np.ones(len(lower), dtype=bool) if integer else None
        return Problem(name, len(lower), Bounds(lower, upper), fn, direction, integrality)
    if name == "lennard_jones":
        if n_atoms is None and dimension is not None:
            if dimension % 3:
                raise ConfigurationError(
                    f"lennard_jones dimension must be 3*n_atoms, not {dimension}")
            n_atoms = dimension // 3
        return make_lennard_jones(LJConfig(3 if n_atoms is None else n_atoms))
    raise ConfigurationError(
        f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}"
    )
