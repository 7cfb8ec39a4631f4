"""Objective functions: five scalable benchmarks and five engineering design problems.

All problems expose the same `Problem` record. Objectives are evaluated in the
user's optimization sense; `evaluate_min` gives the minimization-sense value the
optimizer works in (maximization problems are negated).

`Rastrigin`, `LennardJones` and `OnFloats`, the wrapper of the four fixed-size
designs, carry the engine's `start`/`move` hooks, which evaluate a point that
differs from a known one in one coordinate; each gives `__call__`'s value bit
for bit. The designs are functions of a list of Python floats and give nan
off their real domain.
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

# 2*pi as Rastrigin's cosine argument takes it: 2.0 * math.pi * c is
# (2.0 * math.pi) * c, so _TWO_PI * c gives the same bits
_TWO_PI = 2.0 * math.pi


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
        if self.integrality is not None:
            # an integer mask would index the coordinates it should select
            kind = np.asarray(self.integrality).dtype
            if kind != bool:
                raise ConfigurationError(
                    f"{self.name}: integrality mask must be boolean, not {kind}")
            if len(self.integrality) != self.dimension:
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
    return float(x.dot(x))


@functools.lru_cache(maxsize=None)
def _griewank_divisor(n):
    """sqrt(1), ..., sqrt(n), shared read-only."""
    divisor = np.sqrt(np.arange(1, n + 1))
    divisor.flags.writeable = False
    return divisor


def _griewank(x):
    s = x.dot(x) / 4000.0
    p = np.multiply.reduce(np.cos(x / _griewank_divisor(x.size)))
    return float(s - p + 1.0)


def _ackley(x):
    n = x.size
    return float(
        -20.0 * math.exp(-0.2 * math.sqrt(x.dot(x) / n))
        - math.exp(np.cos(_TWO_PI * x).sum() / n)
        + 20.0
        + math.e
    )


@dataclass(frozen=True)
class Rastrigin:
    """Rastrigin's function, 10*D + sum(x_i^2 - 10*cos(2*pi*x_i)).

    The terms are summed exactly rounded (`math.fsum`), so the value does not
    depend on the order of the terms. That makes one-coordinate moves cheap
    and exact: `start(x)` returns the value and a memo, the list of
    per-coordinate terms, and `move(memo, j, v)` returns the value and memo of
    the memo's point with coordinate j set to v. It recomputes term j from v
    alone by the expression, with `math.cos`, that `start` applies to every
    term, so both return `__call__`'s value bit for bit.
    A module-level callable, so a `Problem` that uses it pickles into worker
    processes.
    """

    @staticmethod
    def _value(terms):
        try:
            return 10.0 * len(terms) + math.fsum(terms)
        except OverflowError:  # fsum's exact sum passed the float range; terms >= -10
            return math.inf

    def __call__(self, x):
        return self.start(x)[0]

    def start(self, x):
        terms = [c * c - 10.0 * math.cos(_TWO_PI * c) for c in x.tolist()]
        return self._value(terms), terms

    def move(self, memo, j, v):
        terms = memo.copy()
        terms[j] = v * v - 10.0 * math.cos(_TWO_PI * v)
        try:  # `_value`, inline: one call less per move
            return 10.0 * len(terms) + math.fsum(terms), terms
        except OverflowError:
            return math.inf, terms


def _schaffer(x):
    s = float(x.dot(x))
    return 0.5 + (math.sin(math.sqrt(s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2


# Each benchmark: (objective, half-width of its cube box, the dimensions
# `beehive bench benchmarks` runs, the first being the default). All have
# their minimum 0 at the origin.
_BENCHMARKS = {
    "sphere": (_sphere, 5.12, (30, 60)),
    "griewank": (_griewank, 600.0, (30, 60)),
    "ackley": (_ackley, 32.0, (30, 60)),
    "rastrigin": (Rastrigin(), 5.12, (30, 60)),
    "schaffer": (_schaffer, 100.0, (2, 3)),
}


# ---------------------------------------------------------------------------
# Engineering design problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OnFloats:
    """An objective `fn` of a short list of Python floats, with the engine's
    incremental-evaluation hooks: `__call__(x)` gives `fn(x.tolist())`,
    `start(x)` gives it with the memo `(c, f)`, the list c and its value f,
    and `move(memo, j, v)` gives the value and memo of the memo's point with
    element j set to v, leaving the memo it is given as it is.

    A null move, `c[j] == v` with `v != 0.0`, is the memo's own point, so
    `move` returns `(f, memo)`, the same memo object, without calling `fn`
    or copying the list. Equal nonzero floats have the same bits, so that is
    the value `fn` would give; zero is excluded because `-0.0 == 0.0` and an
    `fn` may tell them apart, and a NaN compares unequal, so both compute.
    Every other move calls `fn` on a copy of c with element j set. So all
    three agree bit for bit. `fn` is a module-level function, so a `Problem`
    that uses it pickles into worker processes.
    """

    fn: Callable[[list], float]

    def __call__(self, x):
        return self.fn(x.tolist())

    def start(self, x):
        c = x.tolist()
        f = self.fn(c)
        return f, (c, f)

    def move(self, memo, j, v):
        c = memo[0]
        if c[j] == v and v != 0.0:
            return memo[1], memo
        c = c.copy()
        c[j] = v
        f = self.fn(c)
        return f, (c, f)


# The design objectives take a list of Python floats (see `OnFloats`) and give
# nan off their real domain, where Python floats would raise (a logarithm or
# square root of a negative, a division by zero, an overflow) or a fractional
# power of a negative base would be complex. A `try` costs nothing until it
# catches; a comparison guards each such power.

def _gas_production(x):
    x1, x2 = x
    try:
        t = (40.0 - x1) * math.log(x2 / 200.0)
    except ValueError:  # x2 <= 0
        return math.nan
    bracket = t ** -0.85 if t > GAS_PRODUCTION_EPS else 0.0
    return (
        61.8
        + 5.72 * x1
        + 0.2623 * bracket
        + 0.087 * t
        + 700.23 * x2 ** -0.75
    )


def _air_heater(x):
    x1, x2, x3 = x
    if x2 < 0.0 or x3 < 0.0:  # the powers of x2 and x3 would be complex
        return math.nan
    try:
        fs = 0.079 * x3 ** -0.25
        # The friction-factor chain is implemented exactly as typeset: f_r's power
        # term uses x3 where R_M's uses x2. That x3 is likely a typo for x2 in the
        # original reference.
        fr = 2.0 / (0.95 * x3 ** 0.53 + 2.5 * math.log(1.0 / (2.0 * x1)) ** 2 - 3.75) ** 2
        f_bar = 0.5 * (fs + fr)
        e_plus = x1 * x3 * math.sqrt(f_bar / 2.0)
        r_m = 0.95 * x2 ** 0.53
        g_h = 4.5 * e_plus ** 0.28 * 0.7 ** 0.57
        return 2.51 * math.log(e_plus) + 5.5 - 0.1 * r_m - g_h
    except (ArithmeticError, ValueError):  # x1 <= 0, x3 = 0, an overflow
        return math.nan


def _gear_train(x):
    # teeth counts are integers: round half up, floor(v + 0.5), before evaluating
    x1, x2, x3, x4 = x
    floor = math.floor
    try:
        a, b, c, d = floor(x1 + 0.5), floor(x2 + 0.5), floor(x3 + 0.5), floor(x4 + 0.5)
        # float products, which round as numpy's do where exact ints would not
        return (1.0 / 6.931 - (float(a) * b) / (float(c) * d)) ** 2
    except (ArithmeticError, ValueError):
        # a NaN or an infinity, a zero teeth count or an overflow, which Python
        # floats raise on: numpy gives its IEEE value, nan or inf, silently,
        # as the other designs give nan
        with np.errstate(all="ignore"):
            t = np.floor(np.array(x) + 0.5)
            return float((1.0 / 6.931 - (t[0] * t[1]) / (t[2] * t[3])) ** 2)


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
    """Pair index table for n atoms in `np.triu_indices` order: (first, second),
    shared read-only."""
    first, second = np.triu_indices(n, 1)
    first.flags.writeable = second.flags.writeable = False
    return first, second


@functools.lru_cache(maxsize=None)
def _lj_partners(n):
    """For each atom k of n, the pairs it is in: ((3*i, index of pair (i, k)), ...)
    over every other atom i in order, where 3*i is i's first coordinate; as
    tuples, shared read-only."""
    def index(a, b):  # of pair (a, b), a < b, in `np.triu_indices` order
        return a * (2 * n - a - 1) // 2 + b - a - 1
    return tuple(
        tuple((3 * i, index(min(i, k), max(i, k))) for i in range(n) if i != k)
        for k in range(n))


@dataclass(frozen=True)
class LennardJones:
    """Cluster potential energy of `n_atoms` atoms from their 3N coordinates.

    Pair energy is normalized so a pair at unit distance sits at the minimum
    with energy -1 (i.e. 1/r^12 - 2/r^6); a cluster of N atoms at mutual unit
    distances therefore scores -1 per pair. A module-level callable, so a
    `Problem` that uses it pickles into worker processes.

    The pair energies are summed exactly rounded (`math.fsum`), so the value
    does not depend on their order, and one-coordinate moves are cheap and
    exact: `start(x)` returns the value and a memo, the coordinates and the
    pair energies in `np.triu_indices` order as two lists of Python floats,
    and `move(memo, j, v)` returns the value and memo of the memo's point with
    coordinate j set to v. A move shifts atom j // 3, so it recomputes that
    atom's n - 1 pair energies with the kernel's arithmetic and sums them all
    again; both return `__call__`'s value bit for bit.
    """

    n_atoms: int

    def __call__(self, x):
        return self.start(x)[0]

    def start(self, x):
        n = self.n_atoms
        first, second = _lj_pairs(n)
        pts = np.asarray(x, dtype=float).reshape(n, 3)
        d = pts.take(second, axis=0) - pts.take(first, axis=0)
        sq = d * d
        # the grouping np.einsum("ij,ij->i", d, d) gives, stated; `move` uses it too
        r2 = (sq[:, 0] + sq[:, 2]) + sq[:, 1]
        tiny = None
        if not r2.min() >= LJ_R2_FLOOR:  # also true for a NaN distance
            tiny = r2 < LJ_R2_FLOOR
            r2[tiny] = 1.0
        inv6 = 1.0 / (r2 * r2 * r2)
        pair = inv6 * inv6 - 2.0 * inv6
        if tiny is not None:
            pair[tiny] = LJ_PENALTY
        values = pair.tolist()
        return math.fsum(values), (pts.ravel().tolist(), values)

    def move(self, memo, j, v):
        coords, energies = memo
        c = coords.copy()
        c[j] = v
        k = j // 3
        xk, yk, zk = c[3 * k:3 * k + 3]
        values = energies.copy()
        for a, p in _lj_partners(self.n_atoms)[k]:
            # exactly the kernel's difference or its negation: the same square
            dx = c[a] - xk
            dy = c[a + 1] - yk
            dz = c[a + 2] - zk
            r2 = (dx * dx + dz * dz) + dy * dy
            if r2 < LJ_R2_FLOOR:
                values[p] = LJ_PENALTY
            else:  # a NaN distance gives a NaN energy, as in `start`
                inv6 = 1.0 / (r2 * r2 * r2)
                values[p] = inv6 * inv6 - 2.0 * inv6
        return math.fsum(values), (c, values)


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
    x1, x2, x3 = x
    if x2 < 0.0 or x3 < 0.0:  # the powers of x2 and x3 would be complex
        return math.nan
    try:
        return (
            8.61e5 * math.sqrt(x1) * x2 * x3 ** (-2.0 / 3.0) / math.sqrt(x2 * x2 - 1.0)
            + 3.69e4 * x3
            + 7.72e8 / x1 * x2 ** 0.219
            - 765.43e6 / x1
        )
    except (ArithmeticError, ValueError):  # x1 <= 0, x2 <= 1, x3 = 0
        return math.nan


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

    `dimension` applies to the benchmarks only (default: the first of their
    `BENCHMARK_DIMENSIONS`) and `n_atoms` to lennard_jones only (default 3).
    An argument given where it does not apply raises a ConfigurationError
    that names it.
    """
    if name not in PROBLEM_NAMES:
        raise ConfigurationError(
            f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}")
    if n_atoms is not None and name != "lennard_jones":
        raise ConfigurationError(
            f"n_atoms applies only to lennard_jones, not to {name} (got {n_atoms})")
    if name in _BENCHMARKS:
        fn, half_width, dims = _BENCHMARKS[name]
        if dimension is None:
            dimension = dims[0]
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, not {dimension}")
        return Problem(name, dimension, Bounds.cube(-half_width, half_width, dimension), fn,
                       known_optimum=0.0)
    if dimension is not None:
        raise ConfigurationError(
            f"dimension applies only to the benchmarks, not to {name} (got {dimension})")
    if name == "lennard_jones":
        return make_lennard_jones(LJConfig(3 if n_atoms is None else n_atoms))
    fn, lower, upper, direction, integer = _ENGINEERING[name]
    integrality = np.ones(len(lower), dtype=bool) if integer else None
    return Problem(name, len(lower), Bounds(lower, upper), OnFloats(fn), direction,
                   integrality)
