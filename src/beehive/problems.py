"""Objective functions: five scalable benchmarks and five engineering design problems.

All problems expose the same `Problem` record. Objectives are evaluated in the
user's optimization sense; `evaluate_min` gives the minimization-sense value the
optimizer works in (maximization problems are negated).

`Sphere`, `Rastrigin` and `LennardJones` carry the engine's bounded hooks,
`start`/`move`/`settle`, and `OnFloats`, the wrapper of the four fixed-size
designs, its exact ones, `start`/`move` (the contract is stated in
`engine._hooks`); Griewank, Ackley and Schaffer, plain functions of the
array, get the exact hooks of an adapter there. All but those three convert
their input to a list of Python floats once and compute on it, and a memo
holds only the state of its point (Lennard-Jones keeps one `(x, y, z)` tuple
per atom, and its pair table on the objective); the designs give nan off
their real domain.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ArrayFields, Bounds, ConfigurationError, integer, real

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

# The bound `low` that `Sphere.move`, `Rastrigin.move` and `LennardJones.move`
# give (Higham 2002, Accuracy and Stability of Numerical Algorithms, sections
# 2.2 and 4.2). A move replaces m terms of a sum, every term at least -L
# (L >= 0), by m new ones. The memo keeps `total`, the exact sum S of the old
# terms rounded once by fsum, so |S - total| <= u |total| with u = 2**-53. The
# move adds the new terms left to right into a and the old ones into b; each
# sum is within (m - 1) u (to first order) times the sum of its terms'
# magnitudes, and W is that sum over all 2m terms. The new exact sum
# S' = S + sum(new) - sum(old) is then within 2 u |total| + (m + 1) u W of
# fl(total + fl(a - b)), and the final subtraction may round up by
# u (|total| + W) more. A term e >= -L has |e| <= e + 2 L, so W is at most
# a + b + 4 L m, up to the same (m - 1) u, and
#
#     low = (total + (a - b)) - (|total| + (a + b + 4 L m)) * (m + 3) * 2u
#
# is at most S': the bound is twice the first-order error, which leaves room
# for the second-order terms and the rounding of the bound itself for any m
# below 2**40. Additions cannot underflow (a sum below 2**-1022 is exact). For
# L > 0 the product cannot either: a + b >= -2 L m, so its first factor is at
# least about 2 L m. For L = 0 every term is at least 0, and the product may
# underflow, off by up to 2**-1075. Where its first factor is at least
# 2**-1021, the margin, (m + 3) u times that factor, is at least 2**-1072 and
# covers it. Below 2**-1021, |total| + a + b and every partial sum in it are
# multiples of 2**-1074 below 2**-1021, which are floats: each sum is exact,
# total is S, fl(total + fl(a - b)) is S', and low, S' less a product at
# least 0, is at most S'. fsum rounds S' to the nearest float, so low, a
# float, is also at most the value. A nan among the terms or in `total`
# gives a nan low, and an infinite one a nan or -inf low (inf - inf, or an
# infinite bound).
_TWO_U = 2.0 ** -52


@dataclass(frozen=True, eq=False)
class Problem(ArrayFields):
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
    # each half is exactly 0.0 at the origin: exp(0.0) is 1.0 and exp(1.0) is e
    n = x.size
    return float(
        (20.0 - 20.0 * math.exp(-0.2 * math.sqrt(x.dot(x) / n)))
        + (math.e - math.exp(np.cos(_TWO_PI * x).sum() / n))
    )


class _BoundedSum:
    """A sum of per-coordinate terms, summed exactly rounded (`math.fsum`),
    so the value does not depend on the order of the terms, with the bounded
    hooks of `engine._hooks`. The memo is `(terms, total)`: the list of
    per-coordinate terms and their fsum (inf where fsum overflows). A
    subclass computes its terms inline in `start`, from `x.tolist()`, and in
    `move`, from v alone by the expression `start` applies to every term;
    `move` returns the bound stated above `_TWO_U` with m = 1 and the step
    `(j, term)`, and withholds a low of 1e300 or more as nan: the exact sum
    is then close enough to the float range that fsum could overflow. Below
    it the exact sum is finite and, since every term is at least -L, so is
    each partial sum fsum takes; so a finite low means a finite value.
    `settle` copies the list, sets term j and sums it all. The value is
    `_offset * D` plus the sum. Subclasses are module-level callables, so a
    `Problem` that uses one pickles into worker processes.
    """

    _offset = 0.0  # a constant per coordinate, added to the sum

    def __call__(self, x):
        return self.start(x)[0]

    def _settled(self, terms):
        try:
            total = math.fsum(terms)
        except OverflowError:  # fsum's exact sum passed the float range; terms >= -L
            total = math.inf
        return self._offset * len(terms) + total, (terms, total)

    def settle(self, memo, step):
        j, t = step
        terms = memo[0].copy()
        terms[j] = t
        return self._settled(terms)


@dataclass(frozen=True)
class Sphere(_BoundedSum):
    """The sphere function, sum(x_i^2), a `_BoundedSum` of the squares
    `c * c`: L = 0, and with no offset the value is the fsum itself (0.0
    plus a sum that is never -0.0)."""

    def start(self, x):
        return self._settled([c * c for c in x.tolist()])

    @staticmethod
    def move(memo, j, v):
        terms, total = memo
        t = v * v
        b = terms[j]
        # m = 1 and L = 0: (m + 3) * _TWO_U is 2**-50; total >= 0 is |total|
        low = (total + (t - b)) - (total + (t + b)) * 2.0 ** -50
        return (low if low < 1e300 else math.nan), (j, t)


@dataclass(frozen=True)
class Rastrigin(_BoundedSum):
    """Rastrigin's function, 10*D + sum(x_i^2 - 10*cos(2*pi*x_i)), a
    `_BoundedSum` of the terms `c * c - 10 * cos(2 pi c)`, with `math.cos`,
    and the offset 10: L = 10 (x*x >= 0 and 10*cos >= -10, also after
    rounding), and `move` returns `10*D + low`."""

    _offset = 10.0

    def start(self, x):
        return self._settled([c * c - 10.0 * math.cos(_TWO_PI * c) for c in x.tolist()])

    def move(self, memo, j, v):
        terms, total = memo
        t = v * v - 10.0 * math.cos(_TWO_PI * v)
        b = terms[j]
        # m = 1 and L = 10: (m + 3) * _TWO_U is 2**-50
        low = (total + (t - b)) - (abs(total) + ((t + b) + 40.0)) * 2.0 ** -50
        return (10.0 * len(terms) + low if low < 1e300 else math.nan), (j, t)


def _schaffer(x):
    s = float(x.dot(x))
    return 0.5 + (math.sin(math.sqrt(s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2


# Each benchmark: (objective, half-width of its cube box, the dimensions
# `beehive bench benchmarks` runs, the first being the default). All have
# their minimum 0 at the origin.
_BENCHMARKS = {
    "sphere": (Sphere(), 5.12, (30, 60)),
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
    """An objective `fn` of a short list of Python floats, with the exact
    `start`/`move` hooks of `engine._hooks`: `__call__(x)` gives
    `fn(x.tolist())`, and the memo is `(c, f)`, the point as a list c and its
    value f. `move` evaluates the moved point and returns its value with the
    new memo.

    A null move, `c[j] == v` with `v != 0.0`, is the memo's own point, so
    `move` returns `(f, memo)`, the same memo object, without calling `fn`
    or copying the list. Equal nonzero floats have the same bits, so that is
    the value `fn` would give; zero is excluded because `-0.0 == 0.0` and an
    `fn` may tell them apart, and a NaN compares unequal, so both compute.
    Every other move calls `fn` on a copy of c with element j set. `fn` is a
    module-level function, so a `Problem` that uses it pickles into worker
    processes.
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
    except (ArithmeticError, ValueError):  # a nan or infinity, a zero count, an overflow
        return math.nan


@dataclass(frozen=True)
class LJConfig:
    """Lennard-Jones cluster setup: atom count and the symmetric coordinate box."""

    n_atoms: int
    box_half_width: float | None = None  # default scales with cluster radius

    def __post_init__(self):
        object.__setattr__(self, "n_atoms", integer("n_atoms", self.n_atoms))
        if self.n_atoms < 2:
            raise ConfigurationError(
                f"Lennard-Jones cluster needs at least 2 atoms, got {self.n_atoms}")
        if self.box_half_width is not None:
            half = real("box_half_width", self.box_half_width)
            if not (math.isfinite(half) and half > 0.0):
                raise ConfigurationError(
                    f"box_half_width must be finite and > 0, got {half!r}")
            object.__setattr__(self, "box_half_width", half)

    @property
    def half_width(self) -> float:
        if self.box_half_width is not None:
            return self.box_half_width
        return 2.0 * self.n_atoms ** (1.0 / 3.0)


@dataclass(frozen=True)
class LennardJones:
    """Cluster potential energy of `n_atoms` atoms from their 3N coordinates.

    Pair energy is normalized so a pair at unit distance sits at the minimum
    with energy -1 (i.e. 1/r^12 - 2/r^6); a cluster of N atoms at mutual unit
    distances therefore scores -1 per pair. A module-level callable, so a
    `Problem` that uses it pickles into worker processes.

    The pair energies are summed exactly rounded (`math.fsum`), so the value
    does not depend on their order, and one-coordinate moves, the hooks of
    `engine._hooks`, are cheap and exact. `start` converts x to a list of
    Python floats once and computes every pair energy with `move`'s
    statements. The memo is `(atoms, energies, total)`: the atoms as a list
    of `(x, y, z)` tuples and the pair energies in `combinations(range(n), 2)`
    order as a list, all Python floats, and the fsum of the energies, which
    is the value. A move shifts atom k = j // 3 along one axis: `move`
    copies the energies, recomputes atom k's n - 1 pair energies in the copy,
    and returns the bound stated above `_TWO_U` with m = n - 1 and the step
    `(k, point, energies)`, point being atom k's new `(x, y, z)`.
    Every pair energy y*y - 2*y, y = 1/r^6 > 0, is at least
    -(1 + u)/(1 - u) after rounding, so L = 1.25, unless it is nan or the
    penalty; none is above about 1e72, so the value is nan or finite, and a
    finite low means a finite value. `settle` copies the atom list, puts the
    point at k and sums the energies.
    """

    n_atoms: int

    def __post_init__(self):
        # `_partners`: for each atom k, the pairs it is in, ((i, index of pair
        # (i, k)), ...) over every other atom i in order, as tuples; pairs are
        # indexed in `combinations(range(n), 2)` order, which is
        # `np.triu_indices`'. A plain attribute, not a cached property, which
        # `move` would look up more slowly on every call.
        partners = [[] for _ in range(self.n_atoms)]
        for p, (a, b) in enumerate(itertools.combinations(range(self.n_atoms), 2)):
            # pairs (i, k) with i < k come before those with k first, each in order
            partners[a].append((b, p))
            partners[b].append((a, p))
        object.__setattr__(self, "_partners", tuple(map(tuple, partners)))

    def __call__(self, x):
        return self.start(x)[0]

    def start(self, x):
        c = np.asarray(x, dtype=float).tolist()
        if len(c) != 3 * self.n_atoms:  # slicing would drop or mismatch coordinates
            raise ValueError(
                f"{self.n_atoms} atoms take {3 * self.n_atoms} coordinates, got {len(c)}")
        atoms = list(zip(c[0::3], c[1::3], c[2::3]))
        values = []
        for (xi, yi, zi), (xk, yk, zk) in itertools.combinations(atoms, 2):
            # `move`'s statements, with atom k the second of the pair
            dx = xi - xk
            dy = yi - yk
            dz = zi - zk
            r2 = (dx * dx + dz * dz) + dy * dy
            if r2 < LJ_R2_FLOOR:
                e = LJ_PENALTY
            else:  # a NaN distance gives a NaN energy
                inv6 = 1.0 / (r2 * r2 * r2)
                e = inv6 * inv6 - 2.0 * inv6
            values.append(e)
        total = math.fsum(values)
        return total, (atoms, values, total)

    def move(self, memo, j, v):
        atoms, energies, total = memo
        k, axis = divmod(j, 3)
        xk, yk, zk = atoms[k]
        if axis == 0:
            xk = v
        elif axis == 1:
            yk = v
        else:
            zk = v
        values = energies.copy()
        a = b = 0.0  # the new and the old energies of atom k's pairs
        for i, p in self._partners[k]:
            xi, yi, zi = atoms[i]
            # `start`'s difference or its negation: the same square
            dx = xi - xk
            dy = yi - yk
            dz = zi - zk
            r2 = (dx * dx + dz * dz) + dy * dy
            if r2 < LJ_R2_FLOOR:
                e = LJ_PENALTY
            else:  # a NaN distance gives a NaN energy
                inv6 = 1.0 / (r2 * r2 * r2)
                e = inv6 * inv6 - 2.0 * inv6
            b += values[p]
            values[p] = e
            a += e
        m = self.n_atoms - 1
        low = (total + (a - b)) - (abs(total) + ((a + b) + 5.0 * m)) * ((m + 3) * _TWO_U)
        return low, (k, (xk, yk, zk), values)

    def settle(self, memo, step):
        k, point, values = step
        atoms = memo[0].copy()
        atoms[k] = point
        total = math.fsum(values)
        return total, (atoms, values, total)


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
        dimension = dims[0] if dimension is None else integer("dimension", dimension)
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, not {dimension}")
        return Problem(name, dimension, Bounds.cube(-half_width, half_width, dimension), fn,
                       known_optimum=0.0)
    if dimension is not None:
        raise ConfigurationError(
            f"dimension applies only to the benchmarks, not to {name} (got {dimension})")
    if name == "lennard_jones":
        return make_lennard_jones(LJConfig(3 if n_atoms is None else n_atoms))
    fn, lower, upper, direction, integral = _ENGINEERING[name]
    integrality = np.ones(len(lower), dtype=bool) if integral else None
    return Problem(name, len(lower), Bounds(lower, upper), OnFloats(fn), direction,
                   integrality)
