"""Objective functions: five scalable benchmarks and five engineering design problems.

All problems expose the same `Problem` record. Objectives are evaluated in the
user's optimization sense; `evaluate_min` gives the minimization-sense value the
optimizer works in (maximization problems are negated).

`Sphere`, `Rastrigin`, `LennardJones` and `OnFloats`, the wrapper of the four
fixed-size designs, carry the engine's `start`/`move`/`settle` hooks (the
contract is stated in `engine._hooks`); Griewank, Ackley and Schaffer are
plain functions of the array. The designs are functions of a list of Python
floats and give nan off their real domain.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Bounds, ConfigurationError, integer, real

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

# The bound `low` that `Rastrigin.move` and `LennardJones.move` give (Higham
# 2002, Accuracy and Stability of Numerical Algorithms, sections 2.2 and 4.2).
# A move replaces m terms of a sum, every term at least -L, by m new ones. The
# memo keeps `total`, the exact sum S of the old terms rounded once by fsum, so
# |S - total| <= u |total| with u = 2**-53. The move adds the new terms left to
# right into a and the old ones into b; each sum is within (m - 1) u (to first
# order) times the sum of its terms' magnitudes, and W is that sum over all 2m
# terms. The new exact sum S' = S + sum(new) - sum(old) is then within
# 2 u |total| + (m + 1) u W of fl(total + fl(a - b)), and the final
# subtraction may round up by u (|total| + W) more. A term e >= -L has
# |e| <= e + 2 L, so W is at most a + b + 4 L m, up to the same (m - 1) u, and
#
#     low = (total + (a - b)) - (|total| + (a + b + 4 L m)) * (m + 3) * 2u
#
# is at most S': the bound is twice the first-order error, which leaves room
# for the second-order terms and the rounding of the bound itself for any m
# below 2**40. Additions cannot underflow (a sum below 2**-1022 is exact), and
# the product cannot either: a + b >= -2 L m, so its first factor is at least
# about 2 L m. fsum rounds S' to the nearest float, so low, a float, is also
# at most the value. A nan among the terms or in `total` gives a nan low, and
# an infinite one a nan or -inf low (inf - inf, or an infinite bound).
#
# The bound `low` that `Sphere.move` gives (Higham 2002, section 3.1). The
# memo keeps total = fl(x.x), the BLAS dot product of the D coordinates in
# whatever order and blocking it takes, with or without fused multiply-adds.
# For every such order |fl(x.x) - S| <= g S + D e, where S is the exact sum of
# the squares, g = D u / (1 - D u) and e = 2**-1022 bounds the error of a
# product that underflows, even one flushed to zero (a sum of subnormals is
# exact). The moved point's exact sum is S' = S + v^2 - x_j^2, and its value
# is at least S' - g S' - D e. The move rounds t = v*v, b = x_j*x_j and
# c = total + (t - b), each within u of its exact result (plus e for a
# product); so, to first order in u, S' >= c - (g + u) total - 3 u (t + b)
# - (D + 2) e, and since g S' <= g (total + t + b) to first order, the value
# is at least
#
#     c - (2 D + 1) u total - (D + 3) u (t + b) - (2 D + 2) e.
#
#     low = c - ((total + t + b) (D + 4) 2u + 1e-300)
#
# lies below that: the relative part exceeds the first-order terms by at
# least 6 u (total + t + b), which covers the second-order terms and the
# rounding of the slack and of low itself, for any D below 2**20; and 1e-300
# covers (2 D + 3) e there. Every product is at least 0, so no partial sum of
# the moved dot product is above S' (1 + g): a low below 1e300 means a finite
# value, and a larger low is withheld as nan. A nan or an infinity in total,
# t or b gives a nan low (inf - inf).
_TWO_U = 2.0 ** -52


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

@dataclass(frozen=True)
class Sphere:
    """The sphere function, sum(x_i^2), as `x.dot(x)`: the BLAS dot product.

    Its hooks (`engine._hooks`) keep that value and bound a one-coordinate
    move first. The memo is `(x, total)`: the position array, never written
    in place, and its value. `move` computes
    `total + (v*v - x_j*x_j)` and returns it less the rounding slack stated
    above `_TWO_U`, withheld as nan from 1e300 up, with the step `(j, v)`.
    `settle` copies x, sets coordinate j and takes the dot product: the path
    of an objective without hooks. A module-level callable, so a `Problem`
    that uses it pickles into worker processes.
    """

    def __call__(self, x):
        return float(x.dot(x))

    def start(self, x):
        total = float(x.dot(x))
        return total, (x, total)

    @staticmethod
    def move(memo, j, v):
        x, total = memo
        c = x.item(j)
        t, b = v * v, c * c
        low = (total + (t - b)) - ((total + t + b) * ((len(x) + 4) * _TWO_U) + 1e-300)
        return (low if low < 1e300 else math.nan), (j, v)

    @staticmethod
    def settle(memo, step):
        j, v = step
        x = memo[0].copy()
        x[j] = v
        total = float(x.dot(x))
        return total, (x, total)


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
    depend on the order of the terms. That makes one-coordinate moves, the
    hooks of `engine._hooks`, cheap and exact. The memo is `(terms, total)`:
    the list of per-coordinate terms and their fsum (inf where fsum
    overflows). `move` recomputes term j from v alone by
    the expression, with `math.cos`, that `start` applies to every term, and
    returns `10*D + low`, the bound stated above `_TWO_U` with m = 1 and
    L = 10 (x*x >= 0 and 10*cos >= -10, also after rounding), and the step
    `(j, term)`. A low of 1e300 or more is withheld as nan: the exact sum is
    then close enough to the float range that fsum could overflow. Below it
    the exact sum is finite and, since every term is at least -10, so is
    each partial sum fsum takes; so a finite low means a finite value.
    `settle` copies the list, sets term j and sums it all.
    A module-level callable, so a `Problem` that uses it pickles into worker
    processes.
    """

    @staticmethod
    def _settled(terms):
        try:
            total = math.fsum(terms)
        except OverflowError:  # fsum's exact sum passed the float range; terms >= -10
            total = math.inf
        return 10.0 * len(terms) + total, (terms, total)

    def __call__(self, x):
        return self.start(x)[0]

    def start(self, x):
        return self._settled([c * c - 10.0 * math.cos(_TWO_PI * c) for c in x.tolist()])

    def move(self, memo, j, v):
        terms, total = memo
        t = v * v - 10.0 * math.cos(_TWO_PI * v)
        b = terms[j]
        # m = 1 and L = 10: (m + 3) * _TWO_U is 2**-50
        low = (total + (t - b)) - (abs(total) + ((t + b) + 40.0)) * 2.0 ** -50
        return (10.0 * len(terms) + low if low < 1e300 else math.nan), (j, t)

    def settle(self, memo, step):
        j, t = step
        terms = memo[0].copy()
        terms[j] = t
        return self._settled(terms)


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
    """An objective `fn` of a short list of Python floats, with the
    `start`/`move`/`settle` hooks of `engine._hooks`: `__call__(x)` gives
    `fn(x.tolist())`, and the memo is `(c, f)`, the point as a list c and its
    value f. `move` evaluates the moved point and returns its exact value as
    the bound, with the new memo as the step, which `settle` hands back.

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

    @staticmethod
    def settle(memo, step):
        return step[1], step


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


# Below this many pairs `LennardJones.move` gives the exact value as its low:
# the fsum of so few energies costs less than the bound. Measured per move
# (move plus a settle for one candidate in four): at 3 atoms, 3 pairs, the
# exact sum was about 0.1 us faster, at 4 atoms, 6 pairs, the two tied, and
# from 5 atoms the bound was faster, by 0.7 us at 8 atoms.
_LJ_BOUND_PAIRS = 6


@functools.lru_cache(maxsize=None)
def _lj_pairs(n):
    """Pair index table for n atoms in `np.triu_indices` order: (first, second),
    shared read-only."""
    first, second = np.triu_indices(n, 1)
    first.flags.writeable = second.flags.writeable = False
    return first, second


@functools.lru_cache(maxsize=None)
def _lj_partners(n):
    """For each atom k of n, the pairs it is in: ((i, index of pair (i, k)), ...)
    over every other atom i in order; as tuples, shared read-only. Built from
    `_lj_pairs(n)`, so the pair indices follow its order."""
    first, second = _lj_pairs(n)
    partners = [[] for _ in range(n)]
    for p, (a, b) in enumerate(zip(first.tolist(), second.tolist())):
        # pairs (i, k) with i < k come before those with k first, each in order
        partners[a].append((b, p))
        partners[b].append((a, p))
    return tuple(map(tuple, partners))


@dataclass(frozen=True)
class LennardJones:
    """Cluster potential energy of `n_atoms` atoms from their 3N coordinates.

    Pair energy is normalized so a pair at unit distance sits at the minimum
    with energy -1 (i.e. 1/r^12 - 2/r^6); a cluster of N atoms at mutual unit
    distances therefore scores -1 per pair. A module-level callable, so a
    `Problem` that uses it pickles into worker processes.

    The pair energies are summed exactly rounded (`math.fsum`), so the value
    does not depend on their order, and one-coordinate moves, the hooks of
    `engine._hooks`, are cheap and exact. The memo is
    `(xs, ys, zs, energies, partners, total)`: the atoms' x, y and z
    coordinates and the pair energies in `np.triu_indices` order, as lists of
    Python floats, the shared `_lj_partners` table, and the fsum of the
    energies, which is the value. A move shifts atom k = j // 3 along one
    axis: `move` copies the energies, recomputes atom k's n - 1 pair energies
    in the copy with the kernel's arithmetic, and returns the bound stated
    above `_TWO_U` with m = n - 1 and the step `(k, axis, v, energies)`.
    Every pair energy y*y - 2*y, y = 1/r^6 > 0, is at least
    -(1 + u)/(1 - u) after rounding, so L = 1.25, unless it is nan or the
    penalty; none is above about 1e72, so the value is nan or finite, and a
    finite low means a finite value. Below `_LJ_BOUND_PAIRS` pairs the low
    is the exact value instead. `settle` copies the moved axis's list,
    sharing the other two with the memo it is given, and sums the energies.
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
        xs, ys, zs = pts.T.tolist()
        total = math.fsum(values)
        return total, (xs, ys, zs, values, _lj_partners(n), total)

    def move(self, memo, j, v):
        xs, ys, zs, energies, partners, total = memo
        k, axis = divmod(j, 3)
        xk, yk, zk = xs[k], ys[k], zs[k]
        if axis == 0:
            xk = v
        elif axis == 1:
            yk = v
        else:
            zk = v
        values = energies.copy()
        a = b = 0.0  # the new and the old energies of atom k's pairs
        for i, p in partners[k]:
            # exactly the kernel's difference or its negation: the same square
            dx = xs[i] - xk
            dy = ys[i] - yk
            dz = zs[i] - zk
            r2 = (dx * dx + dz * dz) + dy * dy
            if r2 < LJ_R2_FLOOR:
                e = LJ_PENALTY
            else:  # a NaN distance gives a NaN energy, as in `start`
                inv6 = 1.0 / (r2 * r2 * r2)
                e = inv6 * inv6 - 2.0 * inv6
            b += values[p]
            values[p] = e
            a += e
        if len(values) < _LJ_BOUND_PAIRS:
            return math.fsum(values), (k, axis, v, values)
        m = self.n_atoms - 1
        low = (total + (a - b)) - (abs(total) + ((a + b) + 5.0 * m)) * ((m + 3) * _TWO_U)
        return low, (k, axis, v, values)

    def settle(self, memo, step):
        xs, ys, zs, _, partners, _ = memo
        k, axis, v, values = step
        if axis == 0:
            xs = xs.copy()
            xs[k] = v
        elif axis == 1:
            ys = ys.copy()
            ys[k] = v
        else:
            zs = zs.copy()
            zs[k] = v
        total = math.fsum(values)
        return total, (xs, ys, zs, values, partners, total)


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
