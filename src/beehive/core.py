"""Shared value types: box bounds, the seeded RNG stream and the equality of
those that hold arrays, and the checks that turn a value into an int or float."""
from __future__ import annotations

import math
import numbers
import operator
import random
from dataclasses import dataclass, fields

import numpy as np


class ConfigurationError(ValueError):
    """Unknown problem/variant/suite name or an invalid configuration value."""


def integer(name: str, value) -> int:
    """`value` as a plain int, or a ConfigurationError that names the field and
    the value if it is not an integer (`operator.index` takes Python and numpy
    integers, not floats; a bool, Python's as numpy's, is refused)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def real(name: str, value) -> float:
    """`value` as a float, or a ConfigurationError that names the field and the
    value if it is not a real number (Python or numpy; not a string or a bool)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    return float(value)


class ArrayFields:
    """Base of a dataclass (`eq=False`) with array fields: equal to the same type
    with equal fields, arrays by `np.array_equal`, others by `==`; unhashable."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                   else a == b for a, b in pairs)


@dataclass(frozen=True, eq=False)
class Bounds(ArrayFields):
    """Axis-aligned search box with finite, strictly ordered per-coordinate limits."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size < 1:
            raise ConfigurationError(
                "bounds must be 1-d vectors of identical length >= 1, got shapes "
                f"{lower.shape} and {upper.shape}")
        for limit in (*lower.tolist(), *upper.tolist()):
            if not math.isfinite(limit):
                raise ConfigurationError(f"each bound must be finite, got {limit!r}")
        for k, (low, high) in enumerate(zip(lower.tolist(), upper.tolist())):
            if not low < high:
                raise ConfigurationError(
                    f"lower bound {low!r} of coordinate {k} is not below its upper "
                    f"bound {high!r}")

    @property
    def dimension(self) -> int:
        return self.lower.size

    @classmethod
    def cube(cls, low: float, high: float, dimension: int) -> "Bounds":
        return cls(np.full(dimension, float(low)), np.full(dimension, float(high)))


class RngStream:
    """Single-owner deterministic random stream.

    Backed by the stdlib Mersenne Twister, which is documented to produce the
    same `random()` sequence for the same integer seed on every platform.
    One stream per run; never share a stream across concurrent runs.
    """

    __slots__ = ("random",)

    def __init__(self, seed: int):
        # an integer >= 0: a float 1.5 would replay seed 1 under another name,
        # and `random.Random` seeds with abs(seed), so -s would replay seed s
        seed = integer("seed", seed)
        if seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {seed!r}")
        # bound method cached: `random` is the raw [0, 1) draw
        self.random = random.Random(seed).random


def random_position(lower: list[float], upper: list[float], rng: RngStream) -> list[float]:
    """Uniform sample of the box with the limits `lower` and `upper`, lists of
    floats, as a list of floats, one draw u per coordinate, in coordinate
    order: `lo + u * (hi - lo)`, the bits numpy's elementwise
    `lower + u * (upper - lower)` gives."""
    rand = rng.random
    return [lo + rand() * (hi - lo) for lo, hi in zip(lower, upper)]
