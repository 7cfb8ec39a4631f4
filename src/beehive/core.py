"""Shared value types: box bounds, food sources, colony state, seeded RNG."""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Unknown problem/variant/suite name or an invalid configuration value."""


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned search box with strictly ordered per-coordinate limits."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size < 1:
            raise ValueError("bounds must be 1-d vectors of identical length >= 1")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be strictly below its upper bound")

    @property
    def dimension(self) -> int:
        return self.lower.size

    @classmethod
    def cube(cls, low: float, high: float, dimension: int) -> "Bounds":
        return cls(np.full(dimension, float(low)), np.full(dimension, float(high)))

    def contains(self, position: np.ndarray) -> bool:
        x = np.asarray(position, dtype=float)
        return x.shape == self.lower.shape and bool(
            np.all(x >= self.lower) and np.all(x <= self.upper)
        )


class RngStream:
    """Single-owner deterministic random stream.

    Backed by the stdlib Mersenne Twister, which is documented to produce the
    same `random()` sequence for the same integer seed on every platform.
    One stream per run; never share a stream across concurrent runs.
    """

    __slots__ = ("seed", "random")

    def __init__(self, seed: int):
        self.seed = int(seed)
        # bound method cached: `random` is the raw [0, 1) draw
        self.random = random.Random(self.seed).random

    def uniform_real(self, a: float, b: float) -> float:
        """Uniform draw in [a, b)."""
        return a + (b - a) * self.random()

    def uniform_int(self, n: int) -> int:
        """Uniform draw in {0, ..., n-1}."""
        k = int(self.random() * n)
        return k if k < n else n - 1  # guard the 1-ulp rounding edge


@dataclass(slots=True, eq=False)
class FoodSource:
    """One candidate solution plus its bookkeeping counters."""

    position: np.ndarray
    objective: float  # raw objective, minimization sense
    fitness: float    # mapped fitness, always > 0
    trials: int = 0   # consecutive failed improvement attempts; null moves count as failures
    size_gene: float | None = None  # proposed food-source count, adaptive variants only


@dataclass(slots=True, eq=False)
class Colony:
    """The evolving population plus best-so-far memory and evaluation counter."""

    sources: list[FoodSource]
    best_position: np.ndarray
    best_objective: float
    cycle: int = 0
    nfe: int = 0


def random_position(bounds: Bounds, rng: RngStream) -> np.ndarray:
    """Uniform sample of the box, one independent draw per coordinate."""
    lower = bounds.lower
    upper = bounds.upper
    out = np.empty(lower.size)
    for j in range(lower.size):
        out[j] = lower[j] + rng.uniform_real(0.0, 1.0) * (upper[j] - lower[j])
    return out
