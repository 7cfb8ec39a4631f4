"""The bee colony optimization loop and its candidate strategies.

One cycle runs employed bees, then fitness-proportional onlookers (an
inverse-CDF roulette, one draw per placement), then at most one scout, then
(for the adaptive variants) a colony resize driven by the per-source size
gene. All strategies modify a single randomly chosen coordinate of the bee's
own position; out-of-box values are clamped to the violated bound.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import Colony, ConfigurationError, FoodSource, RngStream, random_position
from .problems import Problem

STRATEGIES = ("basic", "sac", "sac1", "sac2", "gbest")

# Strategies that resize the colony each cycle unless explicitly disabled.
_ADAPTIVE_BY_DEFAULT = frozenset({"sac", "sac1", "sac2"})


@dataclass(frozen=True)
class VariantConfig:
    """Which candidate strategy runs and with which control parameters."""

    strategy: str = "basic"
    limit: int = 100
    c_factor: float = 1.5
    adaptive_sizing: bool | None = None  # None: strategy default
    initial_colony: int = 100  # bees; food sources are half of this
    sn_min: int = 10
    sn_max: int = 100

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(f"unknown strategy {self.strategy!r}")
        if self.limit < 1:
            raise ConfigurationError("limit must be positive")
        if not math.isfinite(self.c_factor):
            raise ConfigurationError(f"c_factor must be finite, got {self.c_factor!r}")
        if self.initial_colony < 8 or self.initial_colony % 2:
            raise ConfigurationError("initial_colony must be even and >= 8")
        if not (4 <= self.sn_min <= self.sn_max) or self.sn_min % 2 or self.sn_max % 2:
            raise ConfigurationError("sn_min/sn_max must be even with 4 <= sn_min <= sn_max")
        if self.adaptive_sizing is None:
            object.__setattr__(
                self, "adaptive_sizing", self.strategy in _ADAPTIVE_BY_DEFAULT
            )


@dataclass(frozen=True)
class TerminationRule:
    """Stop on NFE budget (cycle boundary) or on closeness to a known optimum."""

    max_nfe: int = 1_000_000
    accuracy: float = 1e-20
    target: float | None = None  # minimization sense

    def __post_init__(self):
        if self.max_nfe < 1:
            raise ConfigurationError(f"max_nfe must be >= 1, got {self.max_nfe!r}")
        if not (math.isfinite(self.accuracy) and self.accuracy >= 0.0):
            raise ConfigurationError(
                f"accuracy must be finite and >= 0, got {self.accuracy!r}")

    def reached(self, best_objective: float) -> bool:
        return self.target is not None and abs(best_objective - self.target) < self.accuracy


@dataclass(frozen=True)
class RunResult:
    """Outcome of a single seeded run, reported in the user's optimization sense."""

    best_objective: float
    best_position: np.ndarray
    nfe: int
    cycles: int
    trace: tuple[tuple[int, float], ...]  # (nfe, best_objective) per cycle
    seed: int


def fitness_map(objective: float) -> float:
    """Map a raw objective (minimization sense) to a strictly positive fitness."""
    if not math.isfinite(objective):
        raise ValueError("objective must be finite")
    if objective >= 0.0:
        return 1.0 / (1.0 + objective)
    return 1.0 + abs(objective)


def selection_probabilities(colony: Colony) -> np.ndarray:
    """Fitness-proportional onlooker probabilities; sums to 1."""
    if not colony.sources:
        raise ValueError("colony is empty")
    fits = np.array([s.fitness for s in colony.sources])
    return fits / fits.sum()


def _evaluate(colony: Colony, problem: Problem, position: np.ndarray) -> float:
    """Single counted evaluation; keeps best-so-far memory current.

    A non-finite objective (nan or an infinity) stops the run with a
    ValueError that names the problem, the value, the evaluation and the point.
    """
    f = problem.evaluate_min(position)
    colony.nfe += 1
    if not math.isfinite(f):
        raise ValueError(
            f"problem {problem.name!r} returned a non-finite objective "
            f"{problem.to_user_sense(f)!r} at evaluation {colony.nfe} "
            f"(position {position.tolist()})")
    if f < colony.best_objective:
        colony.best_objective = f
        colony.best_position = position.copy()
    return f


def _pick_other(n: int, rng: RngStream, *taken: int) -> int:
    k = rng.uniform_int(n)
    while k in taken:
        k = rng.uniform_int(n)
    return k


def _clip(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v


def candidate(i, colony, bounds, rng, config):
    """One-coordinate move of source i; returns (position, clamped size gene).

    Draw order: dimension j; partner a != i; for sac1 only, partner b not in
    {i, a}; phi in [-1, 1); for gbest only, psi in [0, C). The coordinate
    becomes

    - basic, sac: x_ij + phi * (x_ij - x_aj)
    - sac1:       best_j + phi * (x_aj - x_bj)  (elitist)
    - sac2:       x_ij + phi * (x_ij - x_aj) + C * (best_j - x_ij)
    - gbest:      x_ij + phi * (x_ij - x_aj) + psi * (best_j - x_ij)

    clamped to the violated bound, so sac1 needs three sources and the others
    two. sac2 is the gbest move with the pull weight fixed at C. The size
    gene, if the colony carries one, moves by the same phi against b for sac1
    and against a otherwise, and is clamped to [sn_min, sn_max].
    """
    strategy = config.strategy
    sources = colony.sources
    n = len(sources)
    two_partners = strategy == "sac1"
    needed = 3 if two_partners else 2
    if n < needed:
        raise ValueError(f"{strategy} candidate needs at least {needed} sources")
    j = rng.uniform_int(bounds.dimension)
    a = _pick_other(n, rng, i)
    b = _pick_other(n, rng, i, a) if two_partners else a
    phi = rng.uniform_real(-1.0, 1.0)
    xi = sources[i].position
    if strategy == "sac1":
        v = colony.best_position[j] + phi * (sources[a].position[j] - sources[b].position[j])
        partner = sources[b]
    else:
        # the pull is added only where it exists: + 0.0 would turn -0.0 into +0.0
        v = xi[j] + phi * (xi[j] - sources[a].position[j])
        if strategy == "sac2":
            v += config.c_factor * (colony.best_position[j] - xi[j])
        elif strategy == "gbest":
            v += rng.uniform_real(0.0, config.c_factor) * (colony.best_position[j] - xi[j])
        partner = sources[a]
    pos = xi.copy()
    pos[j] = _clip(v, bounds.lower[j], bounds.upper[j])
    gene = sources[i].size_gene
    if gene is not None:
        gene = _clip(gene + phi * (gene - partner.size_gene),
                     float(config.sn_min), float(config.sn_max))
    return pos, gene


def _new_source(colony, config, problem, rng):
    """A uniform random source, evaluated and counted.

    Draws the position, then (adaptive variants only) a size gene uniform over
    the integers in [sn_min, sn_max].
    """
    pos = random_position(problem.bounds, rng)
    gene = None
    if config.adaptive_sizing:
        gene = float(config.sn_min + rng.uniform_int(config.sn_max - config.sn_min + 1))
    f = _evaluate(colony, problem, pos)
    return FoodSource(pos, f, fitness_map(f), 0, gene)


def greedy_select(current, candidate_position, colony, problem, size_gene=None):
    """Evaluate the candidate once; keep it iff it moves and its fitness ties or
    beats the incumbent.

    A candidate at the incumbent's own position (a null move, e.g. a step
    clipped back onto the bound it started from, or an elitist move in a
    colony collapsed onto the best) is counted but is no improvement: the
    incumbent stays and gains a trial, so it can still reach `limit` and be
    scouted.
    """
    f = _evaluate(colony, problem, candidate_position)
    fit = fitness_map(f)
    # list == compares coordinates with == as np.array_equal does, at a third
    # of its cost on a 30-vector
    if fit >= current.fitness and candidate_position.tolist() != current.position.tolist():
        return FoodSource(candidate_position, f, fit, 0, size_gene)
    current.trials += 1
    return current


def employed_phase(colony, config, problem, rng):
    """One candidate per source, in order; NFE grows by the source count."""
    bounds = problem.bounds
    sources = colony.sources
    for i in range(len(sources)):
        pos, gene = candidate(i, colony, bounds, rng, config)
        sources[i] = greedy_select(sources[i], pos, colony, problem, gene)
    return colony


def onlooker_phase(colony, config, problem, rng):
    """Exactly SN fitness-proportional placements, one raw draw each.

    The roulette inverts the cumulative `selection_probabilities`, taken once
    per phase: a placement goes to the first source whose cumulative
    probability exceeds a draw u = random(), or to the last source where
    rounding has left the cumulative total at or below u.
    """
    cum = selection_probabilities(colony).cumsum().tolist()
    last = len(cum) - 1
    bounds = problem.bounds
    sources = colony.sources
    rand = rng.random
    for _ in range(len(sources)):
        i = bisect_right(cum, rand())
        if i > last:
            i = last
        pos, gene = candidate(i, colony, bounds, rng, config)
        sources[i] = greedy_select(sources[i], pos, colony, problem, gene)
    return colony


def scout_phase(colony, config, problem, rng):
    """Replace at most one exhausted source with a fresh random one."""
    sources = colony.sources
    worst = max(range(len(sources)), key=lambda i: sources[i].trials)  # first on ties
    if sources[worst].trials > config.limit:
        sources[worst] = _new_source(colony, config, problem, rng)
    return colony


def adapt_colony_size(colony, config, rng, problem):
    """Resize toward the gene average: round half up, force even, clamp.

    Growth appends new random sources; shrinkage drops the lowest-fitness ones.
    """
    sources = colony.sources
    mean_gene = sum(s.size_gene for s in sources) / len(sources)
    sn = math.floor(mean_gene + 0.5)
    if sn % 2:
        sn += 1
    sn = min(max(sn, config.sn_min), config.sn_max)
    current = len(sources)
    if sn > current:
        for _ in range(sn - current):
            sources.append(_new_source(colony, config, problem, rng))
    elif sn < current:
        doomed = set(
            sorted(range(current), key=lambda i: (sources[i].fitness, -i))[: current - sn]
        )
        colony.sources = [s for i, s in enumerate(sources) if i not in doomed]
    return colony


def run(problem: Problem, config: VariantConfig, termination: TerminationRule,
        seed: int) -> RunResult:
    """Full optimization run; deterministic for a fixed (problem, config, seed)."""
    rng = RngStream(seed)
    colony = Colony(sources=[], best_position=np.zeros(problem.dimension),
                    best_objective=math.inf)
    for _ in range(config.initial_colony // 2):
        colony.sources.append(_new_source(colony, config, problem, rng))

    trace = [(colony.nfe, colony.best_objective)]
    while not termination.reached(colony.best_objective) and colony.nfe < termination.max_nfe:
        employed_phase(colony, config, problem, rng)
        if termination.reached(colony.best_objective):
            break
        onlooker_phase(colony, config, problem, rng)
        if termination.reached(colony.best_objective):
            break
        scout_phase(colony, config, problem, rng)
        if termination.reached(colony.best_objective):
            break
        if config.adaptive_sizing:
            adapt_colony_size(colony, config, rng, problem)
            if termination.reached(colony.best_objective):
                break
        colony.cycle += 1
        trace.append((colony.nfe, colony.best_objective))
    if trace[-1] != (colony.nfe, colony.best_objective):
        trace.append((colony.nfe, colony.best_objective))

    best_position = colony.best_position.copy()
    if problem.integrality is not None:
        mask = problem.integrality
        best_position[mask] = np.floor(best_position[mask] + 0.5)
    return RunResult(
        best_objective=problem.to_user_sense(colony.best_objective),
        best_position=best_position,
        nfe=colony.nfe,
        cycles=colony.cycle,
        trace=tuple((n, problem.to_user_sense(f)) for n, f in trace),
        seed=seed,
    )
