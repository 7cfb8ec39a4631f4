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

from .core import ConfigurationError, RngStream, random_position
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


class Colony:
    """The food sources as parallel lists, plus best-so-far memory and the NFE count.

    `sources[i]` is source i's position: a 1-d array that a winning candidate
    replaces and that is never written in place, so the best memory may share
    it. `objective[i]` (minimization sense), `fitness[i]`, `trials[i]` (failed
    attempts in a row; null moves count) and `gene[i]` (proposed source count,
    None unless adaptive) hold the rest. The box limits are Python floats.
    """

    __slots__ = ("lower", "upper", "sources", "objective", "fitness", "trials", "gene",
                 "best_position", "best_objective", "cycle", "nfe")

    def __init__(self, bounds):
        self.lower = bounds.lower.tolist()
        self.upper = bounds.upper.tolist()
        self.sources, self.objective, self.fitness, self.trials, self.gene = [], [], [], [], []
        self.best_position = np.zeros(bounds.dimension)
        self.best_objective = math.inf
        self.cycle = 0
        self.nfe = 0

    def columns(self):
        """The per-source lists, in the order `put` takes a source's state."""
        return self.sources, self.objective, self.fitness, self.trials, self.gene

    def put(self, i, position, objective, gene):
        """Store a fresh source with no trials as source i; i == len(sources) appends."""
        state = (position, objective, fitness_map(objective), 0, gene)
        for column, value in zip(self.columns(), state):
            column[i:i + 1] = [value]  # replaces item i, or appends at the end


def selection_probabilities(colony: Colony) -> np.ndarray:
    """Fitness-proportional onlooker probabilities; sums to 1."""
    if not colony.sources:
        raise ValueError("colony is empty")
    fits = np.array(colony.fitness)
    return fits / fits.sum()


def _non_finite(problem: Problem, f: float, nfe: int, position: np.ndarray) -> ValueError:
    """The error that stops a run at a non-finite objective (nan or an infinity)."""
    return ValueError(
        f"problem {problem.name!r} returned a non-finite objective "
        f"{problem.to_user_sense(f)!r} at evaluation {nfe} "
        f"(position {position.tolist()})")


def candidate(i, colony, rng, config):
    """One-coordinate move of source i; returns (j, new x_ij, clamped size gene).

    Draw order: dimension j; partner a != i; for sac1 only, partner b not in
    {i, a}; phi in [-1, 1); for gbest only, psi in [0, C). Each draw is one
    u = random(): an index in {0, ..., n-1} is int(u * n), which is below n
    for every u < 1 and n <= 2**53, and a real in [lo, hi) is lo + (hi - lo) * u.
    The coordinate becomes

    - basic, sac: x_ij + phi * (x_ij - x_aj)
    - sac1:       best_j + phi * (x_aj - x_bj)  (elitist)
    - sac2:       x_ij + phi * (x_ij - x_aj) + C * (best_j - x_ij)
    - gbest:      x_ij + phi * (x_ij - x_aj) + psi * (best_j - x_ij)

    clamped to the violated bound, so sac1 needs three sources and the others
    two. sac2 is the gbest move with the pull weight fixed at C. The size
    gene, if the colony carries one, moves by the same phi against b for sac1
    and against a otherwise, and is clamped to [sn_min, sn_max].
    """
    rand = rng.random
    strategy = config.strategy
    sources = colony.sources
    n = len(sources)
    two_partners = strategy == "sac1"
    needed = 3 if two_partners else 2
    if n < needed:
        raise ValueError(f"{strategy} candidate needs at least {needed} sources")
    j = int(rand() * len(colony.lower))
    a = i
    while a == i:
        a = int(rand() * n)
    b = a  # the partner the gene moves against
    if two_partners:
        while b == i or b == a:
            b = int(rand() * n)
    phi = -1.0 + 2.0 * rand()
    if two_partners:
        v = colony.best_position.item(j) + phi * (sources[a].item(j) - sources[b].item(j))
    else:
        x = sources[i].item(j)
        # the pull is added only where it exists: + 0.0 would turn -0.0 into +0.0
        v = x + phi * (x - sources[a].item(j))
        if strategy == "sac2":
            v += config.c_factor * (colony.best_position.item(j) - x)
        elif strategy == "gbest":
            # psi = 0.0 + (C - 0.0) * u, and C - 0.0 is C
            v += (0.0 + config.c_factor * rand()) * (colony.best_position.item(j) - x)
    lo, hi = colony.lower[j], colony.upper[j]
    v = lo if v < lo else hi if v > hi else v
    gene = colony.gene[i]
    if gene is not None:
        gene += phi * (gene - colony.gene[b])
        lo, hi = float(config.sn_min), float(config.sn_max)
        gene = lo if gene < lo else hi if gene > hi else gene
    return j, v, gene


def _step(colony, problem, i, j, value, gene):
    """Evaluate source i with x_ij set to `value`, counted; keep the result iff
    it moves and its fitness ties or beats the incumbent's.

    A null move, `value` equal to the incumbent's own x_ij (a step clamped back
    onto its bound, an elitist move in a colony collapsed onto the best), is
    counted but fails: the incumbent gains a trial, so it can still be scouted.
    A non-finite objective stops the run with a ValueError that names the
    problem, the value, the evaluation and the point.
    """
    row = colony.sources[i]
    x = row.copy()
    x[j] = value
    f = problem.evaluate(x)
    if problem.direction != "minimize":
        f = -f
    colony.nfe += 1
    if not math.isfinite(f):
        raise _non_finite(problem, f, colony.nfe, x)
    if f < colony.best_objective:
        colony.best_objective = f
        colony.best_position = x
    fit = 1.0 / (1.0 + f) if f >= 0.0 else 1.0 + abs(f)  # fitness_map
    if fit >= colony.fitness[i] and value != row.item(j):
        colony.sources[i] = x
        colony.objective[i] = f
        colony.fitness[i] = fit
        colony.trials[i] = 0
        colony.gene[i] = gene
    else:
        colony.trials[i] += 1


def _new_source(colony, config, problem, rng, i):
    """A uniform random source, evaluated and counted, stored by `put` as source i.

    Draws the position, then (adaptive variants only) a size gene uniform over
    the integers in [sn_min, sn_max].
    """
    pos = random_position(problem.bounds, rng)
    gene = None
    if config.adaptive_sizing:
        gene = float(config.sn_min + int(rng.random() * (config.sn_max - config.sn_min + 1)))
    f = problem.evaluate_min(pos)
    colony.nfe += 1
    if not math.isfinite(f):
        raise _non_finite(problem, f, colony.nfe, pos)
    if f < colony.best_objective:
        colony.best_objective = f
        colony.best_position = pos
    colony.put(i, pos, f, gene)


def employed_phase(colony, config, problem, rng):
    """One candidate per source, in order; NFE grows by the source count."""
    for i in range(len(colony.sources)):
        j, v, gene = candidate(i, colony, rng, config)
        _step(colony, problem, i, j, v, gene)
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
    rand = rng.random
    for _ in range(len(cum)):
        i = bisect_right(cum, rand())
        if i > last:
            i = last
        j, v, gene = candidate(i, colony, rng, config)
        _step(colony, problem, i, j, v, gene)
    return colony


def scout_phase(colony, config, problem, rng):
    """Replace at most one exhausted source with a fresh random one."""
    trials = colony.trials
    most = max(trials)
    if most > config.limit:
        _new_source(colony, config, problem, rng, trials.index(most))  # first on ties
    return colony


def adapt_colony_size(colony, config, rng, problem):
    """Resize toward the gene average: round half up, force even, clamp.

    Growth appends new random sources; shrinkage drops the lowest-fitness ones.
    """
    mean_gene = sum(colony.gene) / len(colony.gene)
    sn = math.floor(mean_gene + 0.5)
    if sn % 2:
        sn += 1
    sn = min(max(sn, config.sn_min), config.sn_max)
    current = len(colony.sources)
    if sn > current:
        for i in range(current, sn):
            _new_source(colony, config, problem, rng, i)
    elif sn < current:
        fitness = colony.fitness
        doomed = set(
            sorted(range(current), key=lambda i: (fitness[i], -i))[: current - sn]
        )
        for column in colony.columns():
            column[:] = [v for k, v in enumerate(column) if k not in doomed]
    return colony


def run(problem: Problem, config: VariantConfig, termination: TerminationRule,
        seed: int) -> RunResult:
    """Full optimization run; deterministic for a fixed (problem, config, seed)."""
    rng = RngStream(seed)
    colony = Colony(problem.bounds)
    for i in range(config.initial_colony // 2):
        _new_source(colony, config, problem, rng, i)

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
