"""The bee colony optimization loop and its candidate strategies.

One cycle runs employed bees, then fitness-proportional onlookers (an
inverse-CDF roulette, one draw per placement), then at most one scout, then
(for the adaptive variants) a colony resize driven by the per-source size
gene. All strategies modify a single randomly chosen coordinate of the bee's
own position; out-of-box values are clamped to the violated bound.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .core import ArrayFields, ConfigurationError, RngStream, integer, random_position, real
from .problems import Problem

STRATEGIES = ("basic", "sac", "sac1", "sac2", "gbest")

# Strategies that resize the colony each cycle unless explicitly disabled.
_ADAPTIVE_BY_DEFAULT = frozenset({"sac", "sac1", "sac2"})


def _require(config, convert, *names):
    """Store each named field as `convert` (core's `integer` or `real`) gives it;
    a value of the wrong type raises a ConfigurationError that names the field."""
    for name in names:
        object.__setattr__(config, name, convert(name, getattr(config, name)))


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
        _require(self, integer, "limit", "initial_colony", "sn_min", "sn_max")
        _require(self, real, "c_factor")
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(f"unknown strategy {self.strategy!r}")
        if self.limit < 1:
            raise ConfigurationError(f"limit must be positive, got {self.limit!r}")
        if not (math.isfinite(self.c_factor) and self.c_factor >= 0.0):
            raise ConfigurationError(f"c_factor must be finite and >= 0, got {self.c_factor!r}")
        if self.initial_colony < 8 or self.initial_colony % 2:
            raise ConfigurationError(
                f"initial_colony must be even and >= 8, got {self.initial_colony!r}")
        if not (4 <= self.sn_min <= self.sn_max) or self.sn_min % 2 or self.sn_max % 2:
            raise ConfigurationError(
                "sn_min/sn_max must be even with 4 <= sn_min <= sn_max, got "
                f"sn_min={self.sn_min!r}, sn_max={self.sn_max!r}")
        if self.adaptive_sizing is None:
            object.__setattr__(
                self, "adaptive_sizing", self.strategy in _ADAPTIVE_BY_DEFAULT
            )
        elif isinstance(self.adaptive_sizing, (bool, np.bool_)):
            object.__setattr__(self, "adaptive_sizing", bool(self.adaptive_sizing))
        else:  # a truthy string such as 'no' would switch sizing on
            raise ConfigurationError(
                f"adaptive_sizing must be a bool or None, got {self.adaptive_sizing!r}")
        # the first resize would drop the sources above sn_max, evaluated for nothing
        if self.adaptive_sizing and self.initial_colony // 2 > self.sn_max:
            raise ConfigurationError(
                f"initial_colony {self.initial_colony} gives {self.initial_colony // 2} "
                f"sources, more than sn_max {self.sn_max}, for adaptive {self.strategy}")


@dataclass(frozen=True)
class TerminationRule:
    """Stop on NFE budget (cycle boundary) or on closeness to a known optimum."""

    max_nfe: int = 1_000_000
    accuracy: float = 1e-20
    target: float | None = None  # minimization sense

    def __post_init__(self):
        _require(self, integer, "max_nfe")
        _require(self, real, "accuracy")
        if self.max_nfe < 1:
            raise ConfigurationError(f"max_nfe must be >= 1, got {self.max_nfe!r}")
        if not (math.isfinite(self.accuracy) and self.accuracy >= 0.0):
            raise ConfigurationError(
                f"accuracy must be finite and >= 0, got {self.accuracy!r}")
        if self.target is not None:
            _require(self, real, "target")
            # a NaN or infinite target is never reached: the run would spend its
            # whole budget without saying why
            if not math.isfinite(self.target):
                raise ConfigurationError(f"target must be finite, got {self.target!r}")

    def reached(self, best_objective: float) -> bool:
        return self.target is not None and abs(best_objective - self.target) < self.accuracy


class Trace(Sequence):
    """A read-only sequence of `(nfe, best)` pairs, an int and a float, held in
    one `array('q')` and one `array('d')`: 16 bytes a pair, where a tuple of
    pairs takes about 103.

    `Trace(nfe, best)` holds the two arrays themselves, not copies. It indexes
    and iterates as the tuple of its pairs, which `tuple(trace)` gives, and
    prints as that tuple. A slice is a Trace. It equals only a Trace of the
    same pairs and, like `RunResult`, is unhashable. The floats keep their
    bits, -0.0 included, and a Trace pickles as its two arrays.
    """

    __slots__ = ("_nfe", "_best")

    def __init__(self, nfe, best):
        self._nfe, self._best = nfe, best

    def __len__(self):
        return len(self._nfe)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self._nfe[index], self._best[index])
        return self._nfe[index], self._best[index]

    def __iter__(self):
        return zip(self._nfe, self._best)

    def __eq__(self, other):  # defining __eq__ alone leaves __hash__ None
        if isinstance(other, Trace):
            return self._nfe == other._nfe and self._best == other._best
        return NotImplemented

    def __repr__(self):
        return repr(tuple(self))

    def __reduce__(self):
        return Trace, (self._nfe, self._best)


@dataclass(frozen=True, eq=False)
class RunResult(ArrayFields):
    """Outcome of a single seeded run, reported in the user's optimization sense.

    `trace` holds the NFE count and the best objective so far after the
    initial sources and after each cycle, and at a mid-cycle stop: a `Trace`
    from `run`, or any sequence of such pairs in a hand-built result.
    """

    best_objective: float
    best_position: np.ndarray
    nfe: int
    cycles: int
    trace: Sequence[tuple[int, float]]  # (nfe, best_objective) per cycle
    seed: int


def fitness_map(objective: float) -> float:
    """Map a raw objective (minimization sense) to a strictly positive fitness."""
    if not math.isfinite(objective):
        raise ValueError(f"objective must be finite, got {objective!r}")
    if objective >= 0.0:
        return 1.0 / (1.0 + objective)
    return 1.0 - objective  # 1 + |f|: IEEE subtraction is addition of the negation


class Colony:
    """The food sources as parallel lists, plus best-so-far memory and the NFE count.

    `sources[i]` is source i's position: a list of Python floats that a
    winning candidate replaces and that is never written in place, so the best
    memory, also such a list, may share it. `fitness[i]`, `trials[i]` (failed
    attempts in a row; null moves count), `gene[i]` (proposed source count,
    None unless adaptive) and `memo[i]` hold the rest. The memo is what the
    hooks of `_hooks` keep about the position (from `start`, and from
    `settle` or an exact `move`): for a user objective without its own
    hooks, the position as the 1-d array it is evaluated on (also never
    written in place). The best objective is in minimization sense. The box
    limits are Python floats. The colony only stores: the problem's
    objective decides how a point is evaluated.
    """

    __slots__ = ("lower", "upper", "sources", "fitness", "trials", "gene", "memo",
                 "best_position", "best_objective", "nfe")

    def __init__(self, bounds):
        self.lower = bounds.lower.tolist()
        self.upper = bounds.upper.tolist()
        self.sources, self.fitness, self.trials, self.gene, self.memo = [], [], [], [], []
        self.best_position = [0.0] * bounds.dimension
        self.best_objective = math.inf
        self.nfe = 0

    def columns(self):
        """The per-source lists, in the order `put` takes a source's state."""
        return self.sources, self.fitness, self.trials, self.gene, self.memo

    def put(self, i, position, objective, gene, memo):
        """Store a fresh source with no trials as source i; i == len(sources) appends."""
        state = (position, fitness_map(objective), 0, gene, memo)
        if i == len(self.sources):
            for column, value in zip(self.columns(), state):
                column.append(value)
        else:
            for column, value in zip(self.columns(), state):
                column[i] = value


def selection_probabilities(colony: Colony) -> list[float]:
    """Fitness-proportional onlooker probabilities `fit_i / S`, S the exactly
    rounded sum of the fitnesses (`math.fsum`), so S does not depend on their
    order; sums to 1 up to rounding. Past the float range S is inf, as
    numpy's sum gives it, and every probability 0.0."""
    fitness = colony.fitness
    if not fitness:
        raise ValueError("colony is empty")
    try:
        total = math.fsum(fitness)
    except OverflowError:  # fsum refuses an overflowing sum of finite terms
        total = math.inf
    return [fit / total for fit in fitness]


def _hooks(evaluate):
    """The objective's hooks `(start, move, settle)`, settle None if it has
    `start` and `move` but no `settle`; else those of an adapter that calls
    `evaluate` once per counted evaluation, in `start` or in `move`, with the
    position array, never written in place, as the memo, and settle None.
    Every registered problem has hooks of its own, so the adapter serves
    user objectives, and objectives wrapped in a plain function.

    The hook contract. `start(x) -> (f, memo)` evaluates a fresh point. A
    move sets coordinate j of the memo's own point to the float v, in one of
    two forms. Exact, with no `settle`: `move(memo, j, v) -> (f, memo)` gives
    f at the moved point and the memo `start` would give there. Bounded:
    `move(memo, j, v) -> (low, step)` gives `low`, nan or a float no greater
    than f at the moved point, finite only where f is finite, and
    `settle(memo, step) -> (f, memo)` finishes the evaluation. Each f is
    `evaluate`'s value at its point, bit for bit, so a run gives the same
    result with or without the hooks. Neither `move` nor `settle` changes
    the memo it is given, because a losing candidate keeps its source's
    memo; a bounded candidate that `low` shows to lose is never settled
    (`_phase`)."""
    start = getattr(evaluate, "start", None)
    move = getattr(evaluate, "move", None)
    if start is not None and move is not None:
        return start, move, getattr(evaluate, "settle", None)

    def start(x):
        return evaluate(x), x

    def move(x, j, v):
        y = x.copy()
        y[j] = v
        return evaluate(y), y

    return start, move, None


def _keep_best(colony, problem, f, position):
    """Store f, the counted evaluation at `position` (minimization sense, a list
    of floats), as the new best, or stop the run with a ValueError that names
    the problem, the value, the evaluation and the point if f is nan or an
    infinity. Called only for an f below the best so far or not finite."""
    if not math.isfinite(f):
        raise ValueError(
            f"problem {problem.name!r} returned a non-finite objective "
            f"{problem.to_user_sense(f)!r} at evaluation {colony.nfe} "
            f"(position {position})")
    colony.best_objective = f
    colony.best_position = position


def _phase(colony, config, problem, rng, placements):
    """The candidate operator over one phase: for each source i that
    `placements` yields, in order, move source i in one coordinate, evaluate
    the candidate, counted, and keep it iff it moves and its fitness ties or
    beats the incumbent's.

    Draw order: dimension j; partner a != i; for sac1 only, partner b not in
    {i, a}; phi in [-1, 1); for gbest only, psi in [0, C). Each draw is one
    u = random(): an index in {0, ..., n-1} is floor(u * n), by `math.floor`,
    which is int(u * n) for u * n >= 0 at a lower cost and is below n for
    every u < 1 and n <= 2**53; a real in [lo, hi) is lo + (hi - lo) * u.
    The coordinate becomes

    - basic, sac: x_ij + phi * (x_ij - x_aj)
    - sac1:       best_j + phi * (x_aj - x_bj)  (elitist)
    - sac2:       x_ij + phi * (x_ij - x_aj) + C * (best_j - x_ij)
    - gbest:      x_ij + phi * (x_ij - x_aj) + psi * (best_j - x_ij)

    clamped to the violated bound, so sac1 needs three sources and the others
    two. sac2 is the gbest move with the pull weight fixed at C. The size
    gene, if the colony carries one, moves by the same phi against b for sac1
    and against a otherwise, and is clamped to [sn_min, sn_max]. Only a
    winner keeps its gene, so the gene is moved only when the candidate wins:
    it draws nothing and reads genes[i], genes[b] and phi, which nothing
    before that changes.

    The objective gets only (j, value), through one `move` of `_hooks` per
    counted evaluation. A null move, the value equal to the incumbent's own
    x_ij (a step clamped back onto its bound, an elitist move in a colony
    collapsed onto the best), is counted but fails: the incumbent gains a
    trial, so it can still be scouted. It is still passed to `move`, once,
    like every counted evaluation; a hook may answer it from its memo
    (`problems.OnFloats` does).

    Two kinds of candidate are sure losers, counted and given a trial
    unjudged, because judging would find just that. One, of either form
    (`_hooks`), is a null move with v != 0.0, whose bits are then x_ij's:
    its value is its incumbent's, which is finite and no better than the
    best so far. The other, bounded and so never settled, on a minimization
    problem, has a bound `low` that is finite, at least the best objective
    so far, and maps to a fitness below the incumbent's: its value f is
    finite and f >= low, and the fitness map, as computed in floats, never
    increases with f, so the candidate can neither win nor set a new best.
    Every other candidate is judged on its value: an exact one on `move`'s,
    a bounded one once settled (on a maximization problem the negated low
    bounds f from the wrong side, so there only null moves go unsettled).
    The candidate's position list is built only when it wins, becomes the
    best or is non-finite (`_keep_best` then keeps it or stops the run).

    The phase's constants are bound once, and the best so far and the NFE
    count are kept in locals. The count is written back to the colony before
    each `_keep_best`, so its error names the evaluation, and when the phase
    ends, however it ends.
    """
    rand = rng.random
    floor = math.floor
    strategy = config.strategy
    two_partners = strategy == "sac1"
    sac2, gbest = strategy == "sac2", strategy == "gbest"
    c_factor = config.c_factor
    sources, fitness, trials, genes, memos = colony.columns()
    n = len(sources)
    needed = 3 if two_partners else 2
    if n < needed:
        raise ValueError(f"{strategy} candidate needs at least {needed} sources")
    lower, upper = colony.lower, colony.upper
    dimension = len(lower)
    gene_lo, gene_hi = float(config.sn_min), float(config.sn_max)
    _, move, settle = _hooks(problem.evaluate)
    maximize = problem.direction != "minimize"
    inf = math.inf
    best_objective, best_position = colony.best_objective, colony.best_position
    nfe = colony.nfe
    try:
        for i in placements:
            j = floor(rand() * dimension)
            a = i
            while a == i:
                a = floor(rand() * n)
            b = a  # the partner the gene moves against
            if two_partners:
                while b == i or b == a:
                    b = floor(rand() * n)
            phi = -1.0 + 2.0 * rand()
            row = sources[i]
            x = row[j]
            if two_partners:
                v = best_position[j] + phi * (sources[a][j] - sources[b][j])
            else:
                # the pull is added only where it exists: + 0.0 would turn -0.0 into +0.0
                v = x + phi * (x - sources[a][j])
                if sac2:
                    v += c_factor * (best_position[j] - x)
                elif gbest:
                    # psi = 0.0 + (C - 0.0) * u, and C - 0.0 is C
                    v += (0.0 + c_factor * rand()) * (best_position[j] - x)
            lo, hi = lower[j], upper[j]
            v = lo if v < lo else hi if v > hi else v

            f, memo = move(memos[i], j, v)
            if v == x and v != 0.0:  # a null move: its incumbent's value
                nfe += 1  # a sure loser: counted, a trial
                trials[i] += 1
                continue
            if settle is not None:  # bounded: f is the low, memo the step
                if (not maximize and best_objective <= f < inf
                        and (1.0 / (1.0 + f) if f >= 0.0 else 1.0 - f) < fitness[i]):
                    nfe += 1  # a sure loser: counted, a trial, no settle
                    trials[i] += 1
                    continue
                f, memo = settle(memos[i], memo)
            if maximize:
                f = -f
            nfe += 1
            fit = 1.0 / (1.0 + f) if f >= 0.0 else 1.0 - f  # fitness_map
            won = fit >= fitness[i] and v != x
            # below the best, or nan or +inf (-inf is below): a stop in _keep_best
            best = f < best_objective or not f < inf
            if best or won:
                y = row.copy()
                y[j] = v
                if best:
                    colony.nfe = nfe
                    _keep_best(colony, problem, f, y)
                    best_objective, best_position = f, y
            if won:
                sources[i] = y
                fitness[i] = fit
                trials[i] = 0
                memos[i] = memo
                gene = genes[i]
                if gene is not None:
                    gene += phi * (gene - genes[b])
                    genes[i] = (gene_lo if gene < gene_lo
                                else gene_hi if gene > gene_hi else gene)
            else:
                trials[i] += 1
    finally:
        colony.nfe = nfe


def _new_source(colony, config, problem, rng, i):
    """A uniform random source, evaluated and counted, stored by `put` as source i.

    Draws the position, then (adaptive variants only) a size gene uniform over
    the integers in [sn_min, sn_max]. The position list is stored as the
    source, and as the best if it is one; `start` gets it as an array.
    """
    pos = random_position(colony.lower, colony.upper, rng)
    gene = None
    if config.adaptive_sizing:
        gene = float(config.sn_min
                     + math.floor(rng.random() * (config.sn_max - config.sn_min + 1)))
    f, memo = _hooks(problem.evaluate)[0](np.array(pos))
    if problem.direction != "minimize":
        f = -f
    colony.nfe += 1
    if f < colony.best_objective or not math.isfinite(f):
        _keep_best(colony, problem, f, pos)
    colony.put(i, pos, f, gene, memo)


def employed_phase(colony, config, problem, rng):
    """One candidate per source, in order; NFE grows by the source count."""
    _phase(colony, config, problem, rng, range(len(colony.sources)))


def onlooker_phase(colony, config, problem, rng):
    """Exactly SN fitness-proportional placements, one raw draw each.

    The roulette inverts the cumulative `selection_probabilities`, taken once
    per phase as a left fold (`accumulate`, the order of numpy's `cumsum`):
    a placement goes to the first source whose cumulative
    probability exceeds a draw u = random(), or to the last source where
    rounding has left the cumulative total at or below u. The last
    cumulative value is set to infinity, so `bisect_right` alone gives both.
    Each u is drawn just before its placement's own draws: `map` draws it as
    `_phase` asks for the next placement, and stops after SN placements
    without drawing again.
    """
    cum = list(accumulate(selection_probabilities(colony)))
    cum[-1] = math.inf
    placements = map(bisect_right, repeat(cum, len(cum)), iter(rng.random, None))
    _phase(colony, config, problem, rng, placements)


def scout_phase(colony, config, problem, rng):
    """Replace at most one exhausted source with a fresh random one."""
    trials = colony.trials
    most = max(trials)
    if most > config.limit:
        _new_source(colony, config, problem, rng, trials.index(most))  # first on ties


def adapt_colony_size(colony, config, problem, rng):
    """Resize toward the gene average (by `math.fsum`, so the same on every
    Python): round half up, force even, clamp.

    Growth appends new random sources. Shrinkage drops the lowest-fitness
    ones, the later index first among equal fitness, from every column in
    place; the survivors keep their order. A stable sort by fitness of the
    indices in descending order gives that tie rule.
    """
    mean_gene = math.fsum(colony.gene) / len(colony.gene)
    sn = math.floor(mean_gene + 0.5)
    if sn % 2:
        sn += 1
    sn = min(max(sn, config.sn_min), config.sn_max)
    current = len(colony.sources)
    if sn > current:
        for i in range(current, sn):
            _new_source(colony, config, problem, rng, i)
    elif sn < current:
        doomed = sorted(range(current - 1, -1, -1),
                        key=colony.fitness.__getitem__)[:current - sn]
        doomed.sort(reverse=True)  # delete from the end, so no index shifts
        for column in colony.columns():
            for k in doomed:
                del column[k]


def run(problem: Problem, config: VariantConfig, termination: TerminationRule,
        seed: int) -> RunResult:
    """Full optimization run; deterministic for a fixed (problem, config, seed)."""
    seed = integer("seed", seed)  # reported as a plain int
    rng = RngStream(seed)
    colony = Colony(problem.bounds)
    for i in range(config.initial_colony // 2):
        _new_source(colony, config, problem, rng, i)

    # looked up per run, not bound at import, so a wrapper set on the module is used
    phases = (employed_phase, onlooker_phase, scout_phase)
    if config.adaptive_sizing:
        phases += (adapt_colony_size,)
    cycles = 0
    nfes, bests = array("q", [colony.nfe]), array("d", [colony.best_objective])
    while not termination.reached(colony.best_objective) and colony.nfe < termination.max_nfe:
        for phase in phases:
            phase(colony, config, problem, rng)
            if termination.reached(colony.best_objective):
                break  # mid-cycle: the cycle is not counted
        else:
            cycles += 1
        nfes.append(colony.nfe)
        bests.append(colony.best_objective)

    best_position = np.array(colony.best_position)
    if problem.integrality is not None:
        mask = problem.integrality
        best_position[mask] = np.floor(best_position[mask] + 0.5)
    if problem.direction == "maximize":
        bests = array("d", map(problem.to_user_sense, bests))
    return RunResult(
        best_objective=problem.to_user_sense(colony.best_objective),
        best_position=best_position,
        nfe=colony.nfe,
        cycles=cycles,
        trace=Trace(nfes, bests),
        seed=seed,
    )
