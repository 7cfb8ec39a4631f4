"""A reference ABC for the tests: the algorithm of the README's "The
algorithm" section as one plain loop, independent of the engine.

It draws in the order `engine._phase` documents and evaluates every candidate
by `problem.evaluate` on a fresh array: it has no colony columns, memos,
hooks, sure-loser rule or winner-only gene move. So `engine.run`, with all
of those, must give its results bit for bit. From `beehive` it uses only the
problem record, `VariantConfig` and `TerminationRule`.
"""
import math
import random

import numpy as np


def fitness(f):
    """1/(1+f) for f >= 0, 1+|f| otherwise."""
    return 1.0 / (1.0 + f) if f >= 0.0 else 1.0 + abs(f)


class ReferenceRun:
    """One seeded run; `result()` gives `(best_objective, best_position, nfe,
    cycles, trace)` in the user's sense, the trace a tuple of pairs."""

    def __init__(self, problem, config, termination, seed):
        self.problem, self.config, self.termination = problem, config, termination
        self.rand = random.Random(seed).random
        self.lower = problem.bounds.lower.tolist()
        self.upper = problem.bounds.upper.tolist()
        self.maximize = problem.direction == "maximize"
        self.nfe, self.best, self.best_x = 0, math.inf, None
        self.sources, self.fits, self.trials, self.genes = [], [], [], []

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.rand()

    def index(self, n):
        return math.floor(self.rand() * n)

    def evaluate(self, x):
        """The counted minimization-sense value at the list x, kept as the
        best if below it."""
        f = self.problem.evaluate(np.array(x))
        if self.maximize:
            f = -f
        self.nfe += 1
        if not math.isfinite(f):
            raise ValueError(f"non-finite objective {f!r} at evaluation {self.nfe}")
        if f < self.best:
            self.best, self.best_x = f, x
        return f

    def fresh(self):
        """A uniform random source, evaluated: position, fitness, size gene."""
        x = [self.uniform(lo, hi) for lo, hi in zip(self.lower, self.upper)]
        gene = None
        if self.config.adaptive_sizing:
            sn_min, sn_max = self.config.sn_min, self.config.sn_max
            gene = float(sn_min + self.index(sn_max - sn_min + 1))
        return x, fitness(self.evaluate(x)), gene

    def candidate(self, i):
        """Source i moves in one coordinate and keeps the move if it ties or
        beats the incumbent's fitness and changes the position."""
        strategy, c, n = self.config.strategy, self.config.c_factor, len(self.sources)
        x = self.sources[i]
        j = self.index(len(x))
        a = i
        while a == i:
            a = self.index(n)
        b = a
        if strategy == "sac1":
            while b in (i, a):
                b = self.index(n)
        phi = self.uniform(-1.0, 1.0)
        if strategy == "sac1":
            v = self.best_x[j] + phi * (self.sources[a][j] - self.sources[b][j])
        else:
            v = x[j] + phi * (x[j] - self.sources[a][j])
            if strategy == "sac2":
                v += c * (self.best_x[j] - x[j])
            elif strategy == "gbest":
                v += self.uniform(0.0, c) * (self.best_x[j] - x[j])
        lo, hi = self.lower[j], self.upper[j]
        v = lo if v < lo else hi if v > hi else v
        y = x.copy()
        y[j] = v
        fit = fitness(self.evaluate(y))
        if fit >= self.fits[i] and v != x[j]:
            self.sources[i], self.fits[i], self.trials[i] = y, fit, 0
            gene = self.genes[i]
            if gene is not None:
                gene += phi * (gene - self.genes[b])
                self.genes[i] = min(max(gene, float(self.config.sn_min)),
                                    float(self.config.sn_max))
        else:
            self.trials[i] += 1

    def employed(self):
        for i in range(len(self.sources)):
            self.candidate(i)

    def onlooker(self):
        """Fitness-proportional placements: the first source whose cumulative
        probability exceeds the draw, else the last. The probabilities divide
        by the exactly rounded sum of the fitnesses."""
        cum = (np.array(self.fits) / math.fsum(self.fits)).cumsum().tolist()
        last = len(cum) - 1
        for _ in range(len(cum)):
            u = self.rand()
            self.candidate(next((k for k, p in enumerate(cum) if p > u), last))

    def scout(self):
        most = max(self.trials)
        if most > self.config.limit:
            i = self.trials.index(most)
            self.sources[i], self.fits[i], self.genes[i] = self.fresh()
            self.trials[i] = 0

    def append(self):
        x, fit, gene = self.fresh()
        self.sources.append(x)
        self.fits.append(fit)
        self.trials.append(0)
        self.genes.append(gene)

    def resize(self):
        """To the mean gene, rounded half up, made even and clamped; growth
        appends fresh sources, shrinkage drops the lowest fitness, the later
        index first among equals."""
        sn = math.floor(sum(self.genes) / len(self.genes) + 0.5)
        sn = min(max(sn + sn % 2, self.config.sn_min), self.config.sn_max)
        n = len(self.sources)
        for _ in range(n, sn):
            self.append()
        if sn < n:
            doomed = set(sorted(range(n), key=lambda k: (self.fits[k], -k))[:n - sn])
            for column in (self.sources, self.fits, self.trials, self.genes):
                column[:] = [item for k, item in enumerate(column) if k not in doomed]

    def result(self):
        for _ in range(self.config.initial_colony // 2):
            self.append()
        phases = [self.employed, self.onlooker, self.scout]
        if self.config.adaptive_sizing:
            phases.append(self.resize)
        reached, cycles = self.termination.reached, 0
        trace = [(self.nfe, self.best)]
        while not reached(self.best) and self.nfe < self.termination.max_nfe:
            for phase in phases:
                phase()
                if reached(self.best):
                    break
            else:
                cycles += 1
            trace.append((self.nfe, self.best))
        position = np.array(self.best_x)
        if self.problem.integrality is not None:
            mask = self.problem.integrality
            position[mask] = np.floor(position[mask] + 0.5)
        sense = (lambda f: -f) if self.maximize else (lambda f: f)
        return (sense(self.best), position, self.nfe, cycles,
                tuple((nfe, sense(best)) for nfe, best in trace))
