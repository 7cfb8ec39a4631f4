"""Spans and counters for the traced run, recorded from outside the program.

The probes rebind module attributes that `beehive` resolves at call time (the
engine's phase, candidate and selection functions, `RngStream`,
`random_position`, the harness's `ProcessPoolExecutor`, the CLI's `run_batch`
and `write_*` functions) and restore them on exit. Objectives are wrapped by
`dataclasses.replace` on the `Problem`. A name the program no longer has is
left alone, and the metrics that depend on it read 0.

Phase calls get spans `[name, start, end, parent]`; per-call layers only bump
counters, so tracing costs little more than the counted calls themselves.
Spans stay in memory until `write` saves them.
"""
from __future__ import annotations

import dataclasses
import json
import pickle
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

PHASES = {
    "employed_phase": "employed",
    "onlooker_phase": "onlooker",
    "scout_phase": "scout",
    "adapt_colony_size": "adapt",
}
CANDIDATES = ("candidate_basic", "candidate_elitist", "candidate_global_local",
              "candidate_gbest")
WRITERS = ("write_stats_csv", "write_stats_json", "write_comparison_csv",
           "write_comparison_json", "write_trace_csv", "write_convergence_csv")


@contextmanager
def _rebound(module, replacements: dict):
    saved = {k: getattr(module, k) for k in replacements}
    for k, v in replacements.items():
        setattr(module, k, v)
    try:
        yield
    finally:
        for k, v in saved.items():
            setattr(module, k, v)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self._open: list[tuple] = []     # (span index, random calls, evaluations) at open
        self.time = Counter()            # seconds per counted layer
        self.calls = Counter()           # calls per counted layer
        self.random_calls = 0
        self.evals = 0
        self.phase_random = Counter()    # random calls made inside each phase
        self.phase_evals = Counter()     # evaluations made inside each phase
        self.candidate_random = Counter()  # random calls of candidates, by phase
        self.candidate_calls = Counter()   # candidates made, by phase
        self.accepted = 0
        self.colony_sizes: list[int] = []
        self.pickle_bytes = 0
        self.pickled_runs = 0

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self._open.append((len(self.spans), self.random_calls, self.evals))
        self.spans.append([name, perf_counter(), 0.0, parent])

    def close(self) -> None:
        end = perf_counter()
        index, random0, evals0 = self._open.pop()
        span = self.spans[index]
        span[2] = end
        self.phase_random[span[0]] += self.random_calls - random0
        self.phase_evals[span[0]] += self.evals - evals0

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def _current(self) -> str:
        return self.spans[self._open[-1][0]][0] if self._open else ""

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus that of child spans."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        totals = Counter()
        for s, t in zip(self.spans, own):
            totals[s[0]] += t
        return dict(totals)

    # -- probes -------------------------------------------------------------

    def objective(self, problem):
        """The problem with its objective timed and counted."""
        fn = problem.evaluate

        def timed(x):
            t0 = perf_counter()
            f = fn(x)
            self.time["evaluate"] += perf_counter() - t0
            self.evals += 1
            return f

        return dataclasses.replace(problem, evaluate=timed)

    def _phase(self, name, fn):
        def traced(colony, *args):
            if name == "employed":
                self.colony_sizes.append(len(colony.sources))
            self.open(name)
            try:
                return fn(colony, *args)
            finally:
                self.close()
        return traced

    def _candidate(self, fn):
        def counted(*args):
            r0 = self.random_calls
            t0 = perf_counter()
            out = fn(*args)
            self.time["candidate"] += perf_counter() - t0
            phase = self._current()
            self.candidate_calls[phase] += 1
            self.candidate_random[phase] += self.random_calls - r0
            return out
        return counted

    def _greedy(self, fn):
        def counted(current, *args):
            e0 = self.time["evaluate"]
            t0 = perf_counter()
            out = fn(current, *args)
            self.time["greedy_select"] += perf_counter() - t0
            self.time["greedy_select_evaluate"] += self.time["evaluate"] - e0
            self.calls["greedy_select"] += 1
            self.accepted += out is not current
            return out
        return counted

    def _timed(self, key, fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.time[key] += perf_counter() - t0
            self.calls[key] += 1
            return out
        return timed

    def _rng_class(self, base):
        tracer = self

        class CountingRng(base):
            def __init__(self, seed):
                super().__init__(seed)
                draw = self.random

                def counted():
                    tracer.random_calls += 1
                    return draw()

                self.random = counted

        return CountingRng

    def count_results(self, results) -> None:
        """Bytes each RunResult pickles to: what a pool worker sends back."""
        for r in results:
            self.pickle_bytes += len(pickle.dumps(r))
            self.pickled_runs += 1

    @contextmanager
    def engine_probes(self):
        from beehive import engine

        repl = {k: self._phase(v, getattr(engine, k))
                for k, v in PHASES.items() if hasattr(engine, k)}
        repl.update({k: self._candidate(getattr(engine, k))
                     for k in CANDIDATES if hasattr(engine, k)})
        if hasattr(engine, "greedy_select"):
            repl["greedy_select"] = self._greedy(engine.greedy_select)
        if hasattr(engine, "random_position"):
            repl["random_position"] = self._timed("random_position", engine.random_position)
        if hasattr(engine, "RngStream"):
            repl["RngStream"] = self._rng_class(engine.RngStream)
        with _rebound(engine, repl):
            yield

    @contextmanager
    def harness_probes(self):
        from beehive import cli, harness

        tracer = self
        pools = {}
        if hasattr(harness, "ProcessPoolExecutor"):
            class CountingPool(harness.ProcessPoolExecutor):
                def __init__(self, *args, **kwargs):
                    tracer.calls["pool"] += 1
                    super().__init__(*args, **kwargs)

            pools["ProcessPoolExecutor"] = CountingPool
        repl = {k: self._timed("write", getattr(cli, k)) for k in WRITERS if hasattr(cli, k)}
        if hasattr(cli, "run_batch"):
            batch = self._timed("run_batch", cli.run_batch)

            def run_batch(*args, **kwargs):
                results = batch(*args, **kwargs)
                self.count_results(results)
                return results

            repl["run_batch"] = run_batch
        with _rebound(harness, pools), _rebound(cli, repl):
            yield

    def write(self, path) -> None:
        """Save the spans and self times as JSON."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "self_time_s": self.self_times()}, fh)
            fh.write("\n")
