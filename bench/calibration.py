"""A fixed calibration loop: how fast this machine runs Python right now.

On a shared machine the speed of a core drifts by up to 1.7x within a minute,
as neighbours come and go (a fixed spin loop here ran at 37 to 68 chunks per
second). Raw seconds then spread more between runs than any bound worth
having. The benchmark therefore samples this loop between operations and
reports each end-to-end timing in `cal`: the operation's wall time divided by
the loop's time around it. The loop mixes interpreter work (the engine's kind)
with small numpy calls (the objectives' kind) and uses no `beehive` code, so a
faster program reads as fewer `cal` while a busier machine does not.
"""
from __future__ import annotations

import multiprocessing
import multiprocessing.resource_tracker
import random
from time import perf_counter

import numpy as np

_POINTS = np.random.default_rng(0).uniform(-2.0, 2.0, (13, 3))


def _interpreter_part() -> float:
    draw = random.Random(12345).random
    values = [0.0] * 30
    acc = 0.0
    for _ in range(20_000):
        j = int(draw() * 30)
        v = values[j] + draw() - 0.5
        values[j] = -5.0 if v < -5.0 else 5.0 if v > 5.0 else v
        acc += values[j] * values[j]
    return acc


def _numpy_part() -> float:
    acc = 0.0
    for _ in range(60):
        for i in range(12):
            d = _POINTS[i + 1:] - _POINTS[i]
            r2 = np.einsum("ij,ij->i", d, d)
            inv6 = 1.0 / (r2 * r2 * r2)
            acc += float(np.sum(inv6 * inv6 - 2.0 * inv6))
    return acc


def loop_seconds() -> float:
    t0 = perf_counter()
    _interpreter_part()
    _numpy_part()
    return perf_counter() - t0


def _serve(conn) -> None:
    while conn.recv():
        conn.send(loop_seconds())


class Clock:
    """Calibration samples, one taken before the first operation and one
    after each operation (or group of operations).

    With `cores` > 1 each sample runs the loop on that many cores at once and
    keeps the slowest, since a parallel batch waits for its slowest worker.
    Use it as a context manager: on exit it stops its helper processes, and
    the resource tracker that starting them launched, and waits for each to
    end. A sample is the mean of `repeats` such runs of the loop.
    """

    def __init__(self, cores: int = 1, repeats: int = 1):
        self._repeats = repeats
        self._peers = []
        self.samples: list[float] = []
        try:
            ctx = multiprocessing.get_context("spawn")
            for _ in range(cores - 1):
                here, there = ctx.Pipe()
                process = ctx.Process(target=_serve, args=(there,), daemon=True)
                self._peers.append((here, process))
                process.start()
                there.close()  # so a helper that dies raises EOFError here, not a hang
            self.sample()
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Stop the helpers and wait for them, on every path out."""
        if not self._peers:
            return
        for conn, process in self._peers:
            if process.pid is not None:
                try:
                    conn.send(False)
                except OSError:
                    pass  # the helper is gone already
                process.join(timeout=30)
                if process.is_alive():
                    process.kill()
                    process.join()
            conn.close()
        self._peers = []
        # Spawning launches multiprocessing's resource tracker, which would
        # otherwise outlive this process; closing its pipe ends it.
        multiprocessing.resource_tracker._resource_tracker._stop()

    def _slowest(self) -> float:
        for conn, _ in self._peers:
            conn.send(True)
        mine = loop_seconds()
        return max([mine] + [conn.recv() for conn, _ in self._peers])

    def sample(self) -> None:
        self.samples.append(sum(self._slowest() for _ in range(self._repeats)) / self._repeats)

    def mark(self) -> int:
        """Index of the latest sample: the one taken before the next operation."""
        return len(self.samples) - 1

    def cal(self, wall: float, mark: int) -> float:
        """`wall` in calibration loops, at the mean loop time since `mark`."""
        around = self.samples[mark:]
        return wall * len(around) / sum(around)
