import numpy as np
import pytest

from beehive.core import RngStream


class ScriptedRng(RngStream):
    """Deterministic stand-in: hands out preset raw `random()` draws in call order.

    The engine turns each raw draw u into an index int(n * u) or a real
    lo + (hi - lo) * u; `index_draw` and `real_draw` give the u for a wanted
    index or real.
    """

    def __init__(self, raws=()):
        super().__init__(0)
        self._raws = list(raws)
        self.random = lambda: self._raws.pop(0)

    def used_up(self) -> bool:
        """Whether every scripted draw has been handed out."""
        return not self._raws


def index_draw(k: int, n: int) -> float:
    """The raw draw that int(n * u) maps to index k of n."""
    return (k + 0.5) / n


def real_draw(value: float, lo: float, hi: float) -> float:
    """The raw draw that lo + (hi - lo) * u maps to `value` (up to rounding)."""
    return (value - lo) / (hi - lo)


def in_box(bounds, position) -> bool:
    """Whether `position` has the box's shape and every coordinate lies within
    [lower, upper], both ends included."""
    x = np.asarray(position, dtype=float)
    return x.shape == bounds.lower.shape and bool(
        np.all(x >= bounds.lower) and np.all(x <= bounds.upper))


@pytest.fixture
def scripted():
    return ScriptedRng
