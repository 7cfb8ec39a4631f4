import numpy as np
import pytest

from beehive.core import RngStream


class ScriptedRng(RngStream):
    """Deterministic stand-in: hands out preset draws in call order.

    `reals` feed uniform_real (the values are returned as-is, so script the
    final draw you want, e.g. phi itself); `ints` feed uniform_int; `raws`
    feed the bare random() used by the onlooker roulette.
    """

    def __init__(self, reals=(), ints=(), raws=()):
        super().__init__(0)
        self._reals = list(reals)
        self._ints = list(ints)
        self._raws = list(raws)
        if self._raws:
            self.random = lambda: self._raws.pop(0)

    def used_up(self) -> bool:
        """Whether every scripted draw has been handed out."""
        return not (self._reals or self._ints or self._raws)

    def uniform_real(self, a, b):
        return self._reals.pop(0)

    def uniform_int(self, n):
        return self._ints.pop(0)


@pytest.fixture
def scripted():
    return ScriptedRng
