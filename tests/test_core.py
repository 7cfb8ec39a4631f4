"""Bounds, random positions, and the seeded RNG stream."""
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from beehive.core import Bounds, ConfigurationError, RngStream, random_position
from conftest import in_box


def bits(position):
    """The position as a list of Python floats, by their bits: an ndarray or
    a numpy scalar fails the type check."""
    assert type(position) is list and all(type(x) is float for x in position)
    return [x.hex() for x in position]


class TestBounds:
    def test_cube_shape_and_values(self):
        b = Bounds.cube(-5.12, 5.12, 30)
        assert b.dimension == 30
        assert np.all(b.lower == -5.12)
        assert np.all(b.upper == 5.12)

    def test_rejects_inverted_limits(self):
        with pytest.raises(ValueError):
            Bounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("lower,upper,bad", [
        ([0.0], [np.inf], "inf"),
        ([-np.inf, 0.0], [0.0, 1.0], "-inf"),
        ([0.0, np.nan], [1.0, 1.0], "nan"),
    ])
    def test_rejects_a_non_finite_limit_and_names_it(self, lower, upper, bad):
        # a run on [0, inf] stopped at its first evaluation, at position [inf]
        with pytest.raises(ConfigurationError, match=f"each bound must be finite, got {bad}$"):
            Bounds(lower, upper)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Bounds(np.array([0.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("lower,upper,named", [
        ([1.0], [0.0], "lower bound 1.0 of coordinate 0 is not below its upper bound 0.0"),
        ([0.0, 2.5], [1.0, 2.5], "lower bound 2.5 of coordinate 1 is not below its upper bound 2.5"),
    ])
    def test_inverted_limits_name_the_coordinate_and_both_limits(self, lower, upper, named):
        # the message named neither the coordinate nor the values
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            Bounds(lower, upper)

    @pytest.mark.parametrize("lower,upper,shapes", [
        ([[1.0]], [[2.0]], "(1, 1) and (1, 1)"),
        ([0.0], [1.0, 2.0], "(1,) and (2,)"),
        ([], [], "(0,) and (0,)"),
    ])
    def test_bad_shapes_are_named(self, lower, upper, shapes):
        with pytest.raises(ConfigurationError, match=re.escape(f"got shapes {shapes}")):
            Bounds(lower, upper)

    def test_contains(self):
        b = Bounds(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        assert in_box(b, np.array([0.0, 1.0]))
        assert in_box(b, np.array([0.5, 0.0]))
        assert not in_box(b, np.array([1.5, 0.0]))
        assert not in_box(b, np.array([0.5]))


class TestRandomPosition:
    def test_always_inside_box(self):
        b = Bounds(np.array([-3.0, 100.0]), np.array([-1.0, 101.0]))
        lower, upper = b.lower.tolist(), b.upper.tolist()
        rng = RngStream(42)
        for _ in range(10_000):
            assert in_box(b, random_position(lower, upper, rng))

    def test_scripted_edges(self, scripted):
        b = Bounds(np.array([-3.0, 100.0]), np.array([-1.0, 101.0]))
        lower, upper = b.lower.tolist(), b.upper.tolist()
        rng = scripted(raws=[0.0, 1.0, 0.5, 0.5])
        assert bits(random_position(lower, upper, rng)) == bits([-3.0, 101.0])
        assert bits(random_position(lower, upper, rng)) == bits([-2.0, 100.5])

    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6)),
                    min_size=1, max_size=60))
    def test_matches_the_coordinate_loop_bytewise(self, seed, box):
        """The list of floats equals, bit for bit, the numpy loop it replaced:
        one numpy element per coordinate, u drawn as uniform_real(0.0, 1.0)."""
        lower = np.array([lo for lo, _ in box])
        b = Bounds(lower, lower + np.array([width for _, width in box]))
        rng = RngStream(seed)
        out = np.empty(b.dimension)
        for j in range(b.dimension):
            u = 0.0 + (1.0 - 0.0) * rng.random()
            out[j] = b.lower[j] + u * (b.upper[j] - b.lower[j])
        got = random_position(b.lower.tolist(), b.upper.tolist(), RngStream(seed))
        assert bits(got) == bits(out.tolist())

    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1e-300, 1e300)),
                    min_size=1, max_size=200))
    def test_equals_the_numpy_expression_bitwise(self, seed, box):
        """`lower + u * (upper - lower)` on arrays, the expression it replaced,
        for D from 1 to 200 and widths from 1e-300 to 1e300; each lower limit
        is a multiple of its width, so the box is never empty."""
        lower = np.array([c * width for c, width in box])
        b = Bounds(lower, lower + np.array([width for _, width in box]))
        rand = RngStream(seed).random
        u = np.array([rand() for _ in range(b.dimension)])
        expected = b.lower + u * (b.upper - b.lower)
        got = random_position(b.lower.tolist(), b.upper.tolist(), RngStream(seed))
        assert bits(got) == bits(expected.tolist())


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(123)
        b = RngStream(123)
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_different_seed_diverges(self):
        a = RngStream(1)
        b = RngStream(2)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    @pytest.mark.parametrize("seed", [-1, -2, -2**64])
    def test_negative_seed_is_rejected(self, seed):
        # random.Random seeds with abs(seed): -s would replay seed s
        with pytest.raises(ConfigurationError, match=f"seed must be >= 0, got {seed}"):
            RngStream(seed)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", None, True, False, np.True_])
    def test_non_integer_seed_is_rejected(self, seed):
        # int(1.5) replayed seed 1's stream under the name 1.5, and True seed 1's
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"seed must be an integer, got {seed!r}")):
            RngStream(seed)

    def test_numpy_integer_seed_is_its_int(self):
        a, b = RngStream(np.int64(7)), RngStream(7)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
