"""Bounds, random positions, and the seeded RNG stream."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from beehive.core import Bounds, RngStream, random_position


class TestBounds:
    def test_cube_shape_and_values(self):
        b = Bounds.cube(-5.12, 5.12, 30)
        assert b.dimension == 30
        assert np.all(b.lower == -5.12)
        assert np.all(b.upper == 5.12)

    def test_rejects_inverted_limits(self):
        with pytest.raises(ValueError):
            Bounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Bounds(np.array([0.0]), np.array([1.0, 2.0]))

    def test_contains(self):
        b = Bounds(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        assert b.contains(np.array([0.0, 1.0]))
        assert b.contains(np.array([0.5, 0.0]))
        assert not b.contains(np.array([1.5, 0.0]))
        assert not b.contains(np.array([0.5]))


class TestRandomPosition:
    def test_always_inside_box(self):
        b = Bounds(np.array([-3.0, 100.0]), np.array([-1.0, 101.0]))
        rng = RngStream(42)
        for _ in range(10_000):
            assert b.contains(random_position(b, rng))

    def test_scripted_edges(self, scripted):
        b = Bounds(np.array([-3.0, 100.0]), np.array([-1.0, 101.0]))
        rng = scripted(raws=[0.0, 1.0, 0.5, 0.5])
        assert random_position(b, rng).tolist() == [-3.0, 101.0]
        assert random_position(b, rng).tolist() == [-2.0, 100.5]

    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6)),
                    min_size=1, max_size=60))
    def test_matches_the_coordinate_loop_bytewise(self, seed, box):
        """The one-expression fill equals, byte for byte, the loop it replaced:
        one numpy element per coordinate, u drawn as uniform_real(0.0, 1.0)."""
        lower = np.array([lo for lo, _ in box])
        b = Bounds(lower, lower + np.array([width for _, width in box]))
        rng = RngStream(seed)
        out = np.empty(b.dimension)
        for j in range(b.dimension):
            u = 0.0 + (1.0 - 0.0) * rng.random()
            out[j] = b.lower[j] + u * (b.upper[j] - b.lower[j])
        assert random_position(b, RngStream(seed)).tobytes() == out.tobytes()


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(123)
        b = RngStream(123)
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_different_seed_diverges(self):
        a = RngStream(1)
        b = RngStream(2)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]
