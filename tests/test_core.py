"""Bounds, random positions, and the seeded RNG stream."""
import numpy as np
import pytest

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
        rng = scripted(reals=[0.0, 1.0, 0.5, 0.5])
        assert random_position(b, rng).tolist() == [-3.0, 101.0]
        assert random_position(b, rng).tolist() == [-2.0, 100.5]


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(123)
        b = RngStream(123)
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_different_seed_diverges(self):
        a = RngStream(1)
        b = RngStream(2)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_uniform_real_range(self):
        rng = RngStream(7)
        draws = [rng.uniform_real(-1.0, 1.0) for _ in range(10_000)]
        assert all(-1.0 <= v < 1.0 for v in draws)
        assert min(draws) < -0.9 and max(draws) > 0.9

    def test_uniform_int_range_and_coverage(self):
        rng = RngStream(7)
        draws = [rng.uniform_int(5) for _ in range(10_000)]
        assert set(draws) == {0, 1, 2, 3, 4}

    def test_uniform_int_single_value(self):
        rng = RngStream(0)
        assert all(rng.uniform_int(1) == 0 for _ in range(100))
