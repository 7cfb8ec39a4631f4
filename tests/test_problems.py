"""Objective function values, symmetries, and the problem registry."""
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beehive.core import Bounds, ConfigurationError
from beehive.problems import (
    BENCHMARK_NAMES,
    ENGINEERING_NAMES,
    LJ_PENALTY,
    LJ_R2_FLOOR,
    PROBLEM_NAMES,
    LJConfig,
    LennardJones,
    Problem,
    make_lennard_jones,
    make_problem,
)


def _fn(name, dimension=None, **kw):
    return make_problem(name, dimension=dimension, **kw).evaluate


class TestBenchmarkValues:
    def test_origin_is_zero_for_all(self):
        for name in BENCHMARK_NAMES:
            p = make_problem(name, dimension=4)
            assert abs(p.evaluate(np.zeros(4))) < 1e-12, name
            assert p.known_optimum == 0.0

    def test_sphere(self):
        f = _fn("sphere", 3)
        assert f(np.array([1.0, 2.0, 3.0])) == 14.0
        assert f(np.array([-2.0, 0.0, 0.0])) == 4.0

    def test_rastrigin_integers(self):
        f = _fn("rastrigin", 2)
        # each integer coordinate contributes x^2 exactly
        assert abs(f(np.array([1.0, 1.0])) - 2.0) < 1e-9
        assert abs(f(np.array([2.0, -3.0])) - 13.0) < 1e-9

    def test_griewank(self):
        f = _fn("griewank", 2)
        x = np.array([2.0, 3.0])
        expected = 13.0 / 4000.0 - math.cos(2.0) * math.cos(3.0 / math.sqrt(2.0)) + 1.0
        assert abs(f(x) - expected) < 1e-12

    def test_ackley(self):
        f = _fn("ackley", 2)
        x = np.array([1.0, -1.0])
        expected = (
            -20.0 * math.exp(-0.2 * 1.0)
            - math.exp(math.cos(2.0 * math.pi))
            + 20.0
            + math.e
        )
        assert abs(f(x) - expected) < 1e-12

    def test_schaffer(self):
        f = _fn("schaffer", 2)
        x = np.array([3.0, 4.0])
        s = 25.0
        expected = 0.5 + (math.sin(5.0) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2
        assert abs(f(x) - expected) < 1e-14

    def test_even_symmetry(self):
        rng = np.random.default_rng(5)
        for name in ("sphere", "rastrigin", "ackley", "griewank"):
            p = make_problem(name, dimension=6)
            span = p.bounds.upper - p.bounds.lower
            for _ in range(1000):
                x = p.bounds.lower + rng.random(6) * span
                assert math.isclose(p.evaluate(x), p.evaluate(-x),
                                    rel_tol=1e-12, abs_tol=1e-12), name

    def test_finite_on_box(self):
        rng = np.random.default_rng(17)
        for name in BENCHMARK_NAMES:
            p = make_problem(name, dimension=10)
            span = p.bounds.upper - p.bounds.lower
            for _ in range(200):
                x = p.bounds.lower + rng.random(10) * span
                assert math.isfinite(p.evaluate(x)), name


class TestGasProduction:
    def test_golden_values(self):
        f = _fn("gas_production")
        assert abs(f(np.array([17.5, 600.0])) - 169.84370298892989) < 1e-10
        assert abs(f(np.array([17.5, 300.0])) - 172.44779276666586) < 1e-10

    def test_degenerate_bracket_at_x1_equals_40(self):
        # (40 - x1) = 0 makes the negative-power term vanish rather than blow up
        f = _fn("gas_production")
        assert abs(f(np.array([40.0, 600.0])) - 296.3760012100812) < 1e-10

    def test_finite_on_box(self):
        p = make_problem("gas_production")
        rng = np.random.default_rng(3)
        span = p.bounds.upper - p.bounds.lower
        for _ in range(2000):
            x = p.bounds.lower + rng.random(2) * span
            assert math.isfinite(p.evaluate(x))


class TestAirHeater:
    def test_golden_values(self):
        f = _fn("air_heater")
        assert abs(f(np.array([0.02, 10.0, 3000.0])) - 2.9899578776479245) < 1e-10
        assert abs(f(np.array([0.8, 40.0, 20000.0])) - (-1.4621384884017574)) < 1e-10

    def test_is_a_maximization_problem(self):
        p = make_problem("air_heater")
        assert p.direction == "maximize"
        x = np.array([0.02, 10.0, 3000.0])
        assert p.evaluate_min(x) == -p.evaluate(x)
        assert p.to_user_sense(p.evaluate_min(x)) == p.evaluate(x)


class TestGearTrain:
    def test_exact_fraction_oracle_at_12s(self):
        expected = (Fraction(1000, 6931) - Fraction(12 * 12, 12 * 12)) ** 2
        f = _fn("gear_train")
        got = f(np.array([12.0, 12.0, 12.0, 12.0]))
        assert abs(got - float(expected)) < 1e-15
        assert abs(got - 0.7322578740113634) < 1e-15

    def test_golden_near_optimum(self):
        f = _fn("gear_train")
        assert abs(f(np.array([19.0, 16.0, 43.0, 49.0])) - 2.7008571488860307e-12) < 1e-20

    def test_rounding_invariance(self):
        f = _fn("gear_train")
        assert f(np.array([19.4, 16.2, 42.6, 49.3])) == f(np.array([19.0, 16.0, 43.0, 49.0]))

    def test_numerator_and_denominator_swap_invariance(self):
        f = _fn("gear_train")
        a = f(np.array([19.0, 16.0, 43.0, 49.0]))
        assert f(np.array([16.0, 19.0, 43.0, 49.0])) == a
        assert f(np.array([19.0, 16.0, 49.0, 43.0])) == a

    def test_integrality_mask(self):
        p = make_problem("gear_train")
        assert p.integrality is not None and p.integrality.all()
        assert p.dimension == 4


class TestLennardJones:
    def test_pair_at_unit_distance(self):
        f = _fn("lennard_jones", n_atoms=2)
        x = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        assert abs(f(x) - (-1.0)) < 1e-12

    def test_pair_at_distance_two(self):
        f = _fn("lennard_jones", n_atoms=2)
        x = np.array([0.0, 0.0, 0.0, 2.0, 0.0, 0.0])
        assert f(x) == 1.0 / 4096.0 - 2.0 / 64.0
        assert abs(f(x) - (-0.031005859375)) < 1e-15

    def test_unit_equilateral_triangle(self):
        f = _fn("lennard_jones", n_atoms=3)
        x = np.array([
            0.0, 0.0, 0.0,
            1.0, 0.0, 0.0,
            0.5, math.sqrt(3.0) / 2.0, 0.0,
        ])
        assert abs(f(x) - (-3.0)) < 1e-12

    def test_unit_distance_is_pair_minimum(self):
        f = _fn("lennard_jones", n_atoms=2)
        at = lambda r: f(np.array([0.0, 0.0, 0.0, r, 0.0, 0.0]))
        assert at(1.0) < at(0.9)
        assert at(1.0) < at(1.1)

    def test_coincident_atoms_penalized_not_infinite(self):
        f = _fn("lennard_jones", n_atoms=2)
        v = f(np.zeros(6))
        assert math.isfinite(v) and v >= 1e29

    def test_rigid_motion_invariance(self):
        f = _fn("lennard_jones", n_atoms=4)
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        shift = np.array([0.3, -1.2, 0.7])
        for _ in range(50):
            pts = rng.standard_normal((4, 3)) * 1.5
            moved = pts @ q.T + shift
            a, b = f(pts.ravel()), f(moved.ravel())
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_config_validation_and_box(self):
        with pytest.raises(ConfigurationError):
            LJConfig(1)
        p = make_lennard_jones(LJConfig(8))
        assert p.dimension == 24
        assert np.all(p.bounds.upper == 2.0 * 8 ** (1.0 / 3.0))
        assert LJConfig(3, box_half_width=5.0).half_width == 5.0


def lj_reference(n, x):
    """The atom-by-atom Lennard-Jones loop the batched kernel must match bit for bit."""
    pts = np.asarray(x, dtype=float).reshape(n, 3)
    total = 0.0
    for i in range(n - 1):
        d = pts[i + 1:] - pts[i]
        r2 = np.einsum("ij,ij->i", d, d)
        tiny = r2 < LJ_R2_FLOOR
        r2 = np.where(tiny, 1.0, r2)
        inv6 = 1.0 / (r2 * r2 * r2)
        pair = inv6 * inv6 - 2.0 * inv6
        total += float(np.sum(np.where(tiny, LJ_PENALTY, pair)))
    return total


LJ_ATOMS = (2, 3, 4, 5, 9, 13, 38)


class TestLennardJonesKernelMatchesLoop:
    """`==`, not isclose: seeded Lennard-Jones runs depend on the exact bits."""

    @pytest.mark.parametrize("n", LJ_ATOMS)
    def test_random_points_in_default_box(self, n):
        f = LennardJones(n)
        half = LJConfig(n).half_width
        rng = np.random.default_rng(n)
        for _ in range(300):
            x = rng.uniform(-half, half, 3 * n)
            assert f(x) == lj_reference(n, x)

    @pytest.mark.parametrize("n", LJ_ATOMS)
    def test_coincident_atoms(self, n):
        f = LennardJones(n)
        half = LJConfig(n).half_width
        rng = np.random.default_rng(100 + n)
        for _ in range(100):
            pts = rng.uniform(-half, half, (n, 3))
            a, b = rng.choice(n, 2, replace=False)
            pts[b] = pts[a]
            assert f(pts.ravel()) == lj_reference(n, pts)
            assert f(pts.ravel()) >= LJ_PENALTY
        assert f(np.zeros(3 * n)) == lj_reference(n, np.zeros(3 * n))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(LJ_ATOMS).flatmap(lambda n: st.lists(
        st.floats(-10.0, 10.0), min_size=3 * n, max_size=3 * n)))
    def test_any_coordinates(self, coords):
        x = np.array(coords)
        n = x.size // 3
        assert LennardJones(n)(x) == lj_reference(n, x)

    def test_pickled_callable_gives_the_same_value(self):
        f = LennardJones(13)
        g = pickle.loads(pickle.dumps(f))
        x = np.random.default_rng(5).uniform(-4.0, 4.0, 39)
        assert g == f
        assert g(x) == f(x)


class TestGasCompressor:
    def test_golden_values(self):
        f = _fn("gas_compressor")
        assert abs(f(np.array([55.0, 1.1, 40.0])) - 3201985.011178957) < 1e-6
        assert abs(f(np.array([10.0, 2.0, 10.0])) - 14358467.098447748) < 1e-6

    def test_finite_on_box(self):
        p = make_problem("gas_compressor")
        rng = np.random.default_rng(9)
        span = p.bounds.upper - p.bounds.lower
        for _ in range(2000):
            x = p.bounds.lower + rng.random(3) * span
            assert math.isfinite(p.evaluate(x))


class TestRegistry:
    def test_names(self):
        assert BENCHMARK_NAMES == (
            "sphere", "griewank", "ackley", "rastrigin", "schaffer"
        )
        # stats.json, comparison.* and the engineering-batch digest follow this order
        assert ENGINEERING_NAMES == (
            "gas_production", "air_heater", "gear_train",
            "lennard_jones", "gas_compressor",
        )
        assert len(PROBLEM_NAMES) == 10

    def test_default_dimensions(self):
        assert make_problem("sphere").dimension == 30
        assert make_problem("schaffer").dimension == 2
        assert make_problem("lennard_jones").dimension == 9
        assert make_problem("lennard_jones", dimension=6).dimension == 6

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_problem("rosenbrock")
        with pytest.raises(ConfigurationError):
            make_problem("nope")

    def test_bad_lj_dimension_raises(self):
        with pytest.raises(ConfigurationError):
            make_problem("lennard_jones", dimension=7)

    def test_bad_benchmark_dimension_raises(self):
        with pytest.raises(ConfigurationError):
            make_problem("sphere", 0)

    def test_problems_share_no_bounds_arrays(self):
        for name in PROBLEM_NAMES:
            a, b = make_problem(name).bounds, make_problem(name).bounds
            assert not np.shares_memory(a.lower, b.lower), name
            assert not np.shares_memory(a.upper, b.upper), name

    def test_engineering_problems_have_no_known_optimum(self):
        for name in ENGINEERING_NAMES:
            assert make_problem(name).known_optimum is None, name


class TestProblemValidation:
    @pytest.mark.parametrize("fields,named", [
        (dict(dimension=5), "dimension 5"),
        (dict(integrality=np.ones(2, dtype=bool)), "length 2"),
        (dict(direction="minimise"), "'minimise'"),
    ])
    def test_inconsistent_field_raises_and_names_it(self, fields, named):
        kwargs = dict(name="cube", dimension=3, bounds=Bounds.cube(-1.0, 1.0, 3),
                      evaluate=np.sum)
        with pytest.raises(ConfigurationError, match=named):
            Problem(**{**kwargs, **fields})
