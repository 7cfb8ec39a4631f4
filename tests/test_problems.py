"""Objective function values, symmetries, and the problem registry."""
import itertools
import math
import pickle
import re
import struct
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beehive.core import Bounds, ConfigurationError
from beehive.engine import STRATEGIES, TerminationRule, VariantConfig, run
from beehive.problems import (
    BENCHMARK_NAMES,
    ENGINEERING_NAMES,
    LJ_PENALTY,
    LJ_R2_FLOOR,
    PROBLEM_NAMES,
    Ackley,
    Griewank,
    LJConfig,
    LennardJones,
    OnFloats,
    Problem,
    Rastrigin,
    Sphere,
    _gas_production,
    _schaffer,
    make_lennard_jones,
    make_problem,
)


def _fn(name, dimension=None, **kw):
    return make_problem(name, dimension=dimension, **kw).evaluate


def _bits(f):
    return struct.pack("<d", f)


def _memo_bits(memo):
    """`memo`, a float, a float array, or a list or tuple of memos (a list of
    floats, of point tuples), with every float as its bytes, so that `==`
    compares bits; a fresh object, so it also serves as a snapshot."""
    if isinstance(memo, tuple):
        return tuple(_memo_bits(m) for m in memo)
    if isinstance(memo, list):
        return [_memo_bits(m) for m in memo]
    if isinstance(memo, np.ndarray):
        return [memo.dtype.str, memo.shape, memo.tobytes()]
    return _bits(memo)


def check_hooks(f, x, moves):
    """Check the contract of `engine._hooks` on the objective f, from the
    point x through each move (j, v) in turn, by the bits of every value and
    memo, in the form f has: bounded (`start`/`move`/`settle`) or exact
    (`start`/`move`). `start`'s value is `f(x)`'s. An exact `move` gives f's
    value at the moved point and the memo `start` gives there. A bounded
    move's `low` is nan or no greater than f at the moved point, and finite
    only where that value is, and `settle` gives that value and `start`'s
    memo. No step changes the memo it is given. An `OnFloats` memo is also
    `(c, value)`, c the point as a list, and its `move` gives back the very
    memo it is given exactly on a null move, `c[j] == v` with `v != 0.0`."""
    on_floats = isinstance(f, OnFloats)
    bounded = hasattr(f, "settle")
    value, memo = f.start(x)
    assert _bits(value) == _bits(f(x)), "start's value is not f's"
    if on_floats:
        assert _memo_bits(memo) == _memo_bits((x.tolist(), value)), "the memo is not (c, value)"
    for j, v in moves:
        x = x.copy()
        x[j] = v
        v = x.item(j)
        null = on_floats and memo[0][j] == v and v != 0.0
        kept = _memo_bits(memo)
        low, step = f.move(memo, j, v)
        # a losing step keeps the old memo
        assert _memo_bits(memo) == kept, "move changed the memo it was given"
        if bounded:
            value, new_memo = f.settle(memo, step)
            assert _memo_bits(memo) == kept, "settle changed the memo it was given"
            assert _bits(value) == _bits(f(x)), "settle's value is not f's"
            assert type(low) is float, "move's low is not a float"
            assert math.isnan(low) or low <= value, "move's low is above the value"
            assert math.isfinite(value) or not math.isfinite(low), \
                "a finite low for a value that is not finite"
            assert _memo_bits(new_memo) == _memo_bits(f.start(x)[1]), \
                "settle's memo is not start's"
        else:  # exact: move gave the value and the new memo
            value, new_memo = low, step
            assert type(value) is float, "move's value is not a float"
            assert _bits(value) == _bits(f(x)), "move's value is not f's"
            assert _memo_bits(new_memo) == _memo_bits(f.start(x)[1]), \
                "move's memo is not start's"
        if on_floats:
            assert (new_memo is memo) == null, "only a null move gives back its memo"
            assert _memo_bits(new_memo) == _memo_bits((x.tolist(), value)), \
                "the memo is not (c, value)"
        memo = new_memo


class TestBenchmarkValues:
    def test_origin_is_zero_for_all(self):
        """Exactly 0.0, so a run can stop on target at any accuracy above 0."""
        for name in BENCHMARK_NAMES:
            for dimension in (1, 2, 3, 4, 30, 60):
                p = make_problem(name, dimension=dimension)
                for zero in (0.0, -0.0):
                    assert p.evaluate(np.full(dimension, zero)) == 0.0, (name, dimension, zero)
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

    @staticmethod
    def float64_value(x):
        """The objective in numpy float64 arithmetic, IEEE values (nan, inf)
        where Python floats would raise."""
        with np.errstate(all="ignore"):
            t = np.floor(x + 0.5)
            return float((1.0 / 6.931 - (t[0] * t[1]) / (t[2] * t[3])) ** 2)

    def test_float64_values_in_the_box(self):
        p = make_problem("gear_train")
        rng = np.random.default_rng(6)
        for x in p.bounds.lower + rng.random((20_000, 4)) * (p.bounds.upper - p.bounds.lower):
            assert p.evaluate(x) == self.float64_value(x)

    def test_float64_values_off_the_box(self):
        # non-finite coordinates, zero teeth counts (a zero denominator) and
        # products or squares past the float range: nan where Python floats
        # raise, as the other designs give it, and numpy's value elsewhere
        f = _fn("gear_train")
        special = (math.nan, math.inf, -math.inf, 0.0, -0.4, 12.0, -3.0, 1e160, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for combo in itertools.product(special, repeat=4):
                x = np.array(combo)
                try:
                    _unguarded_gear_train(x)
                except (ArithmeticError, ValueError):
                    expected = math.nan
                else:
                    expected = self.float64_value(x)
                assert repr(f(x)) == repr(expected), combo


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

    @pytest.mark.parametrize("size", (8, 10, 3))
    def test_refuses_a_wrong_coordinate_count(self, size):
        # a flat list sliced by axis would drop a coordinate or pair atoms wrongly
        with pytest.raises(ValueError, match=f"3 atoms take 9 coordinates, got {size}$"):
            LennardJones(3)(np.zeros(size))

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
        with pytest.raises(ConfigurationError, match="at least 2 atoms, got 1$"):
            LJConfig(1)
        p = make_lennard_jones(LJConfig(8))
        assert p.dimension == 24
        assert np.all(p.bounds.upper == 2.0 * 8 ** (1.0 / 3.0))
        assert LJConfig(3, box_half_width=5.0).half_width == 5.0


    @pytest.mark.parametrize("fields,named", [
        (dict(n_atoms=2.5), "n_atoms must be an integer, got 2.5"),
        (dict(n_atoms=3.0), "n_atoms must be an integer, got 3.0"),
        (dict(n_atoms=True), "n_atoms must be an integer, got True"),
        (dict(box_half_width=True), "box_half_width must be a real number, got True"),
        (dict(box_half_width=math.inf), "box_half_width must be finite and > 0, got inf"),
        (dict(box_half_width=math.nan), "box_half_width must be finite and > 0, got nan"),
        (dict(box_half_width=0.0), "box_half_width must be finite and > 0, got 0.0"),
        (dict(box_half_width="2"), "box_half_width must be a real number, got '2'"),
    ])
    def test_config_refuses_a_bad_count_or_box_and_names_it(self, fields, named):
        # LJConfig(2.5) was accepted, and box_half_width=inf built an infinite box
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            LJConfig(**{"n_atoms": 3, **fields})

    @pytest.mark.parametrize("n_atoms,named", [
        (1, "Lennard-Jones cluster needs at least 2 atoms, got 1"),
        (0, "Lennard-Jones cluster needs at least 2 atoms, got 0"),
        (True, "n_atoms must be an integer, got True"),
        (2.0, "n_atoms must be an integer, got 2.0"),
    ])
    def test_objective_refuses_what_the_config_refuses(self, n_atoms, named):
        # LennardJones(1), (0) and (True) gave 0.0 at every point, and (2.0)
        # raised range's TypeError
        for make in (LennardJones, LJConfig):
            with pytest.raises(ConfigurationError, match=f"^{re.escape(named)}$"):
                make(n_atoms)

    def test_config_stores_int_atoms_and_float_box(self):
        config = LJConfig(np.int64(4), box_half_width=2)
        assert (type(config.n_atoms), type(config.half_width)) == (int, float)


def lj_reference(n, x):
    """The atom-by-atom Lennard-Jones loop with `np.einsum` distances, its pair
    energies summed exactly rounded; `LennardJones` must match it bit for bit."""
    pts = np.asarray(x, dtype=float).reshape(n, 3)
    energies = []
    for i in range(n - 1):
        d = pts[i + 1:] - pts[i]
        r2 = np.einsum("ij,ij->i", d, d)
        tiny = r2 < LJ_R2_FLOOR
        r2 = np.where(tiny, 1.0, r2)
        inv6 = 1.0 / (r2 * r2 * r2)
        pair = inv6 * inv6 - 2.0 * inv6
        energies += np.where(tiny, LJ_PENALTY, pair).tolist()
    return math.fsum(energies)


# 130 atoms: 8,385 pairs, atom 0 in 129 of them
LJ_ATOMS = (2, 3, 4, 5, 9, 13, 38, 130)


def _atoms_at_squared_distance(n, r2):
    """Coordinates of n atoms, far apart except atoms 0 and 1, whose squared
    distance as `np.einsum` computes it is exactly `r2`."""
    pts = np.array([[4.0 * i, 0.0, 0.0] for i in range(n)])
    a = b = math.sqrt(r2 / 2.0)
    for _ in range(100):
        d = np.array([[a, b, 0.0]])
        got = np.einsum("ij,ij->i", d, d)[0]
        if got == r2:
            pts[1] = pts[0] + d[0]
            return pts.ravel()
        b = np.nextafter(b, math.inf if got < r2 else 0.0)
    raise AssertionError(f"no pair found at squared distance {r2!r}")


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
        with warnings.catch_warnings():
            # no division by zero, nor any other floating-point warning
            warnings.simplefilter("error")
            for _ in range(100):
                pts = rng.uniform(-half, half, (n, 3))
                a, b = rng.choice(n, 2, replace=False)
                pts[b] = pts[a]
                assert f(pts.ravel()) == lj_reference(n, pts)
                assert f(pts.ravel()) >= LJ_PENALTY
            assert f(np.zeros(3 * n)) == lj_reference(n, np.zeros(3 * n))

    @pytest.mark.parametrize("n", (2, 13))
    def test_pair_at_the_squared_distance_floor(self, n):
        f = LennardJones(n)
        below = np.nextafter(LJ_R2_FLOOR, 0.0)
        above = np.nextafter(LJ_R2_FLOOR, 1.0)
        for r2 in (below, LJ_R2_FLOOR, above):
            x = _atoms_at_squared_distance(n, r2)
            assert f(x) == lj_reference(n, x)
        if n == 2:
            assert f(_atoms_at_squared_distance(n, below)) == LJ_PENALTY
            inv6 = 1.0 / (LJ_R2_FLOOR * LJ_R2_FLOOR * LJ_R2_FLOOR)
            at_floor = f(_atoms_at_squared_distance(n, LJ_R2_FLOOR))
            assert at_floor == inv6 * inv6 - 2.0 * inv6

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(LJ_ATOMS).flatmap(lambda n: st.lists(
        st.floats(-10.0, 10.0), min_size=3 * n, max_size=3 * n)))
    def test_any_coordinates(self, coords):
        x = np.array(coords)
        n = x.size // 3
        assert LennardJones(n)(x) == lj_reference(n, x)


class TestLennardJonesPastTheFloatRange:
    """Coordinates whose squared distances overflow, or are not finite: the
    value is the reference's, and no floating-point warning escapes. The
    reference is numpy arithmetic, so its own warnings are silenced."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_seeded_run_in_a_huge_box_is_silent(self, strategy):
        # a valid box, in which the cube r2 * r2 * r2 of a squared distance
        # passes the float range
        p = make_lennard_jones(LJConfig(3, box_half_width=1e60))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(p, VariantConfig(strategy), TerminationRule(max_nfe=500), 1)
        assert result.nfe >= 500

    @staticmethod
    def check_huge_and_non_finite_coordinates(n):
        """The value equals the reference's bit for bit, -0.0 included, or
        both are NaN: the sign of a NaN that CPython computes depends on
        whether its bytecode is specialized yet, so it is not compared."""
        f = LennardJones(n)
        values = (1e200, -1e200, math.inf, -math.inf, math.nan)
        rng = np.random.default_rng(n)
        points = [rng.choice(values, 3 * n) for _ in range(300)]
        # half the coordinates in a unit box, so that some pairs stay finite
        points += [np.where(rng.random(3 * n) < 0.5, rng.random(3 * n), x) for x in points]
        if n == 2:
            points += [np.array(c) for c in itertools.product(values, repeat=6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in points:
                with np.errstate(all="ignore"):
                    expected = lj_reference(n, x)
                for got in (f(x), f.start(x)[0]):
                    if math.isnan(expected):
                        assert math.isnan(got), x
                    else:
                        assert _bits(got) == _bits(expected), x

    @pytest.mark.parametrize("n", (2, 3, 5, 13))
    def test_huge_and_non_finite_coordinates(self, n):
        self.check_huge_and_non_finite_coordinates(n)

    def test_huge_and_non_finite_coordinates_under_a_trace_function(self):
        """As above with a no-op trace function set, which keeps CPython from
        specializing the bytecode, and so gives a NaN the other sign."""
        before = sys.gettrace()
        sys.settrace(lambda *args: None)
        try:
            self.check_huge_and_non_finite_coordinates(2)
        finally:
            sys.settrace(before)


def _coordinate_lists(n, lo, hi, *value_sets):
    """Lists of n coordinates, each, with equal odds, a float from lo up to
    hi or one of the values of a set in `value_sets`: the value classes of a
    `st.one_of` of `st.floats(lo, hi)` and `st.sampled_from`s. A list is
    decoded from one byte string, 8 bytes a coordinate, which Hypothesis
    draws and shrinks as one choice: drawn element by element, a one_of list
    of 1 to 200 coordinates took about 23 ms an example, the byte string
    under 2 ms."""
    classes = 1 + len(value_sets)

    def decode(data):
        coords = []
        for (r,) in struct.iter_unpack("<Q", data):
            kind, r = r % classes, r // classes
            if kind:
                values = value_sets[kind - 1]
                coords.append(values[r % len(values)])
            else:
                coords.append(lo + (hi - lo) * ((r % 2**53) * 2.0**-53))
        return coords

    return st.binary(min_size=8 * n, max_size=8 * n).map(decode)


def _lists_of(coordinate):
    """Lists of n coordinates, for `_case`, each drawn by `coordinate`."""
    return lambda n: st.lists(coordinate, min_size=n, max_size=n)


def _case(sizes, coords, move_to):
    """A size n from `sizes`, a start point of n coordinates drawn by
    `coords(n)` and one to five moves (j, v), each value drawn by `move_to`."""
    return sizes.flatmap(lambda n: st.tuples(
        coords(n),
        st.lists(st.tuples(st.integers(0, n - 1), move_to), min_size=1, max_size=5)))


# Lennard-Jones coordinates: anywhere in a box wide enough for 130 atoms,
# plus a few values that often put two atoms on top of each other.
_LJ_SPECIAL = (-1.0, -0.0, 0.0, 1.0)
_LJ_COORDS = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(_LJ_SPECIAL))


class TestLennardJonesMoves:
    """`LennardJones.start`/`move` must give `__call__`'s bits: seeded
    Lennard-Jones runs evaluate every candidate through `move`."""

    @settings(max_examples=300, deadline=None)
    @given(_case(st.sampled_from(LJ_ATOMS + (13,) * 4).map(lambda n: 3 * n),
                 lambda n: _coordinate_lists(n, -10.0, 10.0, _LJ_SPECIAL), _LJ_COORDS))
    def test_moves_match_the_full_evaluation(self, case):
        coords, moves = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_hooks(LennardJones(len(coords) // 3), np.array(coords), moves)

    @pytest.mark.parametrize("n", LJ_ATOMS)
    def test_every_coordinate_of_every_atom(self, n):
        rng = np.random.default_rng(n)
        half = LJConfig(n).half_width
        x = rng.uniform(-half, half, 3 * n)
        check_hooks(LennardJones(n), x, [(j, rng.uniform(-half, half)) for j in range(3 * n)])

    @pytest.mark.parametrize("n", (2, 3, 13))
    def test_moves_onto_and_off_a_coincident_atom(self, n):
        rng = np.random.default_rng(200 + n)
        half = LJConfig(n).half_width
        pts = rng.uniform(-half, half, (n, 3))
        pts[n - 1, :2] = pts[0, :2]  # the last atom differs from atom 0 in z only
        x = pts.ravel()
        z0, last = x[2], 3 * n - 1
        # the last atom onto atom 0 and off, then atom 0 onto it and off
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_hooks(LennardJones(n), x,
                        [(last, z0), (last, z0 + 1.0), (2, z0 + 1.0), (2, z0)])
        f = LennardJones(n)
        onto = x.copy()
        onto[last] = z0
        memo = f.start(x)[1]
        assert f.settle(memo, f.move(memo, last, onto.item(last))[1])[0] >= LJ_PENALTY

    @pytest.mark.parametrize("n", (2, 13))
    def test_move_to_the_squared_distance_floor(self, n):
        below = np.nextafter(LJ_R2_FLOOR, 0.0)
        above = np.nextafter(LJ_R2_FLOOR, 1.0)
        for r2 in (below, LJ_R2_FLOOR, above):
            x = _atoms_at_squared_distance(n, r2)
            for j in (0, 1, 3, 4):  # move either atom of the pair into place
                start = x.copy()
                start[j] += 1.0
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    check_hooks(LennardJones(n), start, [(j, x[j])])

    def test_a_nan_coordinate_stays_nan(self):
        f = LennardJones(3)
        x = np.arange(9.0)
        memo = f.start(x)[1]
        x[4] = math.nan
        assert math.isnan(f(x))
        low, step = f.move(memo, 4, math.nan)
        assert math.isnan(low)
        assert math.isnan(f.settle(memo, step)[0])

    @pytest.mark.parametrize("n", LJ_ATOMS)
    def test_stated_r2_grouping_equals_einsum(self, n):
        # the kernel's `(dx*dx + dz*dz) + dy*dy` is elementwise, so exactly
        # rounded in every numpy build; `lj_reference` and
        # `_atoms_at_squared_distance` take it with np.einsum, whose grouping
        # this checks on this numpy, so the reference stays the kernel's twin
        first, second = np.triu_indices(n, 1)
        rng = np.random.default_rng(300 + n)
        for scale in (1e-3, 1.0, 2.0 * n ** (1.0 / 3.0)):
            for _ in range(50):
                pts = rng.uniform(-scale, scale, (n, 3))
                d = pts.take(second, axis=0) - pts.take(first, axis=0)
                sq = d * d
                stated = (sq[:, 0] + sq[:, 2]) + sq[:, 1]
                assert stated.tobytes() == np.einsum("ij,ij->i", d, d).tobytes()


# Rastrigin coordinates: anywhere in the box, plus the bounds, integers,
# half-integers and both zeros, where the cosine term is exact or extreme.
_BOX_SPECIAL = (-5.12, 5.12, -0.0, 0.0)
_INTEGERS = tuple(float(k) for k in range(-5, 6))
_HALVES = tuple(k / 2.0 for k in range(-10, 11))
_RASTRIGIN_COORDS = st.one_of(
    st.floats(-5.12, 5.12),
    st.sampled_from(_BOX_SPECIAL),
    st.sampled_from(_INTEGERS),
    st.sampled_from(_HALVES),
)


def _box_lists(n):
    """Lists of n coordinates from the value classes of `_RASTRIGIN_COORDS`."""
    return _coordinate_lists(n, -5.12, 5.12, _BOX_SPECIAL, _INTEGERS, _HALVES)


class TestRastriginMoves:
    """`Rastrigin.start`/`move` must give `__call__`'s bits: seeded Rastrigin
    runs evaluate every candidate through `move`."""

    # D from 1 to 200; up to five moves in a row from one start
    @settings(max_examples=300, deadline=None)
    @given(_case(st.integers(1, 200), _box_lists, _RASTRIGIN_COORDS))
    def test_moves_match_the_full_evaluation(self, case):
        coords, moves = case
        check_hooks(Rastrigin(), np.array(coords), moves)

    @pytest.mark.parametrize("n", (1, 7, 8, 9, 16, 17, 128, 129, 136, 200))
    def test_every_coordinate_at_every_branch(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-5.12, 5.12, n)
        check_hooks(Rastrigin(), x, [(j, rng.uniform(-5.12, 5.12)) for j in range(n)])

    @pytest.mark.parametrize("n", (1, 2, 10, 30, 60, 200))
    def test_value_is_the_exactly_rounded_sum(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(50):
            x = rng.uniform(-5.12, 5.12, n)
            expected = 10.0 * n + math.fsum(
                v * v - 10.0 * math.cos(2.0 * math.pi * v) for v in x.tolist())
            assert Rastrigin()(x) == expected

    def test_an_overflowing_sum_is_infinite(self):
        # each term is finite, but their sum is not: math.fsum raises there
        assert Rastrigin()(np.array([1e154, 1e154])) == math.inf
        f = Rastrigin()
        memo = f.start(np.array([1e154, 0.0]))[1]
        low, step = f.move(memo, 1, 1e154)
        assert math.isnan(low)
        assert f.settle(memo, step)[0] == math.inf


# Lennard-Jones atoms on a unit lattice: pairs that coincide (the penalty,
# 1e30) next to pairs at unit distance (-1) and at sqrt(2), sqrt(3), ...;
# the moves also bring an atom to within 1e-7 of a lattice point, below the
# squared-distance floor.
_LATTICE = st.sampled_from([-1.0, 0.0, 1.0])
_NEAR_LATTICE = st.one_of(_LATTICE, st.sampled_from([1e-7, -1e-7, 1.0 + 1e-7, 0.5, 2.0]))
# Rastrigin coordinates whose terms nearly cancel the 10*D: within 1e-3 of
# zero, where each term is -10 plus about 200 c^2, and the integers, where
# it is c^2 - 10.
_NEAR_ZERO = st.one_of(st.floats(-1e-3, 1e-3),
                       st.sampled_from([0.0, -0.0, 5e-324, 1e-9, -1e-9]),
                       st.integers(-5, 5).map(float))
# Rastrigin coordinates whose squares reach the float range: the sum of two
# or three such terms may round past it, or a term may itself be infinite.
_HUGE = st.one_of(st.floats(1e145, 1.35e154), st.floats(1e154, 1e155),
                  st.sampled_from([0.0, math.sqrt(sys.float_info.max)]))
# any coordinate, nan often
_MAYBE_NAN = st.one_of(st.floats(-10.0, 10.0), st.just(math.nan))
# Sphere coordinates whose squares underflow: near 1e-160 a square is
# subnormal, and 5e-324 squares to zero.
_TINY_SPECIAL = (1e-160, -1e-160, 1.5e-154, 5e-324, 0.0, -0.0)
_TINY = st.one_of(st.floats(-2e-160, 2e-160), st.sampled_from(_TINY_SPECIAL))
# Sphere coordinates whose squares reach the float range: a sum of two may
# round past it, and the square of one above sqrt(MAX) is itself infinite.
_SQRT_MAX = math.sqrt(sys.float_info.max)
_HUGE_SPECIAL = (1e154, -1e154, _SQRT_MAX, -_SQRT_MAX, 1.35e154, 0.0)
_NEAR_OVERFLOW = st.one_of(st.floats(-1.35e154, 1.35e154), st.sampled_from(_HUGE_SPECIAL))
# Sphere coordinates that are nan or an infinity, or ordinary
_NON_FINITE = (math.nan, math.inf, -math.inf)
_ANY_SPHERE = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(_NON_FINITE))
# Sphere coordinates where a float sum loses most: 1e-8 squares to just
# under half an ulp of 1, so a sum in some order would drop each square of
# 1e-8 added after a 1, where fsum keeps them.
_LOST = (1.0, -1.0, 1e-8, -1e-8, 0.0)
_LOSSY = st.sampled_from(_LOST)


class TestSphereMoves:
    """`Sphere.start`/`settle` must give `__call__`'s bits, the exactly
    rounded sum of the squares, and `move`'s low must bound it: seeded
    sphere runs evaluate every candidate through the hooks."""

    # D from 1 to 200
    @settings(max_examples=300, deadline=None)
    @given(_case(st.integers(1, 200), _box_lists, _RASTRIGIN_COORDS))
    def test_moves_match_the_full_evaluation(self, case):
        coords, moves = case
        check_hooks(Sphere(), np.array(coords), moves)

    @pytest.mark.parametrize("n", (1, 2, 15, 16, 17, 30, 31, 32, 33, 60, 130, 200))
    def test_every_coordinate(self, n):
        rng = np.random.default_rng(500 + n)
        x = rng.uniform(-5.12, 5.12, n)
        check_hooks(Sphere(), x, [(j, rng.uniform(-5.12, 5.12)) for j in range(n)])

    def test_the_memo_holds_the_squares_and_their_sum(self):
        f = Sphere()
        x = np.array([1.0, -2.0, 0.5])
        value, memo = f.start(x)
        assert memo == ([1.0, 4.0, 0.25], 5.25) and _bits(memo[1]) == _bits(value)
        low, step = f.move(memo, 1, 3.0)
        assert step == (1, 9.0) and low <= 10.25
        value, new_memo = f.settle(memo, step)
        assert value == 10.25 and new_memo == ([1.0, 9.0, 0.25], 10.25)
        assert memo == ([1.0, 4.0, 0.25], 5.25) and x.tolist() == [1.0, -2.0, 0.5]

    # coordinates in the box, a few far outside it, and those whose squares
    # a float sum loses or that underflow; moves to any float up to 1e150 in
    # magnitude, so that the sum of at most 60 squares stays finite
    @settings(max_examples=300, deadline=None)
    @given(_case(st.integers(1, 60), lambda n: _coordinate_lists(
                     n, -5.12, 5.12, _LOST, _TINY_SPECIAL, (1e150, -3e100, 1e50, -1e-100)),
                 st.one_of(st.floats(-1e150, 1e150), st.sampled_from(_LOST + _TINY_SPECIAL))),
           st.randoms(use_true_random=False))
    def test_every_value_is_the_fsum_of_the_squares_in_any_order(self, case, random):
        """`__call__`, `start` and every settled move give
        `math.fsum(c * c for c in x.tolist())` bit for bit, and so the same
        bits under any permutation of x, which a BLAS dot product, summing
        in its own order, does not."""
        def fsum_of_squares(x):
            return math.fsum(c * c for c in x.tolist())

        coords, moves = case
        f = Sphere()
        x = np.array(coords)
        expected = fsum_of_squares(x)
        value, memo = f.start(x)
        assert _bits(f(x)) == _bits(value) == _bits(expected)
        for j, v in moves:
            x = x.copy()
            x[j] = v
            value, memo = f.settle(memo, f.move(memo, j, v)[1])
            assert _bits(value) == _bits(fsum_of_squares(x))
        for _ in range(3):
            order = list(range(len(x)))
            random.shuffle(order)
            shuffled = x[order]
            assert _bits(f(shuffled)) == _bits(f.start(shuffled)[0]) == _bits(value)


def _fsum_of_squares(c):
    """`math.fsum` of the squares `v * v` of the list c, or inf where that
    sum passes the float range (fsum raises there)."""
    try:
        return math.fsum([v * v for v in c])
    except OverflowError:
        return math.inf


def griewank_reference(c):
    """Griewank's function at the list c, coordinate by coordinate: nan
    where the sum of squares is not finite, else s/4000 - p + 1, with the
    product p of cos(c_i / sqrt(i)) taken left to right from 1.0."""
    s = _fsum_of_squares(c)
    if not math.isfinite(s):
        return math.nan
    p = 1.0
    for i, v in enumerate(c, 1):
        p *= math.cos(v / math.sqrt(i))
    return s / 4000.0 - p + 1.0


def ackley_reference(c):
    """Ackley's function at the list c, in the grouping that is exactly 0.0
    at the origin: nan where the sum of squares is not finite."""
    s = _fsum_of_squares(c)
    if not math.isfinite(s):
        return math.nan
    n = len(c)
    cosines = math.fsum([math.cos(2.0 * math.pi * v) for v in c])
    return (20.0 - 20.0 * math.exp(-0.2 * math.sqrt(s / n))) + (math.e - math.exp(cosines / n))


def schaffer_reference(c):
    """Schaffer's function at the list c, every square a product: nan where
    the sum of squares is not finite."""
    s = _fsum_of_squares(c)
    if not math.isfinite(s):
        return math.nan
    sine = math.sin(math.sqrt(s))
    denominator = (1.0 + 0.001 * s) * (1.0 + 0.001 * s)
    return 0.5 + (sine * sine - 0.5) / denominator


# Each: (its pure-Python reference, the half-width of its box)
REFERENCES = {
    "griewank": (griewank_reference, 600.0),
    "ackley": (ackley_reference, 32.0),
    "schaffer": (schaffer_reference, 100.0),
}
# the zeros, integers and a subnormal, where a cosine or a square is exact or
# extreme, and the values that make a sum of squares pass the float range or
# are not finite
_EXACT_SPECIAL = (0.0, -0.0, 1.0, -2.0, 5e-324)
_OUT_OF_RANGE = (1e154, 1.35e154, -1e300, math.inf, -math.inf, math.nan)


def _reference_case(classes):
    """A benchmark's name, a start point of 1 to 60 coordinates and one to
    five moves: each coordinate anywhere in the box or, with equal odds,
    from one of `classes`."""
    def case(name):
        half = REFERENCES[name][1]
        coordinate = st.one_of(st.floats(-half, half),
                               *(st.sampled_from(values) for values in classes))
        return st.tuples(st.just(name), _case(
            st.integers(1, 60), lambda n: _coordinate_lists(n, -half, half, *classes),
            coordinate))
    return st.sampled_from(sorted(REFERENCES)).flatmap(case)


class TestGriewankAckleySchaffer:
    """Griewank and Ackley keep the squares and the cosines in their memo,
    with exact hooks; Schaffer is an `OnFloats` function. Each value, from
    `__call__`, `start` or a `move`, is its pure-Python reference's, bit for
    bit: seeded runs evaluate every candidate through `move`."""

    @settings(max_examples=300, deadline=None)
    @given(_reference_case((_EXACT_SPECIAL,)))
    def test_value_and_every_move_match_the_reference(self, case):
        self.check_against_the_reference(case)

    @settings(max_examples=200, deadline=None)
    @given(_reference_case((_EXACT_SPECIAL, _OUT_OF_RANGE)))
    def test_out_of_range_coordinates_match_the_reference(self, case):
        self.check_against_the_reference(case)

    @staticmethod
    def check_against_the_reference(case):
        name, (coords, moves) = case
        reference = REFERENCES[name][0]
        f = make_problem(name, len(coords)).evaluate
        x = np.array(coords)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, memo = f.start(x)
            assert _bits(f(x)) == _bits(value) == _bits(reference(coords))
            for j, v in moves:
                coords = coords.copy()
                coords[j] = v
                value, memo = f.move(memo, j, v)
                assert _bits(value) == _bits(reference(coords))
            check_hooks(f, x, moves)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(REFERENCES))
    @pytest.mark.parametrize("point", [
        [math.nan, 0.5], [0.5, math.inf], [-math.inf, 0.5],
        [1.35e154, 0.0],  # a square past the float range
        [1e154, 1e154],  # finite squares whose sum passes it
        [-1e308, 2.0],
    ])
    def test_a_non_finite_coordinate_or_sum_of_squares_gives_nan(self, name, point):
        """Where numpy let out a RuntimeWarning, and `math.cos` or `math.sin`
        of an infinity would raise, the value is nan, also after a move;
        a move back into the box gives the box value again."""
        f = make_problem(name, 2).evaluate
        assert math.isnan(f(np.array(point)))
        start = np.array([0.5, -1.5])
        value, memo = f.start(start)
        for j in (0, 1):
            value, memo = f.move(memo, j, point[j])
        assert math.isnan(value)
        back = f.move(f.move(memo, 0, 0.5)[1], 1, -1.5)[0]
        assert _bits(back) == _bits(f(start))

    @pytest.mark.parametrize("cls", (Griewank, Ackley))
    def test_the_memo_holds_the_squares_the_cosines_and_the_value(self, cls):
        f = cls()
        x = np.array([1.0, -2.0, 0.5])
        value, memo = f.start(x)
        squares, cosines, kept = memo
        assert squares == [1.0, 4.0, 0.25] and len(cosines) == 3
        assert _bits(kept) == _bits(value)
        moved, new_memo = f.move(memo, 1, 3.0)
        assert new_memo[0] == [1.0, 9.0, 0.25] and new_memo[1][::2] == cosines[::2]
        assert _bits(new_memo[2]) == _bits(moved) == _bits(f(np.array([1.0, 3.0, 0.5])))
        assert squares == [1.0, 4.0, 0.25]  # the given memo is left as it was

    def test_schaffer_is_a_function_of_a_list(self):
        assert make_problem("schaffer").evaluate == OnFloats(_schaffer)

    # points where this C library's pow(t, 2) is not t * t, for Schaffer's
    # sine or its denominator: a Schaffer that squares with `**` gives other
    # bits there (elsewhere, and with a correctly rounded pow, the same); and
    # a finite sum of squares whose float `(1 + 0.001 s) ** 2` would raise
    # OverflowError, where `d * d` is inf and the value about 0.5
    @pytest.mark.parametrize("point", [[-47.0, 67.12], [53.0, 58.4], [12.0, -13.44],
                                       [1e79, 1e79]])
    def test_schaffer_squares_by_multiplying(self, point):
        assert _bits(_schaffer(point)) == _bits(schaffer_reference(point))


class TestMoveBounds:
    """`move`'s low stays at or below the settled value, and is finite only
    where the value is, on the inputs most likely to break the rounding
    bound of `problems._TWO_U`."""

    @settings(max_examples=200, deadline=None)
    @given(_case(st.sampled_from((2, 3, 4, 5, 13)).map(lambda n: 3 * n), _lists_of(_LATTICE),
                 _NEAR_LATTICE))
    def test_coincident_atoms_next_to_unit_pairs(self, case):
        coords, moves = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_hooks(LennardJones(len(coords) // 3), np.array(coords), moves)

    @settings(max_examples=200, deadline=None)
    @given(_case(st.integers(1, 60), _lists_of(_NEAR_ZERO), _NEAR_ZERO))
    def test_rastrigin_terms_that_nearly_cancel(self, case):
        coords, moves = case
        check_hooks(Rastrigin(), np.array(coords), moves)

    @settings(max_examples=200, deadline=None)
    @given(_case(st.integers(1, 3), _lists_of(_HUGE), _HUGE))
    def test_rastrigin_sums_near_the_float_range(self, case):
        coords, moves = case
        check_hooks(Rastrigin(), np.array(coords), moves)

    def test_a_sum_that_rounds_past_the_float_range_is_not_bounded(self):
        x, (j, v) = rastrigin_overflow_window()
        f = Rastrigin()
        value, memo = f.start(x)
        assert math.isfinite(value)
        low, step = f.move(memo, j, v)
        assert math.isnan(low)
        assert f.settle(memo, step)[0] == math.inf
        moved = x.copy()
        moved[j] = v
        assert f(moved) == math.inf
        check_hooks(f, x, [(j, v)])

    @settings(max_examples=100, deadline=None)
    @given(_case(st.integers(1, 30), _lists_of(_MAYBE_NAN), _MAYBE_NAN))
    def test_rastrigin_nan_coordinates(self, case):
        coords, moves = case
        check_hooks(Rastrigin(), np.array(coords), moves)

    @settings(max_examples=100, deadline=None)
    @given(_case(st.sampled_from((2, 3, 4, 13)).map(lambda n: 3 * n), _lists_of(_MAYBE_NAN),
                 _MAYBE_NAN))
    def test_lennard_jones_nan_coordinates(self, case):
        coords, moves = case
        check_hooks(LennardJones(len(coords) // 3), np.array(coords), moves)

    @settings(max_examples=200, deadline=None)
    @given(_case(st.integers(1, 40),
                 lambda n: _coordinate_lists(n, -2e-160, 2e-160, _TINY_SPECIAL), _TINY))
    def test_sphere_products_that_underflow(self, case):
        coords, moves = case
        check_hooks(Sphere(), np.array(coords), moves)

    @settings(max_examples=200, deadline=None)
    @given(_case(st.integers(1, 4),
                 lambda n: _coordinate_lists(n, -1.35e154, 1.35e154, _HUGE_SPECIAL),
                 _NEAR_OVERFLOW))
    def test_sphere_squares_near_the_float_range(self, case):
        coords, moves = case
        check_hooks(Sphere(), np.array(coords), moves)

    def test_a_sphere_low_near_the_float_range_is_withheld(self):
        # the moved value, 1.0004e308, is finite, but a low of 1e300 or more is nan
        x = np.array([1e154, 1e152])
        f = Sphere()
        value, memo = f.start(x)
        low, step = f.move(memo, 1, 2e152)
        assert math.isnan(low)
        assert f.settle(memo, step)[0] == 1.0004e308
        check_hooks(f, x, [(1, 2e152), (0, 0.0), (1, 0.0)])
        assert f.move(f.start(np.array([1e149, 0.0]))[1], 1, 3e149)[0] < 1e300

    @settings(max_examples=100, deadline=None)
    @given(_case(st.sampled_from((1, 2, 5, 30)),
                 lambda n: _coordinate_lists(n, 0.0, 0.0, (0.0, -0.0)),
                 st.sampled_from((0.0, -0.0, 5e-324, 1.0))))
    def test_sphere_at_the_zero_point(self, case):
        coords, moves = case
        check_hooks(Sphere(), np.array(coords), moves)

    @settings(max_examples=100, deadline=None)
    @given(_case(st.integers(1, 30), lambda n: _coordinate_lists(n, -10.0, 10.0, _NON_FINITE),
                 _ANY_SPHERE))
    def test_sphere_nan_and_inf_coordinates(self, case):
        coords, moves = case
        check_hooks(Sphere(), np.array(coords), moves)

    @settings(max_examples=200, deadline=None)
    @given(_case(st.sampled_from((1, 130)),
                 lambda n: _coordinate_lists(n, -5.12, 5.12, _LOST, _BOX_SPECIAL),
                 st.one_of(_RASTRIGIN_COORDS, _LOSSY)))
    def test_sphere_one_and_130_coordinates(self, case):
        coords, moves = case
        check_hooks(Sphere(), np.array(coords), moves)

    # _LOST twice: two coordinates in three are 1s, 1e-8s or zeros
    @settings(max_examples=200, deadline=None)
    @given(_case(st.integers(1, 40), lambda n: _coordinate_lists(n, -1.0, 1.0, _LOST, _LOST),
                 _LOSSY))
    def test_sphere_squares_lost_to_a_large_one(self, case):
        coords, moves = case
        check_hooks(Sphere(), np.array(coords), moves)

    @pytest.mark.parametrize("n", (2, 3, 9, 15, 16, 17, 33, 130))
    def test_sphere_move_onto_a_large_square(self, n):
        # from squares of 1e-8 alone, coordinate 0 moves to 1, next to which
        # a float sum in some order would lose them
        x = np.array([0.0] + [1e-8] * (n - 1))
        check_hooks(Sphere(), x, [(0, 1.0), (0, 0.0), (n - 1, 1.0), (0, -1.0)])


DESIGNS = ("gas_production", "air_heater", "gear_train", "gas_compressor")


@pytest.mark.parametrize("name", DESIGNS)
def test_a_nan_coordinate_gives_nan_not_an_error(name):
    p = make_problem(name)
    for k in range(p.dimension):
        x = (p.bounds.lower + p.bounds.upper) / 2.0
        x[k] = math.nan
        assert math.isnan(p.evaluate(x)), k


# The designs' expressions over an array, without the guards that keep them
# real: off the domain Python floats raise there, or a fractional power of a
# negative float makes the value complex.

def _unguarded_gas_production(x):
    x1, x2 = x.tolist()
    t = (40.0 - x1) * math.log(x2 / 200.0)
    bracket = t ** -0.85 if t > 1e-12 else 0.0
    return 61.8 + 5.72 * x1 + 0.2623 * bracket + 0.087 * t + 700.23 * x2 ** -0.75


def _unguarded_air_heater(x):
    x1, x2, x3 = x.tolist()
    fs = 0.079 * x3 ** -0.25
    fr = 2.0 / (0.95 * x3 ** 0.53 + 2.5 * math.log(1.0 / (2.0 * x1)) ** 2 - 3.75) ** 2
    f_bar = 0.5 * (fs + fr)
    e_plus = x1 * x3 * math.sqrt(f_bar / 2.0)
    r_m = 0.95 * x2 ** 0.53
    g_h = 4.5 * e_plus ** 0.28 * 0.7 ** 0.57
    return 2.51 * math.log(e_plus) + 5.5 - 0.1 * r_m - g_h


def _unguarded_gear_train(x):
    a, b, c, d = [math.floor(v + 0.5) for v in x.tolist()]
    return (1.0 / 6.931 - (float(a) * b) / (float(c) * d)) ** 2


def _unguarded_gas_compressor(x):
    x1, x2, x3 = x.tolist()
    return (
        8.61e5 * math.sqrt(x1) * x2 * x3 ** (-2.0 / 3.0) / math.sqrt(x2 * x2 - 1.0)
        + 3.69e4 * x3
        + 7.72e8 / x1 * x2 ** 0.219
        - 765.43e6 / x1
    )


UNGUARDED = {
    "gas_production": _unguarded_gas_production,
    "air_heater": _unguarded_air_heater,
    "gear_train": _unguarded_gear_train,
    "gas_compressor": _unguarded_gas_compressor,
}


def _design_point(coordinate):
    """A design's name and a point of its dimension, each coordinate drawn
    by `coordinate`."""
    return st.sampled_from(DESIGNS).flatmap(lambda name: st.tuples(
        st.just(name),
        st.lists(coordinate, min_size=make_problem(name).dimension,
                 max_size=make_problem(name).dimension)))


# finite floats of every magnitude, and as many from a range around the boxes
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(-100.0, 25_000.0))
# any float, and the values where the designs' expressions break down
_ANY = st.one_of(_FINITE, st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                                           -1.0, 1.0, 40.0, 200.0]))


class TestDesignsOnFloats:
    """The four fixed-size designs are `OnFloats` objectives: a real float
    everywhere, nan off their domain, and hooks that give `__call__`'s bits,
    because seeded design runs evaluate every candidate through `move`."""

    @settings(max_examples=1000, deadline=None)
    @given(_design_point(_FINITE))
    def test_a_float_everywhere_and_the_unguarded_value_where_that_is_real(self, case):
        name, coords = case
        x = np.array(coords)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = make_problem(name).evaluate(x)
        assert type(got) is float
        try:
            expected = UNGUARDED[name](x)
        except (ArithmeticError, ValueError, TypeError):
            assert math.isnan(got)
            return
        if type(expected) is complex:
            assert math.isnan(got)
        else:
            assert _bits(got) == _bits(expected)

    @pytest.mark.parametrize("name,point", [
        ("air_heater", [0.3, -20.0, 3000.0]),  # complex unguarded
        ("air_heater", [0.3, 20.0, -5.0]),
        ("air_heater", [-0.3, 20.0, 3000.0]),
        ("air_heater", [0.0, 20.0, 3000.0]),
        ("air_heater", [0.3, 20.0, 0.0]),
        ("gas_compressor", [30.0, 1.5, -5.0]),  # complex unguarded
        ("gas_compressor", [30.0, -1.5, 20.0]),  # complex unguarded
        ("gas_compressor", [30.0, 0.5, 20.0]),
        ("gas_compressor", [0.0, 1.5, 20.0]),
        ("gas_compressor", [-3.0, 1.5, 20.0]),
        ("gas_production", [20.0, 0.0]),
        ("gas_production", [20.0, -5.0]),
    ])
    def test_off_the_domain_is_nan(self, name, point):
        assert math.isnan(make_problem(name).evaluate(np.array(point)))

    @settings(max_examples=500, deadline=None)
    @given(_design_point(_ANY).flatmap(lambda case: st.tuples(
        st.just(case), st.lists(st.tuples(st.integers(0, len(case[1]) - 1), _ANY),
                                min_size=1, max_size=5))))
    def test_moves_match_the_full_evaluation(self, case):
        (name, coords), moves = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_hooks(make_problem(name).evaluate, np.array(coords), moves)

    @pytest.mark.parametrize("name", DESIGNS)
    def test_every_coordinate_in_and_off_the_box(self, name):
        p = make_problem(name)
        lower, upper = p.bounds.lower, p.bounds.upper
        rng = np.random.default_rng(len(name))
        special = (math.nan, math.inf, -math.inf, 0.0, -0.0)
        for x in (lower + rng.random(p.dimension) * (upper - lower), lower, upper,
                  2.0 * upper, -lower):
            moves = [(j, v) for j in range(p.dimension)
                     for v in (lower[j] + rng.random() * (upper[j] - lower[j]),
                               lower[j] - 1.0, 3.0 * upper[j], -upper[j]) + special]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                check_hooks(p.evaluate, x, moves)

    @pytest.mark.parametrize("point,expected", [
        ([12.0, 12.0, 0.0, 12.0], math.nan),  # a zero divisor
        ([0.0, 12.0, 0.0, 12.0], math.nan),  # zero over zero
    ])
    def test_gear_train_fallback_is_silent(self, point, expected):
        f = make_problem("gear_train").evaluate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repr(f(np.array(point))) == repr(expected)
            memo = f.start(np.array([12.0] * 4))[1]
            for j, v in enumerate(point):
                value, memo = f.move(memo, j, v)
            assert repr(value) == repr(expected)


class CountingFn:
    """`fn`, counting its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, c):
        self.calls += 1
        return self.fn(c)


def _signed_first(c):
    """An objective that tells -0.0 from +0.0: the sign of c[0], as +-1.0."""
    return math.copysign(1.0, c[0])


class TestOnFloatsMemo:
    """`OnFloats.move` answers a null move, `c[j] == v` with `v != 0.0`, from
    its memo `(c, f)`; every other move calls `fn` and gives a fresh memo."""

    @pytest.mark.parametrize("name", DESIGNS)
    def test_a_null_move_is_the_memo_itself(self, name):
        p = make_problem(name)
        fn = CountingFn(p.evaluate.fn)
        f = OnFloats(fn)
        rng = np.random.default_rng(len(name))
        lower, upper = p.bounds.lower, p.bounds.upper
        for x in (lower + rng.random(p.dimension) * (upper - lower), lower, upper):
            value, memo = f.start(x)
            assert _bits(value) == _bits(f(x))
            kept = list(memo[0])
            fn.calls = 0
            for j in range(p.dimension):
                got, new_memo = f.move(memo, j, x.item(j))
                assert new_memo is memo
                assert _bits(got) == _bits(value)
            assert fn.calls == 0
            assert memo[0] == kept

    @pytest.mark.parametrize("old,v", [
        (0.0, -0.0),  # equal, but fn tells them apart
        (-0.0, 0.0),
        (0.0, 0.0),
        (math.nan, math.nan),  # unequal to itself
        (1.0, math.nan),
        (1.0, 2.0),  # an ordinary move
        (-1.0, 1.0),
    ])
    def test_zero_nan_and_ordinary_moves_call_fn(self, old, v):
        fn = CountingFn(_signed_first)
        f = OnFloats(fn)
        memo = f.start(np.array([old, 5.0]))[1]
        fn.calls = 0
        value, new_memo = f.move(memo, 0, v)
        assert fn.calls == 1
        assert new_memo is not memo and new_memo[0] is not memo[0]
        assert _bits(value) == _bits(f(np.array([v, 5.0])))
        assert new_memo[0][1] == 5.0 and _bits(new_memo[0][0]) == _bits(v)
        assert _bits(new_memo[1]) == _bits(value)
        assert _bits(memo[0][0]) == _bits(old)  # the given memo is left as it was


# every registered objective, each with hooks, and the type of its `evaluate`
HOOKED = {"sphere": Sphere, "rastrigin": Rastrigin, "lennard_jones": LennardJones,
          "griewank": Griewank, "ackley": Ackley, "schaffer": OnFloats,
          **dict.fromkeys(DESIGNS, OnFloats)}
# the objectives whose hooks are bounded, with `settle`; the others' are exact
BOUNDED = (Sphere, Rastrigin, LennardJones)


class WritesItsMemo(Rastrigin):
    """A `move` that sets the new term in the memo it is given as well."""

    def move(self, memo, j, v):
        low, step = super().move(memo, j, v)
        memo[0][j] = step[1]
        return low, step


class SettleWritesItsMemo(Rastrigin):
    """A `settle` that sets the new term in the memo it is given as well."""

    def settle(self, memo, step):
        memo[0][step[0]] = step[1]
        return super().settle(memo, step)


class OneUlpOff(Rastrigin):
    """A `settle` whose value is one ulp above `__call__`'s."""

    def settle(self, memo, step):
        value, new_memo = super().settle(memo, step)
        return math.nextafter(value, math.inf), new_memo


class LowAboveValue(Rastrigin):
    """A `move` whose low is one ulp above the value it bounds."""

    def move(self, memo, j, v):
        step = super().move(memo, j, v)[1]
        return math.nextafter(self.settle(memo, step)[0], math.inf), step


class NoOverflowGuard(Rastrigin):
    """A `move` whose low is `total + (t - b)` less a wide margin: a true
    bound, but finite even where the exact sum rounds past the float range."""

    def move(self, memo, j, v):
        terms, total = memo
        step = super().move(memo, j, v)[1]
        return 10.0 * len(terms) + (total + (step[1] - terms[j])) - 1e295, step


class ZeroSignLost(LennardJones):
    """A `settle` that stores a coordinate moved to 0.0 as -0.0 in its new
    memo: equal to `start`'s memo under `==`, but not in its bits."""

    def settle(self, memo, step):
        value, new_memo = super().settle(memo, step)
        k, point, _ = step
        # the atom list is the settle's own copy
        new_memo[0][k] = tuple(-0.0 if c == 0.0 else c for c in point)
        return value, new_memo


class ArraySphere:
    """The sphere as a bounded objective whose memo is `(x, value)`, the
    position array, never written in place, and its value: `move` gives no
    bound and the step `(j, v)`, and `settle` sets coordinate j of a copy."""

    def __call__(self, x):
        return Sphere()(x)

    def start(self, x):
        value = self(x)
        return value, (x, value)

    @staticmethod
    def move(memo, j, v):
        return math.nan, (j, v)

    def settle(self, memo, step):
        j, v = step
        x = memo[0].copy()
        x[j] = v
        value = self(x)
        return value, (x, value)


class WritesItsArray(ArraySphere):
    """A `settle` that moves the memo's own position array in place."""

    def settle(self, memo, step):
        x, _ = memo
        j, v = step
        x[j] = v
        value = self(x)
        return value, (x, value)


class FreshNullMove(OnFloats):
    """An `OnFloats` whose `move` answers a null move with a new memo."""

    def move(self, memo, j, v):
        c = memo[0].copy()
        c[j] = v
        value = self.fn(c)
        return value, (c, value)


class ForgetsSettle:
    """Rastrigin's bounded `start` and `move` without its `settle`: read as
    exact, its `move` gives a bound and a step, not the value and a memo."""

    def __init__(self):
        self.inner = Rastrigin()

    def __call__(self, x):
        return self.inner(x)

    def start(self, x):
        return self.inner.start(x)

    def move(self, memo, j, v):
        return self.inner.move(memo, j, v)


class ExactWritesItsMemo(OnFloats):
    """An exact `move` that sets coordinate j in the list of the memo it is
    given as well."""

    def move(self, memo, j, v):
        value, new_memo = super().move(memo, j, v)
        memo[0][j] = v
        return value, new_memo


class KeepsItsMemo(OnFloats):
    """An exact `move` that gives the moved point's value with the old memo."""

    def move(self, memo, j, v):
        return super().move(memo, j, v)[0], memo


def rastrigin_overflow_window():
    """A Rastrigin point and a move (j, v) whose exact sum rounds past the
    float range while the point's value and `total + (t - b)` stay finite:
    the terms are MAX - ulp, 1.3 ulp and -10 (MAX the largest float, ulp its
    spacing there), and the move makes the last one 0.3 ulp."""
    ulp = math.ulp(sys.float_info.max)
    x = np.array([math.sqrt(sys.float_info.max), math.sqrt(1.3 * ulp), 0.0])
    return x, (2, math.sqrt(0.3 * ulp))


class TestHookContract:
    """`check_hooks` fails on each way a hook can break the contract, and
    every registered hooked objective pickles with its hooks."""

    @pytest.mark.parametrize("good,broken,x,move,fails", [
        (Rastrigin(), WritesItsMemo(), [0.5, -1.25, 3.0], (1, 2.0),
         "move changed the memo it was given"),
        (Rastrigin(), SettleWritesItsMemo(), [0.5, -1.25, 3.0], (1, 2.0),
         "settle changed the memo it was given"),
        (ArraySphere(), WritesItsArray(), [0.5, -1.25, 3.0], (1, 2.0),
         "settle changed the memo it was given"),
        (Rastrigin(), OneUlpOff(), [0.5, -1.25, 3.0], (1, 2.0), "settle's value is not f's"),
        (Rastrigin(), LowAboveValue(), [0.5, -1.25, 3.0], (1, 2.0),
         "move's low is above the value"),
        (Rastrigin(), NoOverflowGuard(), *rastrigin_overflow_window(),
         "a finite low for a value that is not finite"),
        (LennardJones(3), ZeroSignLost(3), list(range(9)), (4, 0.0),
         "settle's memo is not start's"),
        (OnFloats(_gas_production), FreshNullMove(_gas_production), [20.0, 400.0],
         (0, 20.0), "only a null move gives back its memo"),
        (Rastrigin(), ForgetsSettle(), [0.5, -1.25, 3.0], (1, 2.0), "move's value is not f's"),
        (OnFloats(_gas_production), ExactWritesItsMemo(_gas_production), [20.0, 400.0],
         (0, 25.0), "move changed the memo it was given"),
        (OnFloats(_gas_production), KeepsItsMemo(_gas_production), [20.0, 400.0],
         (0, 25.0), "move's memo is not start's"),
    ], ids=["writes-its-memo", "settle-writes-its-memo", "writes-its-array", "one-ulp-off",
            "low-above-value", "no-overflow-guard", "zero-sign-lost", "fresh-null-move",
            "forgets-settle", "exact-writes-its-memo", "exact-keeps-its-memo"])
    def test_check_hooks_fails_on_a_broken_hook(self, good, broken, x, move, fails):
        x = np.array(x, dtype=float)
        check_hooks(good, x, [move])
        with pytest.raises(AssertionError, match=fails):
            check_hooks(broken, x, [move])

    @pytest.mark.parametrize("name", HOOKED)
    def test_registered_and_pickles(self, name):
        p = make_problem(name, n_atoms=13) if name == "lennard_jones" else make_problem(name)
        f = p.evaluate
        assert type(f) is HOOKED[name]
        assert hasattr(f, "settle") == (type(f) in BOUNDED)
        g = pickle.loads(pickle.dumps(f))
        assert g == f
        x = p.bounds.lower + np.random.default_rng(5).random(p.dimension) * (
            p.bounds.upper - p.bounds.lower)
        assert _bits(g(x)) == _bits(f(x))
        check_hooks(g, x, [(j, x.item(-1 - j)) for j in range(p.dimension)])


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


# The numpy C calls a seeded run may make: conversions, each exact, so none
# ties a seeded result to numpy's build.
NUMPY_CONVERSIONS = {
    # `_new_source` hands `start` the fresh position as an array, and `run`
    # returns the best position as one
    "array": "a list of floats to an array",
    # `LennardJones.start` takes its input as floats
    "asarray": "an input to a float array",
    # `Colony` takes the box limits, and hooked objectives their input, as floats
    "ndarray.tolist": "an array to a list of Python floats",
}


def _numpy_name(fn):
    """The name of the C function or method `fn` if numpy defines it, else None."""
    owner = getattr(fn, "__self__", None)
    if ((getattr(fn, "__module__", None) or "").startswith("numpy")
            or type(owner).__module__.startswith("numpy")):
        return fn.__qualname__
    return None


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_a_seeded_run_calls_numpy_only_to_convert(name):
    """A seeded 2,000-NFE run of each strategy calls no numpy C function or
    method outside `NUMPY_CONVERSIONS`, as `sys.setprofile` sees it: a
    reduction such as `x.sum()` or `x.dot(x)` would tie seeded results to
    numpy's build. Its blind spot: a direct ufunc call, such as `np.cos(x)`
    or `np.floor(x)`, and an operator, such as `x @ x`, raise no `c_call`
    event, so neither is caught."""
    kw = ({"dimension": 5} if name in BENCHMARK_NAMES
          else {"n_atoms": 4} if name == "lennard_jones" else {})
    p = make_problem(name, **kw)
    calls = set()

    def profile(frame, event, fn):
        if event == "c_call":
            calls.add(_numpy_name(fn))

    for strategy in STRATEGIES:
        sys.setprofile(profile)
        try:
            run(p, VariantConfig(strategy), TerminationRule(max_nfe=2_000), 1)
        finally:
            sys.setprofile(None)
    assert calls - {None} - NUMPY_CONVERSIONS.keys() == set()


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

    @pytest.mark.parametrize("name,kwargs,named", [
        ("sphere", dict(dimension=2.5), "dimension must be an integer, got 2.5"),
        ("rastrigin", dict(dimension="10"), "dimension must be an integer, got '10'"),
        ("lennard_jones", dict(n_atoms=3.0), "n_atoms must be an integer, got 3.0"),
        # a Python bool built a 1-D sphere, where numpy's was refused
        ("sphere", dict(dimension=True), "dimension must be an integer, got True"),
        ("lennard_jones", dict(n_atoms=np.True_), "n_atoms must be an integer, got np.True_"),
    ])
    def test_non_integer_size_raises_and_names_it(self, name, kwargs, named):
        # these escaped as numpy's "expected a sequence of integers" TypeError
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            make_problem(name, **kwargs)

    def test_numpy_integer_dimension_is_its_int(self):
        problem = make_problem("sphere", np.int64(3))
        assert type(problem.dimension) is int and problem.dimension == 3

    @pytest.mark.parametrize("name,kwargs,named", [
        ("gas_production", dict(dimension=5), "dimension"),
        ("gear_train", dict(dimension=4), "dimension"),
        ("air_heater", dict(n_atoms=3), "n_atoms"),
        ("sphere", dict(n_atoms=7), "n_atoms"),
        ("schaffer", dict(dimension=2, n_atoms=2), "n_atoms"),
        # the cluster is sized by its atom count only
        ("lennard_jones", dict(dimension=6), "dimension"),
    ])
    def test_argument_that_does_not_apply_raises_and_names_it(self, name, kwargs, named):
        with pytest.raises(ConfigurationError, match=rf"{named}.*{name}"):
            make_problem(name, **kwargs)

    def test_lj_dimension_must_match_atoms(self):
        # the atom count alone sets the dimension; a dimension is refused even
        # when it equals 3 * n_atoms
        assert make_problem("lennard_jones", n_atoms=4).dimension == 12
        with pytest.raises(ConfigurationError, match="dimension .* lennard_jones"):
            make_problem("lennard_jones", dimension=12, n_atoms=4)
        with pytest.raises(ConfigurationError, match="dimension .* lennard_jones"):
            make_problem("lennard_jones", dimension=9, n_atoms=4)

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
        (dict(integrality=np.array([0, 1, 1])), "integrality mask must be boolean, not int"),
        (dict(integrality=[0.0, 1.0, 1.0]), "integrality mask must be boolean, not float64"),
    ])
    def test_inconsistent_field_raises_and_names_it(self, fields, named):
        kwargs = dict(name="cube", dimension=3, bounds=Bounds.cube(-1.0, 1.0, 3),
                      evaluate=np.sum)
        with pytest.raises(ConfigurationError, match=named):
            Problem(**{**kwargs, **fields})
