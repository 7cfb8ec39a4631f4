"""Candidate operators, selection, colony phases, and the full optimization loop."""
import copy
import dataclasses
import gc
import math
import pickle
import re
import sys
import warnings
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beehive.core import Bounds, ConfigurationError, RngStream
from beehive.engine import (
    STRATEGIES,
    Colony,
    RunResult,
    TerminationRule,
    Trace,
    VariantConfig,
    _hooks,
    _new_source,
    _phase,
    adapt_colony_size,
    employed_phase,
    fitness_map,
    onlooker_phase,
    run,
    scout_phase,
    selection_probabilities,
)
from beehive.problems import OnFloats, Problem, Rastrigin, make_problem
from conftest import ScriptedRng, in_box, index_draw, real_draw
from test_golden import SCOUTING
from test_problems import DESIGNS, CountingFn, _memo_bits


def user_griewank(x):
    """Griewank's function as a user might write it: on the position array,
    through numpy, and without hooks, so `_hooks` gives it its adapter."""
    divisor = np.sqrt(np.arange(1.0, x.size + 1.0))
    return float(np.dot(x, x) / 4000.0 - np.prod(np.cos(x / divisor)) + 1.0)


def user_problem(dimension):
    """Griewank's box and optimum with `user_griewank` as the objective."""
    return dataclasses.replace(make_problem("griewank", dimension), name="user_griewank",
                               evaluate=user_griewank)


def make_colony(positions, objectives=None, genes=None):
    """Hand-built colony in the box [-10, 10]^D; best memory points at the
    lowest objective. Each position is a list of floats and its memo is the
    position's array, as `_new_source` stores them for an objective without
    hooks."""
    arrays = [np.array(p, dtype=float) for p in positions]
    if objectives is None:
        objectives = [float(np.dot(p, p)) for p in arrays]
    if genes is None:
        genes = [None] * len(arrays)
    colony = Colony(Bounds.cube(-10, 10, arrays[0].size))
    for i, (p, f, g) in enumerate(zip(arrays, objectives, genes)):
        colony.put(i, p.tolist(), f, g, p)
    best = min(range(len(arrays)), key=objectives.__getitem__)
    colony.best_position = arrays[best].tolist()
    colony.best_objective = objectives[best]
    return colony


class MoveRecorder:
    """An objective with `start`/`move`/`settle` hooks: each move records its
    (j, v) in `seen` and gives no bound, and `settle` gives the objective
    -1e300, better than every source's."""

    def __init__(self):
        self.seen = []

    def start(self, x):
        return float(np.dot(x, x)), None

    def move(self, memo, j, v):
        self.seen.append((j, v))
        return math.nan, memo

    def settle(self, memo, step):
        return -1e300, step


def proposed(i, colony, rng, config):
    """Source i's candidate as `_phase` draws it: (j, new x_ij, size gene).

    A one-placement phase runs on a copy of the colony's columns, so `colony`
    is left as it was. The problem's objective is a `MoveRecorder`, so the
    candidate wins and its gene lands in the copy's gene column unless it is
    a null move, which keeps the old gene.
    """
    trial = copy.copy(colony)
    trial.sources, trial.fitness, trial.trials, trial.gene, trial.memo = (
        list(column) for column in colony.columns())
    recorder = MoveRecorder()
    problem = dataclasses.replace(small_problem(len(colony.lower)), evaluate=recorder)
    _phase(trial, config, problem, rng, [i])
    [(j, value)] = recorder.seen
    return j, value, trial.gene[i]


def moved(i, colony, rng, config):
    """Source i's candidate position, as an array, and size gene, as `proposed`
    gives them."""
    j, value, gene = proposed(i, colony, rng, config)
    position = np.array(colony.sources[i])
    position[j] = value
    return position, gene


def scripted_step(colony, i, j, a, phi):
    """One basic `_phase` placement of source i on `small_problem`, with
    scripted draws: coordinate j, partner a and phi."""
    rng = ScriptedRng([index_draw(j, len(colony.lower)),
                       index_draw(a, len(colony.sources)), real_draw(phi, -1, 1)])
    _phase(colony, BASIC, small_problem(len(colony.lower)), rng, [i])
    assert rng.used_up()


BASIC = VariantConfig()


def small_problem(dimension=2, half=10.0):
    return Problem(
        name="sphere",
        dimension=dimension,
        bounds=Bounds.cube(-half, half, dimension),
        evaluate=lambda x: float(np.dot(x, x)),
        known_optimum=0.0,
    )


class TestFitnessMap:
    def test_examples(self):
        assert fitness_map(0.0) == 1.0
        assert fitness_map(3.0) == 0.25
        assert fitness_map(-2.0) == 3.0

    @given(st.floats(min_value=-1e300, max_value=1e300,
                     allow_nan=False, allow_infinity=False))
    def test_always_positive(self, f):
        assert fitness_map(f) > 0.0

    @given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
           st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
    def test_order_reversing(self, a, b):
        if a <= b:
            assert fitness_map(a) >= fitness_map(b)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fitness_map(math.inf)
        with pytest.raises(ValueError):
            fitness_map(math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_named(self, bad):
        with pytest.raises(ValueError, match=f"objective must be finite, got {bad!r}$"):
            fitness_map(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(1.7976931348623157e308)
    @example(-1.7976931348623157e308)
    def test_bits_match_one_plus_abs(self, f):
        # `1.0 - f` for a negative f is the IEEE sum 1.0 + (-f), that is 1 + |f|
        expected = 1.0 / (1.0 + f) if f >= 0.0 else 1.0 + abs(f)
        assert fitness_map(f).hex() == expected.hex()


class TestSelectionProbabilities:
    def test_equal_fitness(self):
        colony = make_colony([[1, 0], [0, 1], [-1, 0], [0, -1]])
        assert selection_probabilities(colony) == [0.25] * 4

    def test_proportional(self):
        colony = make_colony([[0, 0], [0, 0]], objectives=[-2.0, 0.0])
        assert selection_probabilities(colony) == [0.75, 0.25]

    def test_single_source(self):
        colony = make_colony([[1, 1]])
        assert selection_probabilities(colony) == [1.0]

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        colony = make_colony([[x, 0] for x in rng.random(17) * 5])
        assert abs(math.fsum(selection_probabilities(colony)) - 1.0) < 1e-12

    @given(st.lists(st.floats(1e-6, 1e300), min_size=1, max_size=100).flatmap(
        lambda fits: st.tuples(st.just(fits), st.permutations(fits))))
    # a left fold sums these to 1e16, and their reversal to 1e16 + 2
    @example(([1e16, 1.0, 1.0], [1.0, 1.0, 1e16]))
    def test_the_sum_does_not_depend_on_the_order(self, fits_and_order):
        """Each source keeps its probability, bit for bit, when the fitness
        list is permuted: S is the exactly rounded sum."""
        fits, order = fits_and_order
        colony = make_colony([[0.0, 0.0]] * len(fits))
        colony.fitness[:] = fits
        probs = dict(zip(fits, selection_probabilities(colony)))
        colony.fitness[:] = order
        assert selection_probabilities(colony) == [probs[fit] for fit in order]

    def test_past_the_float_range_every_onlooker_goes_last(self, monkeypatch):
        """50 sources at objective -1e307: the fitness sum passes the float
        range, so S is inf and every probability 0.0, and every placement
        goes to the last source, with no warning (numpy's sum warned)."""
        colony = make_colony([[0.0, 0.0]] * 50, objectives=[-1e307] * 50)
        placed = []

        def spy(colony, config, problem, rng, placements):
            placed.extend(placements)

        monkeypatch.setattr("beehive.engine._phase", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert selection_probabilities(colony) == [0.0] * 50
            onlooker_phase(colony, BASIC, small_problem(), RngStream(3))
        assert placed == [49] * 50

    def test_a_draw_between_nearly_equal_bounds_pins_the_sum(self, monkeypatch):
        """Fitnesses [1e16, 1, 1]: the exactly rounded S is 1e16 + 2, which
        gives the cumulative bounds [1 - 2**-52, 1 - 2**-53, inf], so a draw
        u = 1 - 2**-53 goes to source 2. A left fold (Python's `sum`, numpy's
        `fits.sum()`) gives S = 1e16 and the bounds [1.0, 1.0, inf], which
        send it to source 0."""
        colony = make_colony([[0.0, 0.0]] * 3, objectives=[-1e16, 0.0, 0.0])
        assert colony.fitness == [1e16, 1.0, 1.0]
        placed = []

        def spy(colony, config, problem, rng, placements):
            placed.extend(placements)

        monkeypatch.setattr("beehive.engine._phase", spy)
        rng = ScriptedRng([0.9999999999999999] * 3)
        onlooker_phase(colony, BASIC, small_problem(), rng)
        assert placed == [2, 2, 2]
        assert rng.used_up()

    def test_empty_colony_raises(self):
        with pytest.raises(ValueError):
            selection_probabilities(Colony(Bounds.cube(-1, 1, 1)))


class TestPickOther:
    """Partner picks: a draw that names a source already taken is drawn again."""

    def test_retries_until_free(self, scripted):
        colony = make_colony([[0], [1], [2], [3], [4]])
        rng = scripted(raws=[0.0, index_draw(2, 5), index_draw(2, 5), index_draw(0, 5),
                             real_draw(0.5, -1, 1)])
        # partner 0 after two redraws of the bee itself: 2 + 0.5 * (2 - 0)
        assert proposed(2, colony, rng, BASIC) == (0, 3.0, None)
        assert rng.used_up()

    def test_excludes_multiple(self, scripted):
        # sac1 draws b until it is neither the bee (1) nor its partner a (3)
        colony = make_colony([[0], [1], [2], [3], [4]])
        rng = scripted(raws=[0.0, index_draw(3, 5), index_draw(1, 5), index_draw(3, 5),
                             index_draw(4, 5), real_draw(0.5, -1, 1)])
        # best_0 + 0.5 * (x_a - x_b) with a = 3, b = 4 and the best at 0
        assert proposed(1, colony, rng, VariantConfig("sac1")) == (0, -0.5, None)
        assert rng.used_up()


class TestCandidateOperators:
    def test_basic_scripted(self, scripted):
        colony = make_colony([[1, 2], [1, 4]])
        rng = scripted(raws=[index_draw(1, 2), index_draw(1, 2), real_draw(0.5, -1, 1)])
        pos, gene = moved(0, colony, rng, BASIC)
        assert pos.tolist() == [1.0, 1.0]
        assert gene is None

    def test_basic_clamps(self, scripted):
        colony = make_colony([[9, 0], [-9, 0]])
        rng = scripted(raws=[index_draw(0, 2), index_draw(1, 2), real_draw(0.9, -1, 1)])
        pos, _ = moved(0, colony, rng, BASIC)
        assert pos.tolist() == [10.0, 0.0]

    def test_basic_propagates_size_gene(self, scripted):
        colony = make_colony([[1, 2], [1, 4]], genes=[20.0, 30.0])
        rng = scripted(raws=[index_draw(1, 2), index_draw(1, 2), real_draw(0.5, -1, 1)])
        _, gene = moved(0, colony, rng, BASIC)
        assert gene == 20.0 + 0.5 * (20.0 - 30.0)

    def test_elitist_scripted(self, scripted):
        # best is the origin; the move builds coordinate 0 from it
        colony = make_colony([[5, 5], [3, 0], [1, 0], [0, 0]])
        rng = scripted(raws=[index_draw(0, 2), index_draw(1, 4), index_draw(2, 4),
                             real_draw(0.5, -1, 1)])
        pos, _ = moved(0, colony, rng, VariantConfig("sac1"))
        assert pos.tolist() == [0.0 + 0.5 * (3.0 - 1.0), 5.0]

    def test_global_local_scripted(self, scripted):
        colony = make_colony([[2, 0], [4, 0], [-2, 0], [0, 0]])
        # sac2 draws j and one partner a, then phi: no second partner
        rng = scripted(raws=[index_draw(0, 2), index_draw(1, 4), real_draw(0.0, -1, 1)])
        pos, _ = moved(0, colony, rng, VariantConfig("sac2"))
        # phi = 0 leaves only the pull from the bee's own coordinate:
        # 2 + 1.5 * (0 - 2) = -1
        assert pos.tolist() == [-1.0, 0.0]
        assert rng.used_up()

    def test_gbest_scripted(self, scripted):
        colony = make_colony([[0, 4], [3, 0], [2, 2]], objectives=[5.0, 7.0, 0.0])
        rng = scripted(raws=[index_draw(0, 2), index_draw(1, 3), real_draw(0.0, -1, 1),
                             real_draw(1.5, 0, 1.5)])
        pos, _ = moved(0, colony, rng, VariantConfig("gbest"))
        # phi = 0, psi = 1.5: 0 + 1.5 * (2 - 0) = 3
        assert pos.tolist() == [3.0, 4.0]

    def test_global_local_with_zero_weight_matches_basic(self, scripted):
        colony_a = make_colony([[2, 3], [4, 1], [-2, 0]])
        colony_b = make_colony([[2, 3], [4, 1], [-2, 0]])
        draws = [index_draw(1, 2), index_draw(1, 3), real_draw(0.25, -1, 1)]
        pos_a, _ = moved(0, colony_a, scripted(raws=draws), VariantConfig("sac2", c_factor=0.0))
        pos_b, _ = moved(0, colony_b, scripted(raws=draws), BASIC)
        assert pos_a.tolist() == pos_b.tolist()

    def test_gbest_with_zero_pull_matches_basic(self, scripted):
        colony_a = make_colony([[2, 3], [4, 1], [-2, 0]])
        colony_b = make_colony([[2, 3], [4, 1], [-2, 0]])
        draws = [index_draw(1, 2), index_draw(1, 3), real_draw(0.25, -1, 1)]
        pos_a, _ = moved(0, colony_a, scripted(raws=draws + [0.0]), VariantConfig("gbest"))
        pos_b, _ = moved(0, colony_b, scripted(raws=draws), BASIC)
        assert pos_a.tolist() == pos_b.tolist()

    def test_single_coordinate_changes(self):
        colony = make_colony([[1, 2, 3, 4], [4, 3, 2, 1], [0, 0, 0, 0]])
        rng = RngStream(3)
        for strategy in ("basic", "sac1", "sac2", "gbest"):
            for _ in range(50):
                pos, _ = moved(0, colony, rng, VariantConfig(strategy))
                diff = pos != colony.sources[0]
                assert diff.sum() <= 1
                assert in_box(Bounds.cube(-10, 10, 4), pos)

    def test_every_coordinate_is_drawn(self):
        colony = make_colony([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])
        rng = RngStream(7)
        drawn = {proposed(0, colony, rng, BASIC)[0] for _ in range(10_000)}
        assert drawn == {0, 1, 2, 3, 4}

    def test_one_coordinate_box_always_draws_it(self):
        colony = make_colony([[1], [0]])
        rng = RngStream(0)
        assert all(proposed(0, colony, rng, BASIC)[0] == 0 for _ in range(100))

    def test_index_draw_stays_below_n(self):
        # the engine's draw, math.floor(u * n), is below n for the largest u
        # below 1, so no draw needs clamping, and it is the integer int(u * n)
        # gives, for that u and others
        sizes = [n for n in list(range(1, 100_000))
                 + [2**k + d for k in range(17, 54) for d in (-1, 0, 1)] if n <= 2**53]
        top = math.nextafter(1.0, 0.0)
        assert all(math.floor(top * n) < n for n in sizes)
        for u in (0.0, 5e-324, 0.25, 1.0 / 3.0, 0.5, 0.7, top):
            assert all(math.floor(u * n) == int(u * n) for n in sizes)

    def test_phi_spans_minus_one_to_one(self):
        # x_i - x_a = 1, so the basic move puts x_i + phi in [0, 2)
        colony = make_colony([[1], [0]])
        rng = RngStream(7)
        values = [proposed(0, colony, rng, BASIC)[1] for _ in range(10_000)]
        assert all(0.0 <= v < 2.0 for v in values)
        assert min(values) < 0.1 and max(values) > 1.9

    def test_too_few_sources_raise(self):
        one = make_colony([[1, 1]])
        two = make_colony([[1, 1], [2, 2]])
        rng = RngStream(0)
        with pytest.raises(ValueError):
            proposed(0, one, rng, BASIC)
        with pytest.raises(ValueError):
            proposed(0, two, rng, VariantConfig("sac1"))
        # sac2 has one partner, so two sources are enough
        pos, _ = moved(0, two, rng, VariantConfig("sac2"))
        assert in_box(Bounds.cube(-10, 10, 2), pos)


class TestGreedySelect:
    """The step: set coordinate j, evaluate once, keep the result iff it moves
    and its fitness ties or beats the incumbent's. Each basic step below
    moves one coordinate of source 0 by phi against partner 1."""

    def test_better_candidate_replaces(self):
        colony = make_colony([[3, 0], [-1, 2]])
        current = colony.sources[0]
        scripted_step(colony, 0, 0, 1, -0.5)  # 3 - 0.5 * (3 + 1) = 1
        assert colony.sources[0] is not current
        assert colony.sources[0] == [1.0, 0.0]
        assert colony.fitness[0] == 0.5  # objective 1
        assert colony.trials[0] == 0

    def test_worse_candidate_rejected_and_counted(self):
        colony = make_colony([[1, 0], [0, 2]])
        current = colony.sources[0]
        scripted_step(colony, 0, 0, 1, 0.5)  # 1 + 0.5 * (1 - 0) = 1.5
        assert colony.sources[0] is current
        assert colony.trials[0] == 1

    def test_tie_replaces_and_resets_trials(self):
        colony = make_colony([[1, 0], [-3, 2]])
        current = colony.sources[0]
        colony.trials[0] = 7
        scripted_step(colony, 0, 0, 1, -0.5)  # 1 - 0.5 * (1 + 3) = -1
        assert colony.sources[0] is not current
        assert colony.trials[0] == 0

    def test_null_move_keeps_incumbent_and_counts_a_trial(self):
        colony = make_colony([[1, 0], [0, 2]])
        current = colony.sources[0]
        colony.trials[0] = 7
        scripted_step(colony, 0, 0, 1, 0.0)  # 1 + 0.0 * (1 - 0) = 1
        assert colony.sources[0] is current
        assert colony.trials[0] == 8
        assert colony.nfe == 1

    def test_counts_one_evaluation_and_updates_best(self):
        colony = make_colony([[3, 0], [-2, 2]])
        nfe = colony.nfe
        scripted_step(colony, 0, 0, 1, -0.5)  # 3 - 0.5 * (3 + 2) = 0.5
        assert colony.nfe == nfe + 1
        assert colony.best_objective == 0.25
        assert colony.best_position == [0.5, 0.0]

    def test_step_clamped_back_onto_own_bound_is_a_failed_trial(self, scripted):
        # x_i0 sits on the upper bound; 10 + 0.5 * (10 + 9) = 19.5 clamps back
        # to 10: the same position and fitness, which must not count as a win
        colony = make_colony([[10, 0], [-9, 0]])
        current = colony.sources[0]
        draws = [index_draw(0, 2), index_draw(1, 2), real_draw(0.5, -1, 1)]
        j, value, gene = proposed(0, colony, scripted(raws=draws), BASIC)
        assert (j, value) == (0, 10.0)
        _phase(colony, BASIC, small_problem(), scripted(raws=draws), [0])
        assert colony.nfe == 1
        assert colony.trials[0] == 1
        assert colony.sources[0] is current

    def test_gene_moves_with_the_winner_only(self):
        # phi = -0.5 moves the gene to 20 - 0.5 * (20 - 30) = 25
        colony = make_colony([[3, 0], [-1, 8]], genes=[20.0, 30.0])
        scripted_step(colony, 0, 1, 1, -0.5)  # x_01 = 0 - 0.5 * (0 - 8) = 4 loses
        assert colony.gene[0] == 20.0
        scripted_step(colony, 0, 0, 1, -0.5)  # x_00 = 3 - 0.5 * (3 + 1) = 1 wins
        assert colony.gene[0] == 25.0


class TestPhases:
    def test_employed_costs_one_evaluation_per_source(self):
        problem = small_problem()
        config = VariantConfig(strategy="basic")
        colony = make_colony([[1, 1], [2, 2], [3, 3], [-1, 4]])
        employed_phase(colony, config, problem, RngStream(9))
        assert colony.nfe == 4

    def test_employed_all_rejections_bump_trials(self):
        # initial positions score 0, everything else scores 1, so no candidate wins
        initial = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]
        keys = {tuple(p) for p in initial}
        problem = Problem(
            name="lookup", dimension=2, bounds=Bounds.cube(-10, 10, 2),
            evaluate=lambda x: 0.0 if tuple(x) in keys else 1.0,
        )
        colony = make_colony(initial, objectives=[0.0] * 4)
        employed_phase(colony, VariantConfig(strategy="basic"), problem, RngStream(4))
        assert colony.trials == [1, 1, 1, 1]
        assert colony.sources == initial

    def test_onlooker_costs_one_evaluation_per_source(self):
        problem = small_problem()
        colony = make_colony([[1, 1], [2, 2], [3, 3], [-1, 4]])
        onlooker_phase(colony, VariantConfig(strategy="basic"), problem, RngStream(9))
        assert colony.nfe == 4

    def test_onlooker_one_draw_per_placement_scripted(self, scripted, monkeypatch):
        placed = []

        def recording(colony, config, problem, rng, placements):
            for i in placements:
                placed.append(i)
                # a null move, counted, on draws of its own
                scripted_step(colony, i, 0, (i + 1) % 4, 0.0)

        monkeypatch.setattr("beehive.engine._phase", recording)
        # fitnesses 1:1:3:1; the cumulative probabilities round to
        # [1/6, 1/3, 5/6, 0.9999999999999999]
        colony = make_colony([[1, 0], [0, 1], [-1, 0], [0, -1]],
                             objectives=[0.0, 0.0, -2.0, 0.0])
        cum = list(accumulate(selection_probabilities(colony)))
        assert cum[-1] == 0.9999999999999999
        # a draw equal to a cumulative value goes to the next source, and the
        # largest draw below 1 lies past the rounded total: the clamp path
        rng = scripted(raws=[0.5, cum[0], 0.0, 0.9999999999999999])
        onlooker_phase(colony, BASIC, small_problem(), rng)
        assert placed == [2, 1, 0, 3]
        assert rng.used_up()
        assert colony.nfe == 4

    @settings(max_examples=200, deadline=None)
    @given(fits=st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=100),
           picks=st.lists(st.one_of(st.integers(0, 101), st.floats(0.0, 1.0, exclude_max=True)),
                          min_size=100, max_size=100))
    @example(fits=[1.0] * 7, picks=list(range(100)))  # the total rounds below 1
    @example(fits=[1.0] * 9, picks=list(range(100)))  # and above 1
    @example(fits=[1.0, 1.0, 3.0, 1.0], picks=list(range(100)))
    def test_onlooker_placements_match_the_clamped_bisection(self, fits, picks):
        """Each placement is `min(bisect_right(cum, u), n - 1)` for its draw u, on
        the cumulative probabilities as computed: the infinite last value
        stands in for the clamp, whether the rounded total is below, at or
        above 1. An integer pick k draws the k-th edge, mod their count: 0.0,
        the largest float below 1, or a cumulative value below 1."""
        n = len(fits)
        colony = make_colony([[0.0, 0.0]] * n)
        colony.fitness[:] = fits
        cum = list(accumulate(selection_probabilities(colony)))
        edges = [0.0, 0.9999999999999999] + [c for c in cum if c < 1.0]
        draws = [edges[u % len(edges)] if isinstance(u, int) else u for u in picks[:n]]
        placed = []

        def spy(colony, config, problem, rng, placements):
            placed.extend(placements)

        rng = ScriptedRng(draws)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("beehive.engine._phase", spy)
            onlooker_phase(colony, BASIC, small_problem(), rng)
        assert placed == [min(bisect_right(cum, u), n - 1) for u in draws]
        assert rng.used_up()

    def test_onlooker_counts_follow_fitness(self, monkeypatch):
        counts = [0, 0, 0, 0]

        def spy(colony, config, problem, rng, placements):
            for i in placements:
                counts[i] += 1

        monkeypatch.setattr("beehive.engine._phase", spy)
        problem = small_problem()
        config = VariantConfig(strategy="basic")
        rng = RngStream(13)
        # objectives 0, -1, -2, -3 map to fitnesses 1, 2, 3, 4
        colony = make_colony([[1, 0], [0, 1], [-1, 0], [0, -1]],
                             objectives=[0.0, -1.0, -2.0, -3.0])
        for _ in range(10_000):
            onlooker_phase(colony, config, problem, rng)
        total = sum(counts)
        assert total == 40_000
        expected = [total * k / 10 for k in (1, 2, 3, 4)]
        chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
        # 16.27 is the 99.9% point of chi-square with 3 degrees of freedom
        assert chi2 < 16.27, (counts, chi2)

    def test_onlooker_prefers_high_fitness(self, monkeypatch):
        counts = [0, 0, 0, 0]

        def spy(colony, config, problem, rng, placements):
            for i in placements:
                counts[i] += 1

        monkeypatch.setattr("beehive.engine._phase", spy)
        problem = small_problem()
        # objective 0 maps to fitness 1; objective 99 maps to fitness 0.01
        colony = make_colony([[0, 0]] + [[1, 1]] * 3, objectives=[0.0, 99.0, 99.0, 99.0])
        rng = RngStream(21)
        for _ in range(1000):
            onlooker_phase(colony, VariantConfig(strategy="basic"), problem, rng)
        assert counts[0] / sum(counts) > 0.9

    def test_scout_replaces_only_past_the_limit(self):
        problem = small_problem()
        config = VariantConfig(strategy="basic", limit=5)
        colony = make_colony([[1, 1], [2, 2], [3, 3]])
        colony.trials[1] = 5
        scout_phase(colony, config, problem, RngStream(2))
        assert colony.nfe == 0 and colony.trials[1] == 5

        colony.trials[1] = 6
        old = colony.sources[1]
        scout_phase(colony, config, problem, RngStream(2))
        assert colony.nfe == 1
        fresh = colony.sources[1]
        assert fresh is not old and colony.trials[1] == 0
        assert in_box(problem.bounds, fresh)

    def test_collapsed_elitist_colony_is_scouted_past_the_limit(self):
        # every elitist candidate lands on the shared best: only null moves
        problem = small_problem()
        config = VariantConfig(strategy="sac1", limit=1)
        colony = make_colony([[1, 1]] * 4)
        rng = RngStream(5)
        employed_phase(colony, config, problem, rng)
        assert colony.trials == [1, 1, 1, 1]
        scout_phase(colony, config, problem, rng)
        assert colony.nfe == 4
        employed_phase(colony, config, problem, rng)
        scout_phase(colony, config, problem, rng)
        assert colony.nfe == 9
        assert colony.trials[0] == 0
        assert colony.sources[0] != [1.0, 1.0]
        assert colony.trials[1:] == [2, 2, 2]

    def test_scout_replaces_at_most_one(self):
        problem = small_problem()
        config = VariantConfig(strategy="basic", limit=5)
        colony = make_colony([[1, 1], [2, 2], [3, 3]])
        colony.trials[:] = [50, 50, 50]
        scout_phase(colony, config, problem, RngStream(8))
        assert colony.nfe == 1
        assert colony.trials.count(0) == 1

    def test_scout_keeps_best_memory(self):
        problem = small_problem()
        config = VariantConfig(strategy="basic", limit=1)
        colony = make_colony([[0.1, 0], [2, 2], [3, 3]])
        colony.trials[0] = 99
        best_before = colony.best_objective
        scout_phase(colony, config, problem, RngStream(6))
        assert colony.best_objective <= best_before


class FlakySphere:
    """The sphere function, counted, whose call number `k` returns `bad`, or
    raises a RuntimeError if `bad` is None."""

    def __init__(self, k, bad):
        self.k, self.bad, self.calls = k, bad, 0

    def value(self, point):
        self.calls += 1
        if self.calls == self.k:
            if self.bad is None:
                raise RuntimeError(f"call {self.k}")
            return self.bad
        return math.fsum(c * c for c in point)

    def __call__(self, x):
        return self.value(x.tolist())


class HookedFlakySphere(FlakySphere):
    """`FlakySphere` with bounded `start`/`move`/`settle` hooks whose memo is
    the point as a list. `move` gives the value itself as its low, the bad
    one too: the engine must settle a nan or an infinite low, so that it
    stops the run."""

    def start(self, x):
        return self.value(x.tolist()), x.tolist()

    def move(self, memo, j, v):
        point = memo.copy()
        point[j] = v
        value = self.value(point)
        return value, (value, point)

    @staticmethod
    def settle(memo, step):
        return step


class TestPhaseLoop:
    """`_phase` keeps the best so far and the NFE count in locals: the colony's
    count is right however a phase ends, and no position list is written in
    place."""

    @staticmethod
    def flaky_colony(objective):
        """Six sources in 2-D that have cost 10 evaluations, with memos for
        `objective`."""
        colony = make_colony([[1, 1], [2, 2], [3, 3], [-1, 4], [0, 5], [4, 0]])
        if hasattr(objective, "move"):
            colony.memo[:] = [list(x) for x in colony.sources]
        colony.nfe = 10
        return colony

    @pytest.mark.parametrize("objective", (FlakySphere, HookedFlakySphere))
    @pytest.mark.parametrize("phase,k,bad", [
        (employed_phase, 3, math.nan),
        (employed_phase, 5, -math.inf),   # a new best as well
        (onlooker_phase, 4, math.inf),
        (onlooker_phase, 6, math.nan),    # the last placement
    ])
    def test_a_non_finite_value_mid_phase_leaves_the_count(self, objective, phase, k, bad):
        flaky = objective(k, bad)
        colony = self.flaky_colony(flaky)
        problem = dataclasses.replace(small_problem(), name="flaky", evaluate=flaky)
        with pytest.raises(ValueError) as info:
            phase(colony, BASIC, problem, RngStream(2))
        assert flaky.calls == k
        assert colony.nfe == 10 + k
        assert f"at evaluation {10 + k} (position [" in str(info.value)

    @pytest.mark.parametrize("objective", (FlakySphere, HookedFlakySphere))
    @pytest.mark.parametrize("phase", (employed_phase, onlooker_phase))
    def test_an_objective_that_raises_mid_phase_leaves_the_count(self, objective, phase):
        flaky = objective(4, None)
        colony = self.flaky_colony(flaky)
        problem = dataclasses.replace(small_problem(), evaluate=flaky)
        with pytest.raises(RuntimeError, match="call 4"):
            phase(colony, BASIC, problem, RngStream(2))
        assert colony.nfe == 10 + 3  # the evaluations that returned

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", ("user_griewank", "sphere", "rastrigin"))
    def test_a_phase_never_writes_a_position_in_place(self, name, strategy):
        """Every source and best-memory list, and every memo (the user
        objective's, which has no hooks, is the position array; sphere's and
        Rastrigin's hold the list of terms), holds its old values after the
        employed and onlooker phases."""
        problem = user_problem(5) if name == "user_griewank" else make_problem(name, 5)
        config = VariantConfig(strategy=strategy, initial_colony=12, sn_min=6, sn_max=12)
        rng = RngStream(8)
        colony = Colony(problem.bounds)
        for i in range(6):
            _new_source(colony, config, problem, rng, i)
        assert [isinstance(m, np.ndarray) for m in colony.memo] == [name == "user_griewank"] * 6
        replaced = 0
        for _ in range(20):
            sources = list(colony.sources)
            lists = [(x, x.copy()) for x in sources + [colony.best_position]]
            memos = [(m, _memo_bits(m)) for m in colony.memo]
            employed_phase(colony, config, problem, rng)
            onlooker_phase(colony, config, problem, rng)
            for x, old in lists:
                assert x == old
            for m, old in memos:
                assert _memo_bits(m) == old
            replaced += sum(x is not y for x, y in zip(sources, colony.sources))
        assert replaced > 0


class TestAdaptColonySize:
    def test_stable_when_genes_match_current_size(self):
        problem = small_problem()
        config = VariantConfig(strategy="sac", sn_min=4, sn_max=100)
        colony = make_colony([[i, 0] for i in range(6)], genes=[6.0] * 6)
        adapt_colony_size(colony, config, problem, RngStream(1))
        assert len(colony.sources) == 6 and colony.nfe == 0

    def test_rounds_half_up_and_forces_even(self):
        problem = small_problem()
        config = VariantConfig(strategy="sac", sn_min=4, sn_max=100)
        colony = make_colony([[i, 0] for i in range(4)], genes=[57.4] * 4)
        adapt_colony_size(colony, config, problem, RngStream(1))
        # mean 57.4 rounds to 57, then bumps to the next even count
        assert len(colony.sources) == 58
        assert colony.nfe == 54
        for p, gene in zip(colony.sources, colony.gene):
            assert in_box(problem.bounds, p)
            assert config.sn_min <= gene <= config.sn_max

    def test_growth_half_rounds_up(self):
        problem = small_problem()
        config = VariantConfig(strategy="sac", sn_min=4, sn_max=100)
        colony = make_colony([[i, 0] for i in range(4)], genes=[6.5] * 4)
        adapt_colony_size(colony, config, problem, RngStream(1))
        assert len(colony.sources) == 8

    def test_shrink_drops_lowest_fitness(self):
        problem = small_problem()
        config = VariantConfig(strategy="sac", sn_min=4, sn_max=100)
        colony = make_colony(
            [[i, 0] for i in range(6)],
            objectives=[1.0, 4.0, 4.0, 0.5, 3.0, 0.2],
            genes=[4.0] * 6,
        )
        kept = [colony.sources[i] for i in (0, 3, 4, 5)]
        adapt_colony_size(colony, config, problem, RngStream(1))
        assert len(colony.sources) == 4 and colony.nfe == 0
        assert colony.sources == kept

    @pytest.mark.parametrize("objectives,dropped", [
        # sources 1 and 3 tie for lowest fitness, and one goes
        ([1.0, 4.0, 0.5, 4.0, 0.2], {3}),
        # source 2 goes first, then sources 1 and 4 tie for the last place
        ([1.0, 4.0, 9.0, 0.5, 4.0, 0.2], {2, 4}),
    ])
    def test_shrink_drops_the_later_of_tied_sources(self, objectives, dropped):
        problem = small_problem()
        config = VariantConfig(strategy="sac", sn_min=4, sn_max=100)
        n = len(objectives)
        genes = [4.0 + (k - (n - 1) / 2.0) for k in range(n)]  # mean 4.0
        colony = make_colony([[k, 0] for k in range(n)], objectives, genes)
        colony.trials[:] = [10 * k for k in range(n)]
        rows = list(zip(*colony.columns()))
        adapt_colony_size(colony, config, problem, RngStream(1))
        assert colony.nfe == 0
        assert list(zip(*colony.columns())) == [
            row for k, row in enumerate(rows) if k not in dropped]
        for x, fit, trials, gene, memo in zip(*colony.columns()):
            k = int(x[0])
            assert (fit, trials, gene) == (fitness_map(objectives[k]), 10 * k, genes[k])
            assert memo.tolist() == x

    def test_clamps_to_configured_range(self):
        problem = small_problem()
        config = VariantConfig(strategy="sac", initial_colony=20, sn_min=4, sn_max=10)
        colony = make_colony([[i, 0] for i in range(8)], genes=[4.0] * 8)
        adapt_colony_size(colony, config, problem, RngStream(1))
        assert len(colony.sources) == 4
        colony = make_colony([[i, 0] for i in range(8)], genes=[10.0] * 8)
        adapt_colony_size(colony, config, problem, RngStream(1))
        assert len(colony.sources) == 10


class TestVariantConfig:
    def test_adaptive_defaults(self):
        assert VariantConfig(strategy="basic").adaptive_sizing is False
        assert VariantConfig(strategy="gbest").adaptive_sizing is False
        for s in ("sac", "sac1", "sac2"):
            assert VariantConfig(strategy=s).adaptive_sizing is True

    def test_explicit_override(self):
        assert VariantConfig(strategy="sac2", adaptive_sizing=False).adaptive_sizing is False
        assert VariantConfig(strategy="basic", adaptive_sizing=True).adaptive_sizing is True

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VariantConfig(strategy="firefly")
        with pytest.raises(ConfigurationError):
            VariantConfig(limit=0)
        with pytest.raises(ConfigurationError):
            VariantConfig(initial_colony=11)
        with pytest.raises(ConfigurationError):
            VariantConfig(initial_colony=6)
        with pytest.raises(ConfigurationError):
            VariantConfig(sn_min=40, sn_max=20)
        with pytest.raises(ConfigurationError):
            VariantConfig(sn_min=11)

    @pytest.mark.parametrize("sizes,named", [
        (dict(sn_min=40, sn_max=20), "got sn_min=40, sn_max=20"),
        (dict(sn_min=11), "got sn_min=11, sn_max=100"),
        (dict(sn_min=2, sn_max=8), "got sn_min=2, sn_max=8"),
    ])
    def test_bad_colony_limits_are_named(self, sizes, named):
        # both refusals said only "sn_min/sn_max must be even with 4 <= sn_min <= sn_max"
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            VariantConfig(**sizes)

    @pytest.mark.parametrize("strategy", ("sac", "sac1", "sac2"))
    def test_adaptive_colony_must_start_within_sn_max(self, strategy):
        # 150 sources would be evaluated, then 50 dropped at the first resize
        with pytest.raises(ConfigurationError,
                           match="initial_colony 300 gives 150 sources, more than sn_max 100"):
            VariantConfig(strategy=strategy, initial_colony=300)
        assert VariantConfig(strategy=strategy, initial_colony=200).initial_colony == 200
        assert not VariantConfig(strategy=strategy, initial_colony=300,
                                 adaptive_sizing=False).adaptive_sizing
        for fixed in ("basic", "gbest"):
            assert VariantConfig(strategy=fixed, initial_colony=300).initial_colony == 300

    def test_strategy_tuple(self):
        assert STRATEGIES == ("basic", "sac", "sac1", "sac2", "gbest")


class TestTerminationRule:
    def test_reached(self):
        rule = TerminationRule(accuracy=1e-6, target=0.0)
        assert rule.reached(5e-7)
        assert not rule.reached(2e-6)
        assert TerminationRule(target=None).reached(0.0) is False

    def test_reached_is_symmetric_around_target(self):
        rule = TerminationRule(accuracy=0.5, target=10.0)
        assert rule.reached(9.6) and rule.reached(10.4)
        assert not rule.reached(9.4)


@pytest.mark.parametrize("owner, field, value", [
    (VariantConfig, "initial_colony", 10.0),  # passed the checks, then `run` died
    (VariantConfig, "initial_colony", np.float64(20.0)),
    (VariantConfig, "limit", 5.0),
    (VariantConfig, "sn_min", 10.0),
    (VariantConfig, "sn_max", 100.0),
    (VariantConfig, "sn_max", "100"),
    (TerminationRule, "max_nfe", 1e5),
    (TerminationRule, "max_nfe", None),
    # a Python bool was stored as 1 or 0, where numpy's was refused
    (VariantConfig, "limit", True),
    (VariantConfig, "initial_colony", np.True_),
    (TerminationRule, "max_nfe", True),
])
def test_count_fields_refuse_a_non_integer(owner, field, value):
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{field} must be an integer, got {value!r}")):
        owner(**{field: value})


@pytest.mark.parametrize("owner, field, value, named", [
    (VariantConfig, "c_factor", "1.5", "c_factor must be a real number, got '1.5'"),
    (VariantConfig, "c_factor", None, "c_factor must be a real number, got None"),
    (TerminationRule, "accuracy", "1e-8", "accuracy must be a real number, got '1e-8'"),
    (TerminationRule, "target", "0", "target must be a real number, got '0'"),
    (TerminationRule, "target", True, "target must be a real number, got True"),
    (VariantConfig, "c_factor", False, "c_factor must be a real number, got False"),
    # gbest's psi ~ U[0, C) would be drawn from (C, 0]
    (VariantConfig, "c_factor", -1.0, "c_factor must be finite and >= 0, got -1.0"),
    (VariantConfig, "c_factor", math.nan, "c_factor must be finite and >= 0, got nan"),
    (TerminationRule, "accuracy", True, "accuracy must be a real number, got True"),
    (TerminationRule, "target", math.nan, "target must be finite, got nan"),
    (TerminationRule, "target", -math.inf, "target must be finite, got -inf"),
    (VariantConfig, "adaptive_sizing", "no", "adaptive_sizing must be a bool or None, got 'no'"),
    (VariantConfig, "adaptive_sizing", 0, "adaptive_sizing must be a bool or None, got 0"),
])
def test_real_and_flag_fields_refuse_a_wrong_type(owner, field, value, named):
    # a string target failed inside `run`, 'no' switched sizing on, and a NaN
    # target could never be reached
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        owner(**{field: value})


def test_real_and_flag_fields_are_stored_as_float_and_bool():
    config = VariantConfig(c_factor=np.float32(2.0), adaptive_sizing=np.bool_(False))
    termination = TerminationRule(accuracy=0, target=np.int64(3))
    assert (type(config.c_factor), type(config.adaptive_sizing)) == (float, bool)
    assert (config.c_factor, config.adaptive_sizing) == (2.0, False)
    assert (type(termination.accuracy), type(termination.target)) == (float, float)
    assert TerminationRule(target=None).target is None


def test_run_refuses_a_non_integer_seed_and_reports_an_int():
    # seed=1.5 replayed seed 1's run and reported seed 1.5
    args = make_problem("sphere", dimension=2), VariantConfig(), TerminationRule(max_nfe=200)
    with pytest.raises(ConfigurationError, match="seed must be an integer, got 1.5"):
        run(*args, seed=1.5)
    result = run(*args, seed=np.int64(3))
    assert type(result.seed) is int and result.seed == 3
    assert result.best_objective == run(*args, seed=3).best_objective


def test_count_fields_take_numpy_integers_as_ints():
    config = VariantConfig(strategy="sac", limit=np.int32(5), initial_colony=np.int64(20),
                           sn_min=np.int16(10), sn_max=np.uint8(20))
    termination = TerminationRule(max_nfe=np.int64(600))
    for value in (config.limit, config.initial_colony, config.sn_min, config.sn_max,
                  termination.max_nfe):
        assert type(value) is int
    plain = run(make_problem("sphere", dimension=2),
                VariantConfig(strategy="sac", limit=5, initial_colony=20, sn_min=10, sn_max=20),
                TerminationRule(max_nfe=600), seed=4)
    got = run(make_problem("sphere", dimension=2), config, termination, seed=4)
    assert (got.best_objective, got.nfe, got.trace) == (plain.best_objective, plain.nfe,
                                                        plain.trace)


class TestRun:
    def test_constant_objective(self):
        problem = Problem(
            name="const", dimension=2, bounds=Bounds.cube(-1, 1, 2),
            evaluate=lambda x: 7.0,
        )
        result = run(problem, VariantConfig(strategy="basic", initial_colony=12),
                     TerminationRule(max_nfe=300), seed=1)
        assert result.best_objective == 7.0
        assert result.nfe >= 300
        assert all(f == 7.0 for _, f in result.trace)

    @pytest.mark.parametrize("k,bad,direction", [
        (0, math.nan, "minimize"),        # first evaluation of the initial colony
        (37, math.inf, "minimize"),       # inside the initial colony
        (140, -math.inf, "maximize"),     # in a later phase, maximize sense
    ])
    def test_non_finite_objective_stops_with_a_named_error(self, k, bad, direction):
        calls = [0]

        def fails_after_k(x):
            calls[0] += 1
            return bad if calls[0] > k else float(np.dot(x, x))

        problem = Problem(name="flaky", dimension=2, bounds=Bounds.cube(-1, 1, 2),
                          evaluate=fails_after_k, direction=direction)
        with pytest.raises(ValueError) as info:
            run(problem, VariantConfig(strategy="sac"), TerminationRule(max_nfe=1000), seed=3)
        message = str(info.value)
        assert calls[0] == k + 1
        assert "'flaky'" in message
        assert repr(bad) in message
        assert f"evaluation {k + 1} " in message
        assert "(position [" in message

    @pytest.mark.parametrize("k,bad,direction", [
        (60, math.nan, "minimize"),       # an employed bee
        (140, -math.inf, "maximize"),     # an onlooker, maximize sense
    ])
    def test_non_finite_move_stops_with_the_same_named_error(self, k, bad, direction):
        class FlakyMoves:
            """Sphere with hooks whose memo is the point as a list; the move at
            evaluation k gives `bad` as its low and its value."""

            def __init__(self):
                self.calls = 0
                self.last = None  # the point of the last move

            def __call__(self, x):
                return self.start(x)[0]

            def start(self, x):
                self.calls += 1
                return float(np.dot(x, x)), x.tolist()

            def move(self, memo, j, v):
                self.calls += 1
                self.last = point = memo.copy()
                point[j] = v
                f = bad if self.calls == k else math.fsum(c * c for c in point)
                return f, (f, point)

            @staticmethod
            def settle(memo, step):
                return step

        flaky = FlakyMoves()
        problem = Problem(name="flaky", dimension=2, bounds=Bounds.cube(-1, 1, 2),
                          evaluate=flaky, direction=direction)
        with pytest.raises(ValueError) as info:
            run(problem, VariantConfig(strategy="sac"), TerminationRule(max_nfe=1000), seed=3)
        message = str(info.value)
        assert flaky.calls == k
        assert "'flaky'" in message
        assert repr(bad) in message
        assert f"evaluation {k} " in message
        assert f"(position {flaky.last})" in message

    def test_deterministic_for_fixed_seed(self):
        problem = make_problem("rastrigin", dimension=4)
        config = VariantConfig(strategy="sac1", initial_colony=20, sn_min=10, sn_max=20)
        term = TerminationRule(max_nfe=3000)
        a = run(problem, config, term, seed=5)
        b = run(problem, config, term, seed=5)
        assert a.best_objective == b.best_objective
        assert a.nfe == b.nfe and a.cycles == b.cycles
        assert a.trace == b.trace
        assert np.array_equal(a.best_position, b.best_position)
        c = run(problem, config, term, seed=6)
        assert c.best_objective != a.best_objective

    def test_nfe_matches_actual_evaluations(self):
        calls = [0]
        base = user_problem(3)

        def counting(x, _inner=base.evaluate):
            calls[0] += 1
            return _inner(x)

        problem = dataclasses.replace(base, evaluate=counting)
        for strategy in STRATEGIES:
            calls[0] = 0
            config = VariantConfig(strategy=strategy, initial_colony=20,
                                   sn_min=10, sn_max=20)
            result = run(problem, config, TerminationRule(max_nfe=2500), seed=3)
            assert result.nfe == calls[0]
            assert result.nfe >= 2500

    def test_trace_is_monotone_and_anchored(self):
        problem = make_problem("ackley", dimension=5)
        for strategy in STRATEGIES:
            config = VariantConfig(strategy=strategy, initial_colony=20,
                                   sn_min=10, sn_max=20)
            result = run(problem, config, TerminationRule(max_nfe=4000), seed=11)
            nfes = [n for n, _ in result.trace]
            bests = [f for _, f in result.trace]
            assert nfes == sorted(nfes)
            assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
            assert result.trace[-1] == (result.nfe, result.best_objective)

    def test_best_position_stays_in_bounds(self):
        for name in ("sphere", "schaffer", "gas_compressor"):
            problem = make_problem(name, dimension=3 if name == "sphere" else None)
            for strategy in STRATEGIES:
                config = VariantConfig(strategy=strategy, initial_colony=20,
                                       sn_min=10, sn_max=20)
                result = run(problem, config, TerminationRule(max_nfe=2000), seed=7)
                assert in_box(problem.bounds, result.best_position), (name, strategy)

    def test_accuracy_stop_beats_budget(self):
        problem = make_problem("sphere", dimension=2)
        result = run(problem, VariantConfig(strategy="basic"),
                     TerminationRule(max_nfe=1_000_000, accuracy=1e-3, target=0.0),
                     seed=2)
        assert abs(result.best_objective) < 1e-3
        assert result.nfe < 1_000_000

    def test_basic_equals_sac_without_adaptive_sizing(self):
        problem = make_problem("rastrigin", dimension=3)
        term = TerminationRule(max_nfe=3000)
        a = run(problem, VariantConfig(strategy="basic"), term, seed=42)
        b = run(problem, VariantConfig(strategy="sac", adaptive_sizing=False), term, seed=42)
        assert a.best_objective == b.best_objective
        assert a.nfe == b.nfe
        assert a.trace == b.trace

    def test_gear_train_reports_integer_teeth(self):
        problem = make_problem("gear_train")
        result = run(problem, VariantConfig(strategy="sac2"),
                     TerminationRule(max_nfe=3000), seed=1)
        assert np.array_equal(result.best_position, np.floor(result.best_position))
        assert in_box(problem.bounds, result.best_position)

    def test_maximization_reported_in_user_sense(self):
        problem = make_problem("air_heater")
        result = run(problem, VariantConfig(strategy="sac2"),
                     TerminationRule(max_nfe=5000), seed=1)
        # traces of a maximization run are non-decreasing in the user's sense
        bests = [f for _, f in result.trace]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
        assert result.best_objective == problem.evaluate(result.best_position)


class TestValueEquality:
    """`RunResult`, `Bounds` and `Problem` compare by value, their arrays by
    `np.array_equal`, and are unhashable, as the arrays they hold are."""

    @pytest.mark.parametrize("problem", [make_problem("sphere", 1), make_problem("sphere", 2),
                                         make_problem("sphere", 30), make_problem("air_heater")],
                             ids=["sphere-1", "sphere-2", "sphere-30", "air_heater-maximize"])
    def test_seeded_runs(self, problem):
        config, termination = VariantConfig(), TerminationRule(max_nfe=500)
        result = run(problem, config, termination, seed=3)
        assert result == run(problem, config, termination, seed=3)
        assert result != run(problem, config, termination, seed=4)
        assert pickle.loads(pickle.dumps(result)) == result
        assert result != (result.best_objective, result.best_position)

    def test_bounds_and_problems(self):
        assert Bounds.cube(-1, 1, 3) == Bounds.cube(-1, 1, 3)
        assert Bounds.cube(-1, 1, 3) != Bounds.cube(-1, 2, 3)
        assert Bounds.cube(-1, 1, 3) != Bounds.cube(-1, 1, 4)
        assert make_problem("sphere", 3) == make_problem("sphere", 3)
        assert make_problem("sphere", 3) != make_problem("sphere", 4)
        gear = make_problem("gear_train")
        assert gear == make_problem("gear_train")
        assert pickle.loads(pickle.dumps(gear)) == gear
        assert gear != make_problem("air_heater")
        assert gear != dataclasses.replace(gear, integrality=None)
        assert dataclasses.replace(gear, integrality=None) != gear

    @pytest.mark.parametrize("value", [
        run(make_problem("sphere", 2), BASIC, TerminationRule(max_nfe=100), seed=1),
        Bounds.cube(-1, 1, 2),
        make_problem("gear_train"),
    ], ids=lambda value: type(value).__name__)
    def test_unhashable(self, value):
        with pytest.raises(TypeError, match=f"unhashable type: '{type(value).__name__}'"):
            hash(value)


def retained_bytes(obj):
    """`sys.getsizeof` summed over `obj` and every object it holds, each once."""
    seen, todo, total = set(), [obj], 0
    while todo:
        item = todo.pop()
        if id(item) in seen or isinstance(item, type):
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        todo.extend(gc.get_referents(item))
    return total


# a signed zero, nfe counts past 2**31 and a subnormal, none of them sorted
TRACE_PAIRS = ((0, 3.5), (2**31 + 5, -0.0), (2**40, 5e-324), (7, -2.25), (2**62, 0.0))


class TestTrace:
    """`Trace`, as built from pairs and as `run` returns it, behaves as the
    tuple of the same pairs."""

    @pytest.fixture(params=["pairs", "run"])
    def case(self, request):
        """A Trace and the tuple of its pairs."""
        if request.param == "pairs":
            return Trace(TRACE_PAIRS), TRACE_PAIRS
        trace = run(make_problem("ackley", dimension=3), VariantConfig(initial_colony=10),
                    TerminationRule(max_nfe=400), seed=5).trace
        assert isinstance(trace, Trace)
        return trace, tuple(trace[i] for i in range(len(trace)))

    def test_equals_the_tuple_and_not_a_list(self, case):
        trace, pairs = case
        assert trace == pairs and pairs == trace
        assert not (trace != pairs or pairs != trace)
        assert trace == Trace(pairs) and trace != Trace(pairs[:-1])
        assert trace != list(pairs) and list(pairs) != trace
        assert trace != pairs[:-1] and trace != pairs + ((1, 1.0),)

    def test_hash_repr_and_len_are_the_tuples(self, case):
        trace, pairs = case
        assert hash(trace) == hash(pairs)
        assert {pairs: "found"}[trace] == "found"
        assert repr(trace) == repr(pairs)
        assert len(trace) == len(pairs)

    def test_indexes_as_the_tuple(self, case):
        trace, pairs = case
        for i in range(-len(pairs), len(pairs)):
            assert type(trace[i]) is tuple and trace[i] == pairs[i]
        for i in (len(pairs), -len(pairs) - 1):
            with pytest.raises(IndexError):
                trace[i]

    @pytest.mark.parametrize("part", [slice(None), slice(1, None), slice(None, -1),
                                      slice(None, None, -1), slice(1, 3), slice(4, 2),
                                      slice(None, None, 2), slice(-2, None)])
    def test_a_slice_is_a_trace_equal_to_the_tuples_slice(self, case, part):
        trace, pairs = case
        assert type(trace[part]) is Trace
        assert trace[part] == pairs[part] and repr(trace[part]) == repr(pairs[part])

    def test_iterates_as_int_and_float(self, case):
        trace, pairs = case
        assert list(trace) == list(pairs)
        assert all(type(n) is int and type(f) is float for n, f in trace)

    def test_keeps_bits(self):
        kept = Trace(TRACE_PAIRS)
        assert [(n, f.hex()) for n, f in kept] == [(n, f.hex()) for n, f in TRACE_PAIRS]
        assert math.copysign(1.0, kept[1][1]) == -1.0 and kept[1][0] == 2**31 + 5

    def test_pickles_as_the_same_bits(self, case):
        trace, pairs = case
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(trace, protocol))
            assert type(back) is Trace and back == pairs
            assert [f.hex() for _, f in back] == [f.hex() for _, f in pairs]

    def test_has_no_public_mutator(self, case):
        trace, pairs = case
        assert {name for name in dir(trace) if not name.startswith("_")} == {"count", "index"}
        with pytest.raises(TypeError):
            trace[0] = (1, 1.0)
        with pytest.raises(AttributeError):
            trace.extra = 1
        assert trace == pairs

    def test_maximization_trace_is_in_user_sense(self):
        minimized = make_problem("rastrigin", 3)
        maximized = dataclasses.replace(minimized, evaluate=Negated(Rastrigin()),
                                        direction="maximize")
        config, termination = VariantConfig(strategy="sac"), TerminationRule(max_nfe=2000)
        low = run(minimized, config, termination, seed=4).trace
        high = run(maximized, config, termination, seed=4)
        assert type(high.trace) is Trace
        assert high.trace[-1] == (high.nfe, high.best_objective)
        assert [(n, f.hex()) for n, f in high.trace] == [(n, (-f).hex()) for n, f in low]

    def test_a_long_run_keeps_at_most_20_bytes_a_cycle(self):
        """10,000 cycles of 8 evaluations: a tuple of pairs holds 92 bytes a
        cycle here, the two arrays 16 and their spare capacity."""
        config = VariantConfig(initial_colony=8, sn_min=4, sn_max=4)
        result = run(make_problem("sphere", 1), config, TerminationRule(max_nfe=80_000), seed=1)
        assert len(result.trace) == 10_001
        assert retained_bytes(result.trace) <= 20 * len(result.trace)


class TestColonyInvariantsOverManyCycles:
    def test_population_stays_in_box_and_even_sized(self):
        problem = user_problem(3)
        for strategy in STRATEGIES:
            config = VariantConfig(strategy=strategy, initial_colony=20,
                                   sn_min=10, sn_max=20, limit=15)
            rng = RngStream(31)
            colony = Colony(problem.bounds)
            for i in range(config.initial_colony // 2):
                _new_source(colony, config, problem, rng, i)
            for _ in range(60):
                employed_phase(colony, config, problem, rng)
                onlooker_phase(colony, config, problem, rng)
                scout_phase(colony, config, problem, rng)
                if config.adaptive_sizing:
                    adapt_colony_size(colony, config, problem, rng)
                    assert config.sn_min <= len(colony.sources) <= config.sn_max
                assert len(colony.sources) % 2 == 0
                for p, gene in zip(colony.sources, colony.gene):
                    assert in_box(problem.bounds, p)
                    if config.adaptive_sizing:
                        assert config.sn_min <= gene <= config.sn_max
                    else:
                        assert gene is None
            assert in_box(problem.bounds, colony.best_position)


def assert_same_result(a, b):
    """Two `RunResult`s agree in every field, arrays bit for bit."""
    for field in dataclasses.fields(RunResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.tobytes() == y.tobytes()
        else:
            assert x == y, field.name


class Negated:
    """`inner`'s objective negated, hooks included: the same search posed as a
    maximization."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, x):
        return -self.inner(x)

    def start(self, x):
        f, memo = self.inner.start(x)
        return -f, memo

    def move(self, memo, j, v):
        # negated, a lower bound bounds from above: no bound
        return math.nan, self.inner.move(memo, j, v)[1]

    def settle(self, memo, step):
        f, memo = self.inner.settle(memo, step)
        return -f, memo


class NoBound:
    """`inner`'s objective and hooks, except that `move` gives no bound (a nan
    low), so the engine settles every candidate."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, x):
        return self.inner(x)

    def start(self, x):
        return self.inner.start(x)

    def move(self, memo, j, v):
        return math.nan, self.inner.move(memo, j, v)[1]

    def settle(self, memo, step):
        return self.inner.settle(memo, step)


def _tiny(c):
    """1e-17 (1 + c0^2): near the origin every value maps to fitness 1.0."""
    return 1e-17 * (1.0 + c[0] * c[0])


class Sphere:
    """The registered sphere's value from a callable instance without its
    hooks, to hang a lone hook on."""

    def __call__(self, x):
        return REGISTERED_SPHERE(x)


REGISTERED_SPHERE = make_problem("sphere", 1).evaluate


class Bounded:
    """`inner`'s exact hooks in the bounded form: `move` gives the value as its
    low and `(value, memo)` as the step, which `settle` hands back."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, x):
        return self.inner(x)

    def start(self, x):
        return self.inner.start(x)

    def move(self, memo, j, v):
        step = self.inner.move(memo, j, v)
        return step[0], step

    @staticmethod
    def settle(memo, step):
        return step


class CountingHooks:
    """`inner`'s objective and exact hooks, counting the calls of each."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = dict.fromkeys(("__call__", "start", "move", "settle"), 0)

    def __call__(self, x):
        self.calls["__call__"] += 1
        return self.inner(x)

    def start(self, x):
        self.calls["start"] += 1
        return self.inner.start(x)

    def move(self, memo, j, v):
        self.calls["move"] += 1
        return self.inner.move(memo, j, v)


class CountingBoundedHooks(CountingHooks):
    """`CountingHooks` around bounded hooks, counting the calls of `settle` too."""

    def settle(self, memo, step):
        self.calls["settle"] += 1
        return self.inner.settle(memo, step)


class CountingNullMoves(CountingHooks):
    """`CountingHooks` around an `OnFloats`, counting its null moves too:
    `c[j] == v` with `v != 0.0`."""

    def __init__(self, inner):
        super().__init__(inner)
        self.null_moves = 0

    def move(self, memo, j, v):
        self.null_moves += memo[0][j] == v and v != 0.0
        return super().move(memo, j, v)


def _cell(problem, *args):
    """`problem` and `args` as one `pytest.param`, named by the problem."""
    sense = "-maximize" if problem.direction == "maximize" else ""
    return pytest.param(problem, *args, id=f"{problem.name}-{problem.dimension}{sense}")


# every hooked objective, and Rastrigin posed as a maximization, with the
# seed of its run
HOOKED_RUNS = (
    [_cell(make_problem("sphere", dim), dim) for dim in (5, 30)]
    + [_cell(make_problem("rastrigin", dim), dim) for dim in (3, 10, 30, 130)]
    + [_cell(make_problem("lennard_jones", n_atoms=atoms), atoms) for atoms in (3, 4, 13)]
    + [_cell(make_problem(name), len(name)) for name in DESIGNS]
    + [_cell(make_problem(name, dim), dim) for name, dim in
       (("griewank", 10), ("ackley", 10), ("schaffer", 2))]
    + [_cell(dataclasses.replace(make_problem("rastrigin", 10), evaluate=Negated(Rastrigin()),
                                 direction="maximize"), 10)])
# the hooked objectives, and a user objective without hooks
MEMO_COLUMNS = [_cell(p) for p in (make_problem("sphere", 10), make_problem("rastrigin", 10),
                                   make_problem("lennard_jones", n_atoms=13),
                                   *map(make_problem, DESIGNS), make_problem("griewank", 10),
                                   make_problem("ackley", 10), make_problem("schaffer"),
                                   user_problem(10))]


def assert_adapter(evaluate):
    """`_hooks` gives `evaluate` the exact hooks of its adapter, `start` and
    `move` with no `settle`, for objectives without `start` and `move` of
    their own."""
    start, move, settle = _hooks(evaluate)
    assert [start.__qualname__, move.__qualname__, settle] == [
        "_hooks.<locals>.start", "_hooks.<locals>.move", None]


class TestIncrementalEvaluation:
    """The bounded hooks of sphere, Rastrigin and Lennard-Jones and the exact
    ones of the four fixed-size designs give the run that the full path
    gives; a plain function around `evaluate` hides the hooks, so it takes
    that path: the adapter of `_hooks`, which evaluates every candidate in
    full."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("problem,seed", HOOKED_RUNS)
    def test_run_equals_the_full_path(self, problem, seed, strategy):
        """The plain function is called once per counted evaluation, null
        moves included."""
        calls = 0

        def plain(x):
            nonlocal calls
            calls += 1
            return problem.evaluate(x)

        full = dataclasses.replace(problem, evaluate=plain)
        assert _hooks(problem.evaluate) == tuple(
            getattr(problem.evaluate, name, None) for name in ("start", "move", "settle"))
        assert_adapter(full.evaluate)
        # scouts fire, and the adaptive strategies grow and shrink the colony
        config = VariantConfig(strategy=strategy, **SCOUTING)
        termination = TerminationRule(max_nfe=3000)
        result = run(full, config, termination, seed=seed)
        assert_same_result(run(problem, config, termination, seed=seed), result)
        assert calls == result.nfe

    @pytest.mark.parametrize("name", DESIGNS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_design_hooks_are_called_once_per_evaluation(self, strategy, name):
        """The engine calls the exact `start` or `move` once per counted
        evaluation, null moves included; `OnFloats` answers the null moves
        without calling `fn`, which gas_production, with its optimum on a
        bound, is full of."""
        problem = make_problem(name)
        fn = CountingFn(problem.evaluate.fn)
        hooks = CountingNullMoves(OnFloats(fn))
        assert _hooks(hooks)[2] is None
        config = VariantConfig(strategy=strategy, **SCOUTING)
        termination = TerminationRule(max_nfe=3000)
        r = run(dataclasses.replace(problem, evaluate=hooks), config, termination, seed=7)
        assert_same_result(r, run(problem, config, termination, seed=7))
        assert hooks.calls["__call__"] == 0
        assert hooks.calls["start"] + hooks.calls["move"] == r.nfe
        assert fn.calls == r.nfe - hooks.null_moves
        if name == "gas_production":
            assert hooks.null_moves > 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("problem", [_cell(make_problem(name, dim))
                                         for name in ("sphere", "rastrigin") for dim in (5, 30)]
                             + [_cell(make_problem("lennard_jones", n_atoms=atoms))
                                for atoms in (3, 13)])
    def test_run_equals_the_run_that_settles_every_candidate(self, problem, strategy):
        """Deciding a candidate by its bound skips `settle` and nothing else:
        the run is the one that settles every candidate, bit for bit."""
        settled = dataclasses.replace(problem, evaluate=NoBound(problem.evaluate))
        config = VariantConfig(strategy=strategy, **SCOUTING)
        termination = TerminationRule(max_nfe=3000)
        assert_same_result(run(problem, config, termination, seed=11),
                           run(settled, config, termination, seed=11))

    @staticmethod
    def tiny_colony(hooks, sources=([0.0, 0.0], [3.0, 0.0]), direction="minimize"):
        """`sources` of `_tiny` through `hooks`, in the box [-10, 10]^2, the
        first the best; and the problem."""
        problem = Problem("tiny", 2, Bounds.cube(-10, 10, 2), hooks, direction)
        colony = Colony(problem.bounds)
        for i, x in enumerate(sources):
            f, memo = hooks.start(np.array(x))
            colony.put(i, x, -f if direction == "maximize" else f, None, memo)
        best = _tiny(sources[0])
        colony.best_position = colony.sources[0]
        colony.best_objective = -best if direction == "maximize" else best
        return colony, problem

    def test_a_tie_in_fitness_is_settled_and_wins(self):
        """A candidate worse than its incumbent whose fitness rounds to the
        incumbent's is no sure loser: it is settled, and the tie wins."""
        hooks = CountingBoundedHooks(Bounded(OnFloats(_tiny)))
        colony, problem = self.tiny_colony(hooks)
        rng = ScriptedRng([index_draw(0, 2), index_draw(1, 2), real_draw(-1.0 / 3.0, -1, 1)])
        _phase(colony, BASIC, problem, rng, [0])
        assert rng.used_up()
        v = colony.sources[0][0]
        assert v != 0.0 and colony.sources[0] == [v, 0.0]
        f = _tiny([v, 0.0])
        assert f > colony.best_objective == _tiny([0.0, 0.0])
        assert fitness_map(f) == fitness_map(colony.best_objective) == colony.fitness[0]
        assert hooks.calls["move"] == hooks.calls["settle"] == 1
        assert colony.trials[0] == 0 and colony.nfe == 1
        assert colony.best_position == [0.0, 0.0]

    def test_a_sure_loser_is_not_settled(self):
        """A candidate whose low maps to a fitness below its incumbent's and
        is no better than the best is counted and gains a trial, unsettled."""
        hooks = CountingBoundedHooks(Bounded(OnFloats(_tiny)))
        colony, problem = self.tiny_colony(hooks)
        # source 1 moves away from the origin: 3 + 0.5 * (3 - 0) = 4.5
        rng = ScriptedRng([index_draw(0, 2), index_draw(0, 2), real_draw(0.5, -1, 1)])
        _phase(colony, BASIC, problem, rng, [1])
        assert rng.used_up()
        assert hooks.calls["move"] == 1 and hooks.calls["settle"] == 0
        assert colony.sources[1] == [3.0, 0.0] and colony.trials[1] == 1
        assert colony.nfe == 1

    @pytest.mark.parametrize("direction", ("minimize", "maximize"))
    def test_a_null_move_is_not_settled(self, direction):
        """A candidate with x_ij's own nonzero value is its incumbent's point:
        counted, a trial, unsettled, in either sense."""
        hooks = CountingBoundedHooks(Bounded(OnFloats(_tiny)))
        colony, problem = self.tiny_colony(hooks, ([1.0, 2.0], [3.0, 2.0]), direction)
        # coordinate 1, where both sources are 2.0: 2 + phi * (2 - 2) = 2
        rng = ScriptedRng([index_draw(1, 2), index_draw(1, 2), real_draw(0.5, -1, 1)])
        _phase(colony, BASIC, problem, rng, [0])
        assert rng.used_up()
        assert hooks.calls["move"] == 1 and hooks.calls["settle"] == 0
        assert colony.sources[0] == [1.0, 2.0] and colony.trials[0] == 1
        assert colony.nfe == 1

    @staticmethod
    def check_full_path(hooks):
        """An objective with only the named hooks, each failing if called,
        gets the adapter and gives the run of the registered sphere, which
        has bounded hooks."""
        def unused(*args):
            raise AssertionError(f"a hook of {hooks} was called")

        lone = Sphere()
        for hook in hooks:
            setattr(lone, hook, unused)
        assert_adapter(lone)
        problem = make_problem("sphere", 4)
        config = VariantConfig(strategy="sac1", **SCOUTING)
        termination = TerminationRule(max_nfe=3000)
        assert_same_result(run(dataclasses.replace(problem, evaluate=lone), config,
                               termination, seed=4),
                           run(problem, config, termination, seed=4))

    @pytest.mark.parametrize("hook", ("start", "move", "settle"))
    def test_one_hook_alone_takes_the_full_path(self, hook):
        self.check_full_path((hook,))

    @pytest.mark.parametrize("missing", ("start", "move"))
    def test_two_hooks_without_the_third_take_the_full_path(self, missing):
        self.check_full_path(tuple(h for h in ("start", "move", "settle") if h != missing))

    def test_start_and_move_alone_are_exact_hooks(self):
        """An objective with `start` and `move` and no `settle` has its own
        hooks used, in the exact form: once per counted evaluation, never
        `__call__`, and the run of the registered sphere."""
        class ExactSphere(Sphere):
            def start(self, x):
                return self(x), x

            def move(self, x, j, v):
                y = x.copy()
                y[j] = v
                return self(y), y

        hooks = CountingHooks(ExactSphere())
        assert _hooks(hooks) == (hooks.start, hooks.move, None)
        problem = make_problem("sphere", 4)
        config = VariantConfig(strategy="sac1", **SCOUTING)
        termination = TerminationRule(max_nfe=3000)
        r = run(dataclasses.replace(problem, evaluate=hooks), config, termination, seed=4)
        assert_same_result(r, run(problem, config, termination, seed=4))
        assert hooks.calls["__call__"] == 0
        assert hooks.calls["start"] + hooks.calls["move"] == r.nfe

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("problem", MEMO_COLUMNS)
    def test_memo_column_follows_its_source(self, problem, strategy):
        """After every phase, with scouts firing and colonies resizing, each
        source's fitness and memo are those of its own position, bit for bit
        (without hooks the memo is the position's array), and no two sources
        share a position list."""
        config = VariantConfig(strategy=strategy, **SCOUTING)
        rng = RngStream(5)
        colony = Colony(problem.bounds)
        start = getattr(problem.evaluate, "start", None)
        phases = [employed_phase, onlooker_phase, scout_phase]
        if config.adaptive_sizing:
            phases.append(adapt_colony_size)
        for i in range(config.initial_colony // 2):
            _new_source(colony, config, problem, rng, i)
        for _ in range(40):
            for phase in phases:
                phase(colony, config, problem, rng)
                assert len(colony.memo) == len(colony.sources)
                assert len({id(x) for x in colony.sources}) == len(colony.sources)
                for x, fit, memo in zip(colony.sources, colony.fitness, colony.memo):
                    point = np.array(x)
                    assert fit == fitness_map(problem.evaluate_min(point))
                    if start is None:
                        assert memo.tobytes() == point.tobytes()
                    else:
                        assert _memo_bits(memo) == _memo_bits(start(point)[1])
