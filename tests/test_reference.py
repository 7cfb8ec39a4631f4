"""`engine.run` against the reference ABC of `reference.py`, bit for bit.

The reference evaluates every candidate in full, so these runs check the
engine's memos, hooks, sure-loser rule, winner-only gene move and in-place
shrink against the stated algorithm, where the golden digests only show that
a result has not moved.
"""
import pytest
from hypothesis import given, settings, strategies as st

from beehive.engine import STRATEGIES, TerminationRule, VariantConfig, run
from beehive.problems import make_problem
from reference import ReferenceRun
from test_golden import MAX_NFE, PROBLEMS, SCOUTING, TARGET_ACCURACY, make


def assert_matches_reference(problem, config, termination, seed):
    r = run(problem, config, termination, seed)
    best, position, nfe, cycles, trace = ReferenceRun(problem, config, termination,
                                                      seed).result()
    # repr keeps a float's bits, -0.0 included
    assert repr(r.best_objective) == repr(best)
    assert r.best_position.tobytes() == position.tobytes()
    assert (r.nfe, r.cycles) == (nfe, cycles)
    assert repr(r.trace) == repr(trace)
    return r


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", PROBLEMS)
def test_golden_grid_cell_matches_the_reference(name, strategy):
    """The golden grid's problems with its scouting config, so that scouts
    fire and the adaptive strategies grow and shrink the colony; seed 1."""
    problem = make(name)
    assert_matches_reference(problem, VariantConfig(strategy=strategy, **SCOUTING),
                             TerminationRule(max_nfe=MAX_NFE, target=problem.known_optimum),
                             seed=1)


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("cell,strategy", [("sphere-target", s) for s in STRATEGIES]
                         + [("sphere-target-initial", "basic")])
def test_target_stop_matches_the_reference(cell, strategy, seed):
    """The golden target cells, sphere D=2, which stop on their target in
    the employed phase, the onlooker phase or the initial colony."""
    termination = TerminationRule(max_nfe=MAX_NFE, accuracy=TARGET_ACCURACY[cell], target=0.0)
    r = assert_matches_reference(make_problem("sphere", dimension=2),
                                 VariantConfig(strategy=strategy, **SCOUTING),
                                 termination, seed)
    assert termination.reached(r.best_objective)


@st.composite
def configs(draw):
    sn_min = 2 * draw(st.integers(2, 10))
    sn_max = sn_min + 2 * draw(st.integers(0, 10))
    strategy = draw(st.sampled_from(STRATEGIES))
    adaptive = draw(st.sampled_from((None, False)))
    # adaptive sizing refuses more initial sources than sn_max
    most = sn_max if adaptive is None and strategy in ("sac", "sac1", "sac2") else 30
    colony = 2 * draw(st.integers(4, most))
    return VariantConfig(strategy=strategy, limit=draw(st.integers(1, 30)),
                         initial_colony=colony, sn_min=sn_min, sn_max=sn_max,
                         adaptive_sizing=adaptive)


@settings(max_examples=40, deadline=None)
@given(problem=st.sampled_from([make_problem("sphere", 2), make_problem("rastrigin", 3),
                                make_problem("gas_production"), make_problem("air_heater"),
                                make_problem("gear_train")]),
       config=configs(), seed=st.integers(0, 2**32 - 1))
def test_drawn_configuration_matches_the_reference(problem, config, seed):
    """Strategy, colony size, limit, sn_min/sn_max, sizing and seed drawn, on
    small problems, minimized, maximized and with integer variables."""
    termination = TerminationRule(max_nfe=1500, accuracy=1e-6, target=problem.known_optimum)
    assert_matches_reference(problem, config, termination, seed)
