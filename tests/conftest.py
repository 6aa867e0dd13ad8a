import dataclasses

import numpy as np
import pytest

from ucdkit import load_bundled_scenario, quota_rebate, switching_cost, train
from ucdkit.clho import _sample_states
from ucdkit.hybrid import schedule_text
from ucdkit.oracle import Stages
from ucdkit.qp import int_to_mode, mode_candidates


@pytest.fixture(scope="session")
def e1c1():
    return load_bundled_scenario("example1_case1")


@pytest.fixture(scope="session")
def e1c4():
    return load_bundled_scenario("example1_case4")


@pytest.fixture(scope="session")
def e2c1():
    return load_bundled_scenario("example2_case1")


@pytest.fixture(scope="session")
def e2c2():
    return load_bundled_scenario("example2_case2")


@pytest.fixture(scope="session")
def e2c3():
    return load_bundled_scenario("example2_case3")


def _drawn_states(s, first_t, count=1, seed=0):
    """`count` states per (t >= first_t, previous mode), drawn by the
    trainer's sampler: the initial commitment at t=1, every ramp-relaxed
    feasible mode of t-1 after it."""
    stages = Stages(s)
    rng = np.random.default_rng(seed)
    states = []
    for t in range(first_t, s.horizon + 1):
        prev = ([s.initial_commitment] if t == 1
                else [int_to_mode(v, s.n_units) for v in stages.row(t - 1)[0].tolist()])
        for mode in prev:
            states += [(t, mode, p) for p in _sample_states(s, t, mode, rng, count)]
    return states


@pytest.fixture(scope="session")
def drawn_states():
    """drawn_states(s, first_t, count=1, seed=0) -> [(t, i_prev, p_prev)]"""
    return _drawn_states


def _walked_schedule_costs(s):
    """`enumerate_schedule_costs` walked over `mode_candidates`, each
    candidate set solved in full from its state: with ramps enforced, a
    reference that reads no ramp-relaxed row."""
    rebate = quota_rebate(s)
    out = []

    def walk(t, i_prev, p_prev, prefix, acc):
        if t > s.horizon:
            out.append((schedule_text(prefix), float(acc - rebate)))
            return
        for mode, dispatch, q in mode_candidates(s, t, p_prev):
            step = q + switching_cost(s, i_prev, mode)
            prefix.append(mode)
            walk(t + 1, mode, dispatch, prefix, acc + step)
            prefix.pop()

    walk(1, s.initial_commitment, np.array(s.initial_dispatch), [], 0.0)
    return out


@pytest.fixture(scope="session")
def walked_schedule_costs():
    """walked_schedule_costs(s) -> [(schedule text, total cost)]"""
    return _walked_schedule_costs


@pytest.fixture(scope="session")
def e1c1_overloaded(e1c1):
    """example1_case1 with period 4's demand above what both units can
    supply together: no mode is feasible at t=4 from any state."""
    periods = list(e1c1.periods)
    periods[3] = dataclasses.replace(periods[3], demand=1500.0)
    return dataclasses.replace(e1c1, periods=tuple(periods))


# training is deterministic and fast; share one model per scenario
@pytest.fixture(scope="session")
def model_e1c1(e1c1):
    return train(e1c1)


@pytest.fixture(scope="session")
def model_e1c4(e1c4):
    return train(e1c4)
