import numpy as np
import pytest

from ucdkit import load_bundled_scenario, train
from ucdkit.clho import _sample_states
from ucdkit.oracle import Stages


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
                else [mode for _, mode, _, _ in stages.candidates(t - 1)])
        for mode in prev:
            states += [(t, mode, p) for p in _sample_states(s, t, mode, rng, count)]
    return states


@pytest.fixture(scope="session")
def drawn_states():
    """drawn_states(s, first_t, count=1, seed=0) -> [(t, i_prev, p_prev)]"""
    return _drawn_states


# training is deterministic and fast; share one model per scenario
@pytest.fixture(scope="session")
def model_e1c1(e1c1):
    return train(e1c1)


@pytest.fixture(scope="session")
def model_e1c4(e1c4):
    return train(e1c4)
