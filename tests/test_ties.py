"""Exact ties: every argmin in the package must break them the same way.

The tie band itself is unit-tested here; the randomized suite builds
fleets that tie exactly (a duplicated unit, switching prices zeroed or
kept) and asks enumeration, graph DP, the closed loop (as one rollout
and step by step on the model's stage table) and the compare table for
the same schedule.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ucdkit import (
    compare_with_oracle,
    enumerate_optimal,
    graph_dp_optimal,
    load_bundled_scenario,
    schedule_step,
    schedule_text,
    simulate,
    train,
)
from ucdkit.oracle import TIE_RTOL, tie_band


def test_tie_band_is_anchored_at_the_minimum():
    # a chained near-tie: each neighbour is within the band, but only the
    # entries within the band of the minimum count as tied. An incumbent
    # rule (replace only when better by more than the band) picks 2.
    x = 1000.0
    b = TIE_RTOL * x
    mask, k = tie_band([x, x - 0.6 * b, x - 1.2 * b])
    assert mask.tolist() == [False, True, True]
    assert k == 1


def test_tie_band_single_entry_is_its_own_argmin():
    mask, k = tie_band([42.0])
    assert mask.tolist() == [True]
    assert k == 0


def test_tie_band_never_admits_inf_beside_a_finite_entry():
    for values in ([np.inf, 5.0, np.inf], [np.inf, -1e12], [1e300, np.inf]):
        mask, k = tie_band(values)
        assert not mask[np.isinf(values)].any()
        assert np.isfinite(values[k])


TIE_SUITE = settings(max_examples=20, deadline=None, derandomize=True)


def _zero_switching(u):
    return dataclasses.replace(u, c_bank=0.0, c_fix=0.0, c_shut=0.0)


@st.composite
def tied_fleets(draw):
    base = load_bundled_scenario(draw(st.sampled_from(["example1_case1",
                                                         "example1_case4"])))
    n = base.n_units
    units = list(base.units)
    copy, at = draw(st.integers(0, n - 1)), draw(st.integers(0, n))
    units.insert(at, units[copy])
    # switching prices drawn per unit from {0, original}
    units = [_zero_switching(u) if draw(st.booleans()) else u for u in units]
    commitment = list(base.initial_commitment)
    dispatch = list(base.initial_dispatch)
    commitment.insert(at, 0)          # the duplicate starts off
    dispatch.insert(at, 0.0)
    return dataclasses.replace(
        base, units=tuple(units), initial_commitment=tuple(commitment),
        initial_dispatch=tuple(dispatch), name=f"{base.name}_dup{copy}_at{at}",
    )


@TIE_SUITE
@given(tied_fleets())
def test_exact_ties_agree_on_random_duplicated_fleets(s):
    model = train(s)
    want = schedule_text(enumerate_optimal(s).schedule)
    assert schedule_text(graph_dp_optimal(s).schedule) == want
    assert schedule_text(simulate(s, model).schedule) == want
    assert _stepped_schedule(s, model) == want
    assert compare_with_oracle(s, model).oracle_schedule == want


def _stepped_schedule(s, model):
    """The closed loop driven one schedule_step at a time."""
    i_prev, p_prev = s.initial_commitment, np.asarray(s.initial_dispatch, dtype=float)
    modes = []
    for t in range(1, s.horizon + 1):
        i_prev, p_prev = schedule_step(model, s, t, i_prev, p_prev)
        modes.append(i_prev)
    return schedule_text(modes)
