"""Exact solvers: enumeration against graph DP, Bellman consistency."""

import dataclasses

import numpy as np
import pytest

import ucdkit.qp
from ucdkit import (
    BUNDLED_SCENARIOS,
    BudgetExceededError,
    UcdError,
    compare_with_oracle,
    enumerate_optimal,
    enumerate_schedule_costs,
    enumerate_tail,
    graph_dp_optimal,
    load_bundled_scenario,
    run_schedule,
    schedule_step,
    schedule_text,
    simulate,
    train,
)
from ucdkit.costs import switching_cost
from ucdkit.hybrid import int_to_mode, mode_to_int
from ucdkit.oracle import Stages
from ucdkit.qp import mode_candidates


def test_case1_argmin(e1c1):
    res = enumerate_optimal(e1c1)
    assert schedule_text(res.schedule) == "122333"
    assert res.evaluations == 18


def test_case4_argmin(e1c4):
    res = enumerate_optimal(e1c4)
    assert schedule_text(res.schedule) == "133333"


def test_eighteen_feasible_schedules(e1c1, e1c4):
    assert len(enumerate_schedule_costs(e1c1)) == 18
    assert len(enumerate_schedule_costs(e1c4)) == 18


def test_schedule_costs_match_run_schedule(e1c4):
    for text, cost in enumerate_schedule_costs(e1c4):
        assert cost == pytest.approx(run_schedule(e1c4, text).total_cost, abs=1e-9)


def test_table_is_lexicographic(e1c1):
    texts = [text for text, _ in enumerate_schedule_costs(e1c1)]
    assert texts == sorted(texts)


def test_graph_dp_agrees_with_enumeration(e1c1, e1c4):
    for s in (e1c1, e1c4):
        a = enumerate_optimal(s)
        b = graph_dp_optimal(s)
        assert a.schedule == b.schedule
        assert a.total_cost == pytest.approx(b.total_cost, abs=1e-9)


def test_graph_dp_refuses_ramp_coupling(e1c1):
    s = dataclasses.replace(e1c1, ramp_enforced=True)
    with pytest.raises(UcdError, match="ramp_enforced"):
        graph_dp_optimal(s)


def test_enumeration_handles_ramp_coupling(e1c1, walked_schedule_costs):
    # tight-ish ramp on unit 1 changes reachable dispatches but leaves a
    # feasible schedule; enumeration must still find a certified optimum,
    # held to a table whose every ramped candidate set is solved in full
    ramped = dataclasses.replace(e1c1.units[0], ramp_up=200.0, ramp_down=200.0)
    s = dataclasses.replace(e1c1, units=(ramped, e1c1.units[1]), ramp_enforced=True)
    res = enumerate_optimal(s)
    traj = run_schedule(s, res.schedule)
    assert traj.total_cost == pytest.approx(res.total_cost, abs=1e-9)
    table = walked_schedule_costs(s)
    assert res.total_cost == pytest.approx(min(c for _, c in table), abs=1e-9)


def test_budget_is_enforced(e1c1):
    with pytest.raises(BudgetExceededError):
        enumerate_optimal(e1c1, budget=5)


def test_ramped_exact_value_table_still_enumerates(e1c1):
    # ramp-enforced exact tails are enumerated, so the budget still binds
    ramped = dataclasses.replace(e1c1, ramp_enforced=True, name="e1c1_ramped")
    with pytest.raises(BudgetExceededError):
        enumerate_tail(ramped, 1, ramped.initial_commitment, ramped.initial_dispatch,
                       budget=1)


def test_tail_from_midhorizon_state(e1c1):
    cost, modes = enumerate_tail(e1c1, 5, (1, 1), np.array([500.0, 200.0, 0.0, 0.0]))
    assert [m for m in modes] == [(1, 1), (1, 1)]
    # two periods at 700 MW, no switching
    assert cost == pytest.approx(2 * 6422.597321428572, abs=1e-6)


@pytest.mark.parametrize("p_prev", [
    [-300.0, 200.0, 0.0, 0.0],          # would drop unit 1's ramp rows
    np.array([300.0, -1e-9]),
    [300.0],
    [300.0, 200.0, 0.0],
    [300.0, 200.0, 0.0, 0.0, 0.0],
    [float("nan"), 200.0],
    [300.0, float("inf"), 0.0, 0.0],
], ids=["negative", "negative-array", "short", "n-plus-1", "long", "nan", "inf"])
def test_previous_dispatch_is_checked(e1c1, model_e1c1, p_prev):
    ramped = dataclasses.replace(
        e1c1, units=(dataclasses.replace(e1c1.units[0], ramp_up=100.0), e1c1.units[1]),
        ramp_enforced=True)
    for s in (e1c1, ramped):
        with pytest.raises(ValueError, match="previous dispatch"):
            enumerate_tail(s, 4, (1, 1), p_prev)
    with pytest.raises(ValueError, match="previous dispatch"):
        schedule_step(model_e1c1, e1c1, 4, (1, 1), p_prev)
    # N or N+2 entries, as a list or an array, are accepted alike
    for good in ([300.0, 200.0], [300, 200, 0, 0], np.array([300.0, 200.0, 0.0, 0.0])):
        assert enumerate_tail(ramped, 4, (1, 1), good)[0] == pytest.approx(19301.99732142857)


def test_tail_beyond_horizon_is_zero(e1c1):
    cost, modes = enumerate_tail(e1c1, 7, (1, 1), np.zeros(4))
    assert cost == 0.0
    assert modes == ()


def test_bellman_consistency(e1c4):
    # J(t, state) = min_I {Q + kappa + J(t+1, f_I)} checked against raw tails
    s = e1c4
    for t in (2, 4):
        for i_prev in [(0, 1), (1, 0), (1, 1)]:
            p_prev = np.array([200.0, 150.0, 0.0, 0.0])
            lhs, _ = enumerate_tail(s, t, i_prev, p_prev)
            best = np.inf
            for mode, dispatch, q in mode_candidates(s, t, None):
                tail, _ = enumerate_tail(s, t + 1, mode, dispatch)
                best = min(best, q + switching_cost(s, i_prev, mode) + tail)
            assert lhs == pytest.approx(best, abs=1e-6)


def test_exact_value_table_argmins(e1c1, drawn_states):
    states = drawn_states(e1c1, 1, count=2, seed=11)
    assert states  # non-empty
    for t, i_prev, p_prev in states:
        cost, seq = enumerate_tail(e1c1, t, i_prev, p_prev)
        assert np.isfinite(cost)
        if t == 1:
            # optimal first mode from the initial commitment is mode 1
            assert i_prev == (0, 1) and seq[0] == (0, 1)


def test_oracle_matches_on_wider_system(e2c1):
    # full enumeration is out of reach at 32^24; agree on a 3-period slice
    s = dataclasses.replace(
        e2c1, periods=e2c1.periods[:3], name="e2c1_head3"
    )
    a = enumerate_optimal(s)
    b = graph_dp_optimal(s)
    assert a.schedule == b.schedule
    assert a.total_cost == pytest.approx(b.total_cost, abs=1e-7)


E2_DIURNAL = ("11000-11000-11000-11000-11000-11010-11010-11010-11011-11011-11111-"
              "11111-11011-11011-11010-11000-11000-11010-11110-11111-11110-11010-"
              "11000-11000")

GRAPH_DP_PINS = {
    "example1_case1": ("122333", "27633.291964285716"),
    "example1_case4": ("133333", "28851.691964285717"),
    "example2_case1": (E2_DIURNAL, "548792.58548365"),
    "example2_case2": ("11011" + "-11111" * 23, "742628.6287910065"),
    "example2_case3": (E2_DIURNAL, "548792.58548365"),
}


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_graph_dp_pinned_on_bundled_fleets(name):
    res = graph_dp_optimal(load_bundled_scenario(name))
    assert (schedule_text(res.schedule), repr(res.stage_cost)) == GRAPH_DP_PINS[name]


def _count_solves(monkeypatch):
    calls = []
    solve = ucdkit.qp.solve

    def counting(problem):
        calls.append(problem.t)
        return solve(problem)

    monkeypatch.setattr(ucdkit.qp, "solve", counting)
    return calls


def test_last_period_tail_solves_only_its_row(e2c1, monkeypatch):
    calls = _count_solves(monkeypatch)
    cost, modes = enumerate_tail(e2c1, e2c1.horizon, e2c1.initial_commitment,
                                 e2c1.initial_dispatch)
    assert np.isfinite(cost) and len(modes) == 1
    assert calls == [e2c1.horizon] * (1 << e2c1.n_units)


def test_exact_ties_agree_across_solvers(e1c4):
    # unit 1 twice: the duplicates' modes tie exactly, and every solver
    # must pick the lexicographically smallest one
    s = dataclasses.replace(
        e1c4, units=(e1c4.units[0],) + e1c4.units, initial_commitment=(0, 0, 1),
        initial_dispatch=(0.0, 0.0, 200.0, 0.0, 0.0), name="e1c4_dup_unit1",
    )
    model = train(s)
    assert schedule_text(enumerate_optimal(s).schedule) == "222666"
    assert schedule_text(graph_dp_optimal(s).schedule) == "222666"
    assert schedule_text(simulate(s, model).schedule) == "222666"
    assert compare_with_oracle(s, model).oracle_schedule == "222666"


@pytest.mark.parametrize("name, first_t", [
    ("example1_case1", 1), ("example1_case4", 1), ("example2_case1", 22),
])
def test_value_table_equals_enumerated_tails(name, first_t):
    # ramps relaxed: the exact tail entering t depends on the previous
    # mode alone, and the DP value table holds it bit for bit
    s = load_bundled_scenario(name)
    stages = Stages(s)
    value = stages.values()
    dispatch = np.zeros(s.n_units + 2)
    for t in range(first_t, s.horizon + 1):
        prev = (range(1 << s.n_units) if t == 1
                else [mi for mi, _, _, _ in stages.candidates(t - 1)])
        for ip in prev:
            cost, _ = enumerate_tail(s, t, int_to_mode(ip, s.n_units), dispatch)
            assert value[t, ip] == cost, (t, ip)
    assert (value[s.horizon + 1] == 0.0).all()


@pytest.mark.parametrize("name", ["example1_case1", "example1_case4"])
def test_relaxed_exact_value_table_equals_enumeration(name, drawn_states):
    # ramps relaxed: the DP value table and its argmin must give the
    # enumerated value and first mode from sampled states, beyond the
    # horizon too
    s = load_bundled_scenario(name)
    stages = Stages(s)
    value = stages.values()
    dispatch = np.zeros(s.n_units + 2)
    states = [(s.horizon + 1, int_to_mode(ip, s.n_units), dispatch)
              for ip in range(1 << s.n_units)]
    for seed in range(5):
        states += drawn_states(s, 1, count=3, seed=seed)
    for t, i_prev, p_prev in states:
        cost, seq = enumerate_tail(s, t, i_prev, p_prev)
        ip = mode_to_int(i_prev)
        first = (int_to_mode(stages.best_next(value, t, ip), s.n_units)
                 if t <= s.horizon and np.isfinite(value[t, ip]) else None)
        assert (value[t, ip], first) == (cost, seq[0] if seq else None), (t, i_prev)
