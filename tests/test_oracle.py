"""Exact solvers: enumeration against graph DP, Bellman consistency."""

import dataclasses

import numpy as np
import pytest

import ucdkit.qp
from ucdkit import (
    BUNDLED_SCENARIOS,
    BudgetExceededError,
    ScenarioError,
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
from ucdkit.costs import switching_cost, switching_matrix
from ucdkit.hybrid import int_to_mode, mode_to_int
from ucdkit.oracle import Stages, tie_band
from ucdkit.qp import mode_candidates

from test_qp import _with_ramps


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


def test_budget_bounds_a_walk_of_dead_ends(e2c1):
    # no mode meets the last period's demand, so every state entering it
    # is a dead end; each charges an evaluation, and both walks stop at
    # the budget instead of visiting the whole mode tree first
    periods = list(e2c1.periods[:6])
    periods[-1] = dataclasses.replace(periods[-1], demand=periods[-1].demand * 10)
    s = dataclasses.replace(e2c1, periods=tuple(periods))
    with pytest.raises(BudgetExceededError):
        enumerate_optimal(s, budget=10)
    with pytest.raises(BudgetExceededError):
        enumerate_schedule_costs(s, budget=10)


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


def test_exact_oracles_refuse_a_period_without_a_feasible_mode(e1c1_overloaded):
    with pytest.raises(UcdError, match="no feasible commitment at period t=4"):
        graph_dp_optimal(e1c1_overloaded)
    with pytest.raises(UcdError, match="no feasible schedule exists"):
        enumerate_optimal(e1c1_overloaded)


def test_tail_beyond_horizon_is_zero(e1c1):
    cost, modes = enumerate_tail(e1c1, 7, (1, 1), np.zeros(4))
    assert cost == 0.0
    assert modes == ()


def test_tail_refuses_a_period_outside_1_to_T_plus_1(e1c1):
    # a table keys its rows by t, so once it holds row 2 a t of 2.0 would
    # read it; a t past T+1 would walk no period and price the tail 0
    p_prev = np.array([300.0, 0.0, 0.0, 0.0])
    st = Stages(e1c1)
    want = enumerate_tail(e1c1, 2, (1, 0), p_prev, stages=st)
    for bad in (2.0, np.float64(2.0), 2.5, "2", None, 0, 8):
        for table in (st, None):
            with pytest.raises(ScenarioError, match="not an integer in the horizon 1..7"):
                enumerate_tail(e1c1, bad, (1, 0), p_prev, stages=table)
    assert enumerate_tail(e1c1, np.int64(2), (1, 0), p_prev, stages=st) == want
    assert enumerate_tail(e1c1, np.int64(7), (1, 0), p_prev, stages=st) == (0.0, ())


def test_tail_refuses_a_table_of_another_scenario(e2c1, e2c2):
    # the walk reads the table's scenario, so a table of e2c2 would price
    # e2c1's tail on e2c2's periods; an equal, distinct object is refused
    # too, since a table shares its rows by object identity
    state = (20, e2c1.initial_commitment, e2c1.initial_dispatch)
    for other in (e2c2, load_bundled_scenario("example2_case1")):
        with pytest.raises(ValueError, match="table"):
            enumerate_tail(e2c1, *state, stages=Stages(other))
    assert enumerate_tail(e2c1, *state, stages=Stages(e2c1)) == enumerate_tail(e2c1, *state)
    assert enumerate_tail(e2c1, *state)[0] == pytest.approx(114098.84, abs=0.01)


def test_exact_oracles_return_python_floats(e1c1):
    ramped = dataclasses.replace(e1c1, ramp_enforced=True, name="e1c1_ramped")
    full, graph = enumerate_optimal(e1c1), graph_dp_optimal(e1c1)
    costs = [full.total_cost, full.stage_cost, graph.total_cost, graph.stage_cost]
    costs += [enumerate_tail(s, 3, (1, 1), np.array([500.0, 200.0, 0.0, 0.0]))[0]
              for s in (e1c1, ramped)]
    costs += [q for _, _, q in mode_candidates(e1c1, 2)]
    assert {type(v) for v in costs} == {float}


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
        prev = range(1 << s.n_units) if t == 1 else stages.row(t - 1)[0].tolist()
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


def _assert_row_is(row, cands, n_units):
    """The stage row (mode ints, Q, dispatches) holds the triples of
    `mode_candidates`, in their order, to the bit."""
    ints, q, dispatches = row
    assert ints.dtype == np.intp and (np.diff(ints) > 0).all()
    assert ints.tolist() == [mode_to_int(m) for m, _, _ in cands]
    assert q.dtype == float and q.tobytes() == np.array([c[2] for c in cands]).tobytes()
    assert dispatches.dtype == float and dispatches.shape == (len(cands), n_units + 2)
    assert [d.tobytes() for d in dispatches] == [c[1].tobytes() for c in cands]


def test_stage_rows_are_one_set_of_arrays(drawn_states):
    # a relaxed row is kept as read-only arrays, the same objects on each
    # call; a merged ramped row gets arrays of its own on each call; both
    # hold the full solve of their candidate set
    s = _with_ramps(load_bundled_scenario("example2_case1"), 0.5)
    stages = Stages(s)
    for t in range(1, s.horizon + 1):
        row = stages.row(t)
        _assert_row_is(row, mode_candidates(s, t), s.n_units)
        assert all(a is b for a, b in zip(stages.row(t), row))
        for a in row:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
    merged = 0
    for t, _, p_prev in drawn_states(s, 1, seed=4)[::5]:
        got = stages.row(t, p_prev)
        _assert_row_is(got, mode_candidates(s, t, p_prev), s.n_units)
        if got[0] is not stages.row(t)[0]:
            merged += 1
            again = stages.row(t, p_prev)
            assert not any(np.shares_memory(a, b)
                           for a in got for b in stages.row(t) + again)
    assert merged > 10


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS + ("overloaded",))
def test_values_and_best_next_read_feasible_columns_bit_for_bit(name, e1c1_overloaded):
    # both read only a row's feasible modes; over all 2^N columns, the
    # others being inf, they give the same bits and the same argmin. No
    # mode is feasible at t=4 of the overloaded fleet, so no tail is
    # finite before it either, and every mode ties at inf: best_next
    # gives mode 0, which is not feasible there
    s = e1c1_overloaded if name == "overloaded" else load_bundled_scenario(name)
    stages = Stages(s)
    value = stages.values()
    K = switching_matrix(s)
    for t in range(s.horizon, 0, -1):
        q = np.full(1 << s.n_units, np.inf)
        ints, qs, _ = stages.row(t)
        q[ints] = qs
        assert value[t].tobytes() == (K + q + value[t + 1]).min(1).tobytes(), t
        for ip in range(1 << s.n_units):
            assert stages.best_next(value, t, ip) == tie_band(K[ip] + q + value[t + 1])[1]
    if name == "overloaded":
        assert np.isinf(value[1:5]).all() and not len(stages.row(4)[0])
        assert stages.row(3)[0][0] != 0 and stages.best_next(value, 3, 3) == 0


def test_tables_of_one_scenario_share_read_only_switching_rows():
    import gc
    import weakref

    from ucdkit import load_bundled_scenario, oracle
    from ucdkit.costs import switching_matrix

    s = load_bundled_scenario("example2_case1")
    a, b = Stages(s), Stages(s)
    K = switching_matrix(s)
    for ip in (0, 5, 31):
        row = a.kappa_row(ip)
        assert b.kappa_row(ip) is row and row.tobytes() == K[ip].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0
    other = Stages(load_bundled_scenario("example2_case1"))    # an equal, distinct object
    assert other.kappa_row(5) is not a.kappa_row(5)
    key, ref = id(s), weakref.ref(s)
    del s, a, b
    gc.collect()
    assert ref() is None and key not in oracle._KAPPA_ROWS
