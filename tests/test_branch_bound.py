"""Ramp-enforced tails by branch and bound.

With ramps enforced, the oracle's walk skips a child when the ramp-relaxed
value table proves it cannot reach the incumbent's tie band. These tests
hold the pruned walk to the same walk with no bound: the same cost, bit
for bit, and the same sequence, on every state tried.
"""

import dataclasses
import json

import numpy as np
import pytest

import ucdkit.oracle
from ucdkit import (
    DisturbanceScript,
    TrainConfig,
    enumerate_optimal,
    enumerate_schedule_costs,
    enumerate_tail,
    graph_dp_optimal,
    load_bundled_scenario,
    load_model,
    run_schedule,
    save_model,
    schedule_step,
    simulate,
    train,
)
from ucdkit.costs import switching_cost
from ucdkit.hybrid import int_to_mode, mode_to_int
from ucdkit.oracle import DEFAULT_BUDGET, TIE_RTOL, Stages, _best_tail, _Bound, _Budget
from ucdkit.qp import _ramp_limits, _solved, mode_candidates


def _with_ramps(s, frac):
    """Symmetric ramp limits of frac * p_max on every unit, enforced."""
    units = tuple(dataclasses.replace(u, ramp_up=frac * u.p_max, ramp_down=frac * u.p_max)
                  for u in s.units)
    return dataclasses.replace(s, units=units, ramp_enforced=True,
                               name=f"{s.name}_ramps{frac}")


def _first_unit_ramped(s, limit):
    """Ramp limits on unit 1 only, enforced."""
    first = dataclasses.replace(s.units[0], ramp_up=limit, ramp_down=limit)
    return dataclasses.replace(s, units=(first,) + s.units[1:], ramp_enforced=True,
                               name=f"{s.name}_unit1_ramp{limit:g}")


class _FullSolves:
    """Stands in for `Stages` in the oracle's walk: each stage row is
    solved in full, as `mode_candidates` solves it, with no ramp-relaxed
    row read, and each switching charge is `switching_cost`, not the
    table's row."""

    def __init__(self, s):
        self.s = s
        self.modes = [int_to_mode(v, s.n_units) for v in range(1 << s.n_units)]

    def row(self, t, p_prev):
        return _solved(self.s, t, _ramp_limits(self.s, p_prev), range(1 << self.s.n_units))

    def kappa_row(self, i_prev):
        return np.array([switching_cost(self.s, self.modes[i_prev], m) for m in self.modes])


def _exhaustive_tail(s, t, i_prev, p_prev):
    """The oracle's walk from one state with no bound: every leaf, each
    candidate set solved in full."""
    cost, seq = _best_tail(s, t, mode_to_int(i_prev), np.asarray(p_prev, dtype=float),
                           _Budget(DEFAULT_BUDGET), _FullSolves(s))
    return cost, None if seq is None else tuple(int_to_mode(v, s.n_units) for v in seq)


def _assert_pruned_is_exhaustive(s, states):
    finite = 0
    for t, i_prev, p_prev in states:
        want = _exhaustive_tail(s, t, i_prev, p_prev)
        got = enumerate_tail(s, t, i_prev, p_prev)
        assert got[0] == want[0] and got[1] == want[1], (t, i_prev, tuple(p_prev))
        finite += np.isfinite(want[0])
    assert finite, "every state was infeasible; nothing was compared"


def test_bound_cuts_only_beyond_the_incumbents_tie_band():
    value = np.zeros((3, 4))
    value[2, 3] = np.inf                      # no relaxed tail from mode 3
    band = TIE_RTOL * 1000.0
    bound = _Bound(value, 1000.0)
    assert not bound.cuts(1000.0 + 0.9 * band, 2, 0)
    assert bound.cuts(1000.0 + 1.1 * band, 2, 0)
    assert bound.cuts(0.0, 2, 3)
    # before any tail is known nothing is cut, not even a dead end
    assert not _Bound(value, np.inf).cuts(1e300, 2, 3)


def _ramped_example1_fleets():
    """(fleet, whether its ramps bind on some default state)."""
    e1c1 = load_bundled_scenario("example1_case1")
    e1c4 = load_bundled_scenario("example1_case4")
    return [
        (dataclasses.replace(e1c1, ramp_enforced=True, name="e1c1_no_limits"), False),
        (_first_unit_ramped(e1c1, 400.0), False),
        (_first_unit_ramped(e1c1, 200.0), True),
        (_with_ramps(e1c1, 0.2), True),
        (_with_ramps(e1c4, 0.2), True),
        (_with_ramps(e1c4, 0.35), True),
    ]


@pytest.mark.parametrize("s, binding", _ramped_example1_fleets(),
                         ids=lambda x: getattr(x, "name", "binding" if x else "loose"))
def test_pruned_tails_equal_exhaustive_on_every_default_state(s, binding, drawn_states):
    states = drawn_states(s, 1, count=3)
    assert len(states) > 20
    relaxed = Stages(s).values()
    binds = False
    for t, i_prev, p_prev in states:
        cost, seq = _exhaustive_tail(s, t, i_prev, p_prev)
        got = enumerate_tail(s, t, i_prev, p_prev)
        assert got[0] == cost and got[1] == seq, (t, i_prev, p_prev)
        binds |= cost != relaxed[t, mode_to_int(i_prev)]
    # where the ramps bind, the bound is tested below equality too
    assert binds == binding


def test_pruned_tails_equal_exhaustive_on_late_example2_states(e2c1, drawn_states):
    s = _with_ramps(e2c1, 0.5)
    _assert_pruned_is_exhaustive(s, drawn_states(s, 21))


def test_pruned_tails_equal_exhaustive_under_tight_ramps(e2c1, drawn_states):
    # the states of the ramp-relaxed optimum from t=18, and drawn states
    # from t=19 (at 5% ramps most of them have no feasible tail)
    s = _with_ramps(e2c1, 0.05)
    path = run_schedule(e2c1, graph_dp_optimal(e2c1).schedule).periods
    on_path = [(t, path[t - 2].commitment, path[t - 2].dispatch)
               for t in range(18, e2c1.horizon + 1)]
    _assert_pruned_is_exhaustive(s, on_path + drawn_states(s, 19))


def test_ramped_example2_optimum_fits_a_small_budget(e2c1):
    # exhaustive enumeration cannot finish this 24-period horizon
    s = _with_ramps(e2c1, 0.5)
    res = enumerate_optimal(s, budget=2_000)
    assert res.evaluations <= 2_000
    assert run_schedule(s, res.schedule).total_cost == pytest.approx(res.total_cost,
                                                                     abs=1e-6)


def test_ramped_example2_scores_a_midhorizon_disturbance(e2c1):
    s = _with_ramps(e2c1, 0.5)
    model = train(s, TrainConfig(samples=2))
    row = simulate(s, model).rows[11]
    pushed = [min(u.p_max, 1.03 * p) if on else p
              for u, on, p in zip(s.units, row["mode"], row["realized"])]
    pushed += list(row["realized"][s.n_units:])
    report = simulate(s, model, DisturbanceScript(((12, pushed),)))
    (scored,) = report.oracle_comparison
    assert scored["after_t"] == 12
    assert scored["gap"] is not None and scored["gap"] >= -1e-6


# --- the ramp-relaxed row screens ramped candidate sets ----------------------


def _random_states(s, count, seed):
    """`count` (t, None, p_prev) with each unit on or off at random and
    on units uniform over [0, p_max]; dg/dr uniform over [0, 50]."""
    rng = np.random.default_rng(seed)
    caps = np.array([u.p_max for u in s.units] + [50.0, 50.0])
    on = np.ones((count, s.n_units + 2))
    on[:, :s.n_units] = rng.integers(0, 2, (count, s.n_units))
    p = rng.uniform(0.0, 1.0, (count, s.n_units + 2)) * caps * on
    return [(int(rng.integers(1, s.horizon + 1)), None, row) for row in p]


@pytest.mark.parametrize("frac", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("name", ["example1_case1", "example1_case4", "example2_case1"])
def test_screened_candidates_equal_unscreened(name, frac, drawn_states, monkeypatch):
    s = _with_ramps(load_bundled_scenario(name), frac)
    stages = Stages(s)
    stages.values()     # caches every relaxed row, so each call below screens
    # a mode of the relaxed row that is handed to the row solver again
    # was re-solved, a ramp row binding it; the others are relaxed twins
    again = []
    solved = ucdkit.oracle._solved

    def counting(s, t, limits, modes):
        again.extend(modes)
        return solved(s, t, limits, modes)

    monkeypatch.setattr(ucdkit.oracle, "_solved", counting)
    feasible = reused = resolved = 0
    for t, _, p_prev in drawn_states(s, 1) + _random_states(s, 40, seed=17):
        again.clear()
        ints, q, dispatches = stages.row(t, p_prev)
        want = mode_candidates(s, t, p_prev)
        assert ints.tolist() == [mode_to_int(m) for m, _, _ in want]
        assert [d.tobytes() for d in dispatches] == [d.tobytes() for _, d, _ in want]
        assert q.tolist() == [qv for _, _, qv in want]
        feasible += bool(want)
        reused += len(stages.row(t)[0]) - len(again)
        resolved += len(again)
    assert feasible, "every state was infeasible; nothing was compared"
    assert reused and resolved, (reused, resolved)


# --- callers that read ramped candidates off a table they fill themselves --


@pytest.mark.parametrize("s", [s for s, binding in _ramped_example1_fleets() if binding],
                         ids=lambda s: s.name)
def test_schedule_table_equals_full_ramped_solves(s, walked_schedule_costs):
    got = enumerate_schedule_costs(s)
    want = walked_schedule_costs(s)
    assert len(want) > 1
    assert [(text, cost.hex()) for text, cost in got] == [
        (text, cost.hex()) for text, cost in want]


@pytest.mark.parametrize("frac, config", [
    (0.2, TrainConfig(samples=12, seed=5)),   # the cheapest config found that trains
    (0.5, TrainConfig(samples=2)),
])
def test_loaded_model_decides_like_the_trained_one(e2c1, tmp_path, frac, config):
    # the trained model's table holds every relaxed row; the loaded one's
    # starts empty and solves each row on first use, then reads the same
    # twins and re-solves the same modes
    s = _with_ramps(e2c1, frac)
    model = train(s, config)
    path = tmp_path / "m.json"
    save_model(model, path)
    want = simulate(s, model)
    got = simulate(s, load_model(path, scenario=s))
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    cold = load_model(path, scenario=s)
    for row in want.rows[:-1]:
        state = (row["t"] + 1, row["mode"], row["realized"])
        a, b = schedule_step(cold, s, *state), schedule_step(model, s, *state)
        assert a[0] == b[0] and a[1].tobytes() == b[1].tobytes(), state[0]
