"""Value training and closed-loop scheduling."""

import dataclasses
import json

import numpy as np
import pytest

import ucdkit.oracle
import ucdkit.qp
from ucdkit import (
    BasisSpec,
    DisturbanceScript,
    ModelMismatchError,
    ScenarioError,
    TrainConfig,
    UcdError,
    assemble,
    default_basis,
    enumerate_optimal,
    enumerate_tail,
    load_model,
    mode_candidates,
    save_model,
    schedule_step,
    schedule_text,
    simulate,
    train,
)
from ucdkit.clho import _tail_values, basis_matrix, decide
from ucdkit.hybrid import mode_to_int
from ucdkit.oracle import Stages


def test_default_basis_sizes(e1c1, e2c1):
    b1 = default_basis(e1c1)
    assert b1.coords == (0, 1)       # no dg/dr anywhere in example 1
    assert b1.n_features == 5
    b2 = default_basis(e2c1)
    assert b2.coords == (0, 1, 2, 3, 4, 5, 6)
    assert b2.n_features == 15


def test_basis_vector_layout():
    spec = BasisSpec(coords=(0, 1))
    phi = basis_matrix(spec, [np.array([350.0, 0.0, 0.0, 0.0])])[0]
    assert phi.tolist() == [122500.0, 0.0, 350.0, 0.0, 1.0]


def test_basis_matrix_rows_are_basis_vectors():
    # each row of a batch has the bytes of its state's features alone
    spec = BasisSpec(coords=(0, 2))
    states = np.array([[350.0, 1.0, 0.5, 9.0], [0.0, 2.0, -0.0, 7.0], [1e-3, 0.0, 30.0, 0.0]])
    X = basis_matrix(spec, states)
    assert X.flags.c_contiguous and X.shape == (3, 5)
    assert X[0].tolist() == [122500.0, 0.25, 350.0, 0.5, 1.0]
    for row, st in zip(X, states):
        assert row.tobytes() == basis_matrix(spec, [st])[0].tobytes()
    assert basis_matrix(BasisSpec(), states).tolist() == [[1.0]] * 3


def test_training_is_bitwise_deterministic(e1c4):
    a = train(e1c4, TrainConfig(samples=40, seed=5))
    b = train(e1c4, TrainConfig(samples=40, seed=5))
    assert set(a.weights) == set(b.weights)
    for k in a.weights:
        assert np.array_equal(a.weights[k], b.weights[k])


def test_seed_changes_samples_not_quality(e1c1):
    # example 1 tail targets are state-independent, so any seed trains an
    # exact model and the rollout matches the oracle
    want = schedule_text(enumerate_optimal(e1c1).schedule)
    for seed in (0, 1, 99):
        m = train(e1c1, TrainConfig(samples=20, seed=seed))
        rep = simulate(e1c1, m)
        assert schedule_text(rep.schedule) == want


def _tail_value(model, t, mode, dispatch):
    """Jhat_t at one dispatch state entering t from `mode`."""
    return _tail_values(model, t, np.array([mode_to_int(mode)]), np.array([dispatch]))[0]


def test_value_matches_exact_tails(e1c1, model_e1c1, drawn_states):
    for t, i_prev, p_prev in drawn_states(e1c1, 1, count=3, seed=2):
        want, _ = enumerate_tail(e1c1, t, i_prev, p_prev)
        assert _tail_value(model_e1c1, t, i_prev, p_prev) == pytest.approx(want, abs=1e-6)


def test_value_beyond_horizon(model_e1c1, e1c1):
    assert _tail_value(model_e1c1, e1c1.horizon + 1, (1, 1), np.zeros(4)) == 0.0


def test_missing_state_raises(model_e1c1):
    with pytest.raises(ModelMismatchError, match="t=3, I_prev=00"):
        # period 3 never has (0, 0) as a feasible previous mode
        _tail_value(model_e1c1, 3, (0, 0), np.zeros(4))


def test_closed_loop_matches_oracle_from_both_starts(e1c1, model_e1c1):
    # rollout from the stock initial state
    rep = simulate(e1c1, model_e1c1)
    assert schedule_text(rep.schedule) == "122333"
    # and from the flipped one, without retraining
    i_prev, p_prev = (1, 0), np.array([200.0, 0.0, 0.0, 0.0])
    seq = []
    for t in range(1, e1c1.horizon + 1):
        mode, disp = schedule_step(model_e1c1, e1c1, t, i_prev, p_prev)
        seq.append(mode)
        i_prev, p_prev = mode, disp
    flipped = dataclasses.replace(
        e1c1, initial_commitment=(1, 0), initial_dispatch=(200.0, 0.0, 0.0, 0.0)
    )
    want = enumerate_optimal(flipped)
    assert schedule_text(seq) == schedule_text(want.schedule)


def test_closed_loop_from_grid_of_states(e1c1, model_e1c1):
    # 5x5 grid of dispatch states entering t=2: scheduler tail must match
    # the exact tail value from every state
    for p1 in np.linspace(150.0, 600.0, 5):
        for p2 in np.linspace(100.0, 400.0, 5):
            state = np.array([p1, p2, 0.0, 0.0])
            exact_cost, exact_modes = enumerate_tail(e1c1, 2, (1, 1), state)
            i_prev, p_prev = (1, 1), state
            acc = 0.0
            from ucdkit.costs import running_cost, switching_cost

            for t in range(2, e1c1.horizon + 1):
                mode, disp = schedule_step(model_e1c1, e1c1, t, i_prev, p_prev)
                acc += running_cost(e1c1, mode, disp) + switching_cost(
                    e1c1, i_prev, mode
                )
                i_prev, p_prev = mode, disp
            assert acc == pytest.approx(exact_cost, abs=1e-4)


def test_case4_closed_loop(e1c4, model_e1c4):
    rep = simulate(e1c4, model_e1c4)
    assert schedule_text(rep.schedule) == "133333"


def test_ties_break_to_smallest_mode_int(e1c1, model_e1c1):
    # at t=1 modes (0,1) and (1,0) both feasible; if costs tie the winner
    # must be (0,1). Build a fleet of twins so the tie is structural.
    twin = e1c1.units[0]
    s = dataclasses.replace(
        e1c1,
        units=(twin, twin),
        initial_commitment=(0, 0),
        initial_dispatch=(0.0, 0.0, 0.0, 0.0),
        periods=tuple(
            dataclasses.replace(p, demand=300.0) for p in e1c1.periods
        ),
        name="twins",
    )
    m = train(s, TrainConfig(samples=10))
    mode, _ = schedule_step(m, s, 1, (0, 0), np.zeros(4))
    assert mode == (0, 1)
    res = enumerate_optimal(s)
    assert res.schedule.modes[0] == (0, 1)  # oracle agrees on the tie


def test_model_round_trip_bitwise(e1c4, model_e1c4, tmp_path):
    path = tmp_path / "m.json"
    save_model(model_e1c4, path)
    back = load_model(path, scenario=e1c4)
    assert back.fingerprint == model_e1c4.fingerprint
    assert back.basis == model_e1c4.basis
    assert set(back.weights) == set(model_e1c4.weights)
    for k in back.weights:
        assert np.array_equal(back.weights[k], model_e1c4.weights[k])


def test_fingerprint_guard(e1c1, e1c4, model_e1c1, tmp_path):
    path = tmp_path / "m.json"
    save_model(model_e1c1, path)
    with pytest.raises(ModelMismatchError, match="different scenario"):
        load_model(path, scenario=e1c4)
    forced = load_model(path, scenario=e1c4, force=True)
    assert forced.horizon == model_e1c1.horizon


def test_version_guard(model_e1c1, tmp_path):
    path = tmp_path / "m.json"
    save_model(model_e1c1, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelMismatchError, match="version"):
        load_model(path)


@pytest.mark.parametrize("edit", [
    {"n_units": 3, "basis": {"family": "quad", "coords": [0, 4]}},
    {"horizon": 7},
], ids=["n_units", "horizon"])
def test_model_of_another_shape_is_refused_even_with_force(edit, e1c1, model_e1c1,
                                                         tmp_path):
    path = tmp_path / "m.json"
    save_model(model_e1c1, path)
    doc = {**json.loads(path.read_text()), **edit}
    path.write_text(json.dumps(doc))
    for force in (False, True):
        with pytest.raises(ModelMismatchError, match="the scenario has 2 over 6"):
            load_model(path, scenario=e1c1, force=force)
    # with no scenario there is nothing to check the shape against
    back = load_model(path)
    assert (back.n_units, back.horizon) == (doc["n_units"], doc["horizon"])


@pytest.mark.parametrize("edit", [{"horizon": 1}, {"n_units": 3}], ids=["horizon", "n_units"])
def test_decisions_refuse_a_model_of_another_shape(edit, e1c4, model_e1c4):
    # a model made in code has not been through load_model; simulate and
    # schedule_step check its shape against the scenario all the same
    model = dataclasses.replace(model_e1c4, **edit)
    with pytest.raises(ModelMismatchError, match="the scenario has 2 over 6"):
        simulate(e1c4, model)
    with pytest.raises(ModelMismatchError, match="the scenario has 2 over 6"):
        schedule_step(model, e1c4, 1, e1c4.initial_commitment, e1c4.initial_dispatch)


def test_negative_seed_is_refused(e1c1):
    with pytest.raises(UcdError, match="seed must be >= 0"):
        train(e1c1, TrainConfig(seed=-1))


MALFORMED = {
    "not-a-model": lambda doc: {"hello": 1},
    "not-utf8": lambda doc: b"\xff\xfe{",
    "not-an-object": lambda doc: [],
    "no-basis": lambda doc: {k: v for k, v in doc.items() if k != "basis"},
    "short-weights": lambda doc: {**doc, "weights": {k: w[:2] for k, w in
                                                     doc["weights"].items()}},
    "nan-weight": lambda doc: {**doc, "weights": {"1:1": [float("nan")] * 5}},
    "bad-weight-key": lambda doc: {**doc, "weights": {"1-1": [0.0] * 5}},
    "huge-weight-key": lambda doc: {**doc, "weights": {"1" * 5000 + ":1": [0.0] * 5}},
    "int-weight": lambda doc: {**doc, "weights": {"1:1": [0.0] * 4 + [10**400]}},
    "cubic-basis": lambda doc: {**doc, "basis": {**doc["basis"], "family": "cubic"}},
    "string-horizon": lambda doc: {**doc, "horizon": "6"},
    # a shape its weights leave: a horizon cut to 1 would price every
    # tail past t=1 at 0
    "horizon-cut": lambda doc: {**doc, "horizon": 1},
    "no-periods": lambda doc: {**doc, "horizon": 0},
    "no-units": lambda doc: {**doc, "n_units": 0},
    "period-0": lambda doc: {**doc, "weights": {**doc["weights"], "0:1": doc["weights"]["1:1"]}},
    "period-7": lambda doc: {**doc, "weights": {**doc["weights"], "7:1": doc["weights"]["1:1"]}},
    "mode-4": lambda doc: {**doc, "weights": {**doc["weights"], "1:4": doc["weights"]["1:1"]}},
}


@pytest.mark.parametrize("case", MALFORMED)
def test_not_a_model_document(case, model_e1c1, tmp_path):
    p = tmp_path / "m.json"
    save_model(model_e1c1, p)
    bad = MALFORMED[case](json.loads(p.read_text()))
    p.write_bytes(bad if isinstance(bad, bytes) else json.dumps(bad).encode())
    with pytest.raises(ModelMismatchError):
        load_model(p)


def test_training_needs_samples(e1c1):
    with pytest.raises(UcdError):
        train(e1c1, TrainConfig(samples=0))


def test_ridge_regularization_trains(e1c1):
    m = train(e1c1, TrainConfig(samples=30, regularization=1e-6))
    rep = simulate(e1c1, m)
    assert schedule_text(rep.schedule) == "122333"


def test_training_with_ramps_samples_per_state(e1c1):
    # with ramps enforced the fast path is unavailable; targets are
    # evaluated per sampled state and fits still drive a sane rollout
    ramped = dataclasses.replace(e1c1.units[0], ramp_up=400.0, ramp_down=400.0)
    s = dataclasses.replace(e1c1, units=(ramped, e1c1.units[1]),
                            ramp_enforced=True, name="e1_ramped")
    m = train(s, TrainConfig(samples=25, seed=3))
    rep = simulate(s, m)
    exact = enumerate_optimal(s)
    assert rep.total_cost <= exact.total_cost + 200.0  # near-optimal rollout


# --- the model's stage table -------------------------------------------


def _count_rows(monkeypatch, relaxed_only=False):
    """Calls of the stage-row solver: one per ramp-relaxed row solved
    (no previous dispatch) and, unless relaxed_only, one per ramped
    candidate set re-solved."""
    calls = []
    solved = ucdkit.oracle._solved

    def counting(s, t, prev, modes):
        if prev is None or not relaxed_only:
            calls.append(t)
        return solved(s, t, prev, modes)

    monkeypatch.setattr(ucdkit.oracle, "_solved", counting)
    return calls


def _ramped_e1c1(e1c1, limit=400.0):
    ramped = dataclasses.replace(e1c1.units[0], ramp_up=limit, ramp_down=limit)
    return dataclasses.replace(e1c1, units=(ramped, e1c1.units[1]),
                               ramp_enforced=True, name="e1_ramped")


def _same_decision(a, b):
    return a[0] == b[0] and a[1].tobytes() == b[1].tobytes()


def test_decisions_after_training_solve_no_rows(e2c1, monkeypatch):
    model = train(e2c1)
    calls = _count_rows(monkeypatch)
    i_prev, p_prev = e2c1.initial_commitment, np.asarray(e2c1.initial_dispatch)
    for t in range(1, e2c1.horizon + 1):
        i_prev, p_prev = schedule_step(model, e2c1, t, i_prev, p_prev)
    assert calls == []


def test_loaded_model_solves_a_period_once(e1c1, model_e1c1, tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    save_model(model_e1c1, path)
    model = load_model(path, scenario=e1c1)
    calls = _count_rows(monkeypatch)
    first = schedule_step(model, e1c1, 3, (1, 0), np.array([300.0, 0.0, 0.0, 0.0]))
    again = schedule_step(model, e1c1, 3, (0, 1), np.array([0.0, 200.0, 0.0, 0.0]))
    assert calls == [3]
    for got, i_prev, p_prev in ((first, (1, 0), [300.0, 0.0, 0.0, 0.0]),
                                (again, (0, 1), [0.0, 200.0, 0.0, 0.0])):
        assert _same_decision(got, decide(model, Stages(e1c1), 3, i_prev, p_prev))


def test_non_binary_previous_modes_are_rejected(e1c1, model_e1c1):
    # int() would read (1.9, 0.2) as (1, 0), and (2, 0) would index past
    # the switching table; both entry points check the entries first
    p_prev = np.array([300.0, 0.0, 0.0, 0.0])
    for bad in [(1.9, 0.2), (2, 0), (1, -1), (0.5, 1)]:
        with pytest.raises(ValueError, match="0 or 1"):
            enumerate_tail(e1c1, 3, bad, p_prev)
        with pytest.raises(ValueError, match="0 or 1"):
            schedule_step(model_e1c1, e1c1, 3, bad, p_prev)
    # booleans and integral floats are binary entries, as in `assemble`
    want = enumerate_tail(e1c1, 3, (1, 0), p_prev)
    for ok in [(True, False), (1.0, 0.0), np.array([1, 0])]:
        assert enumerate_tail(e1c1, 3, ok, p_prev) == want
        assert _same_decision(schedule_step(model_e1c1, e1c1, 3, ok, p_prev),
                              schedule_step(model_e1c1, e1c1, 3, (1, 0), p_prev))


def test_wrong_length_previous_modes_are_rejected(e1c1, model_e1c1):
    # (1, 0, 1) would read as mode 5 and (1,) as (0, 1): both entry points
    # check the length before a mode int is formed
    p_prev = np.array([300.0, 0.0, 0.0, 0.0])
    for bad in [(1,), (1, 0, 1)]:
        with pytest.raises(ValueError, match="2 entries"):
            enumerate_tail(e1c1, 3, bad, p_prev)
        with pytest.raises(ValueError, match="2 entries"):
            schedule_step(model_e1c1, e1c1, 3, bad, p_prev)


def test_a_period_that_is_not_an_integer_is_refused(e1c1, model_e1c1):
    # 2.0 passes a range check, and a table that holds row 2 would read
    # it as period 2; every entry point refuses a t that is not an
    # integer with the ScenarioError of a t outside the horizon
    p_prev = np.array([300.0, 0.0, 0.0, 0.0])
    for bad in (2.5, 2.0, np.float64(2.0), "2", 0, 7):
        for call in (lambda: schedule_step(model_e1c1, e1c1, bad, (1, 0), p_prev),
                     lambda: assemble(e1c1, bad, (1, 0)),
                     lambda: mode_candidates(e1c1, bad)):
            with pytest.raises(ScenarioError, match="not an integer in the horizon 1..6"):
                call()
    want = schedule_step(model_e1c1, e1c1, 2, (1, 0), p_prev)
    for ok in (np.int64(2), np.intp(2)):
        assert _same_decision(schedule_step(model_e1c1, e1c1, ok, (1, 0), p_prev), want)
        assert assemble(e1c1, ok, (1, 0)).h.tobytes() == assemble(e1c1, 2, (1, 0)).h.tobytes()


def test_a_dead_end_names_its_period_and_previous_mode(e1c1_overloaded, model_e1c1):
    # the message names the previous mode, not a commitment at t
    with pytest.raises(UcdError) as e:
        decide(model_e1c1, Stages(e1c1_overloaded), 4, (1, 1), np.array([300.0, 350.0]))
    assert str(e.value) == ("no mode is feasible at t=4 from the state entering it "
                            "(previous mode 11)")


def test_training_refuses_a_period_without_a_feasible_mode(e1c1_overloaded):
    with pytest.raises(UcdError, match="no feasible commitment at period t=4; cannot train"):
        train(e1c1_overloaded)


def test_ramped_decisions_with_a_previous_dispatch_solve_every_time(e1c1, monkeypatch):
    # 400 MW ramps from this state add only rows the unit's box implies,
    # so every relaxed twin is the ramped candidate and nothing is solved
    s = _ramped_e1c1(e1c1)
    model = train(s, TrainConfig(samples=5, seed=3))
    calls = _count_rows(monkeypatch)
    p_prev = np.array([300.0, 200.0, 0.0, 0.0])
    for t in (2, 2, 4):
        schedule_step(model, s, t, (1, 1), p_prev)
    assert calls == []
    # at 100 MW the twin of mode 11 at t=4 runs unit 1 at 500.9 MW, past
    # 300 + 100: that mode is solved under ramps again on every call
    s = _ramped_e1c1(e1c1, limit=100.0)
    model = train(s, TrainConfig(samples=5, seed=3))
    ints, _, dispatches = model.stages_for(s).row(4)
    assert ints.tolist() == [0b11] and dispatches[0, 0] > 400.0
    want = decide(model, Stages(s), 4, (1, 1), p_prev)
    calls.clear()
    for _ in range(2):
        assert _same_decision(schedule_step(model, s, 4, (1, 1), p_prev), want)
    assert calls == [4, 4]
    assert want[1][0] == 400.0


def _count_solves(monkeypatch):
    """Dispatch QPs solved for the stage table, one per mode handed to the
    stage-row solver: ramp-relaxed rows go on through `qp.solve`, ramped
    candidates through the lean path, and both pass here."""
    calls = []
    solved = ucdkit.oracle._solved

    def counting(s, t, prev, modes):
        modes = list(modes)
        calls.extend([t] * len(modes))
        return solved(s, t, prev, modes)

    monkeypatch.setattr(ucdkit.oracle, "_solved", counting)
    return calls


def test_ramped_decisions_solve_only_the_relaxed_row(e1c1, tmp_path, monkeypatch):
    s = _ramped_e1c1(e1c1)
    model = train(s, TrainConfig(samples=5, seed=3))
    ints, _, _ = model.stages_for(s).row(2)
    assert len(ints) < 1 << s.n_units
    solves = _count_solves(monkeypatch)
    p_prev = np.array([300.0, 200.0, 0.0, 0.0])
    warm = schedule_step(model, s, 2, (1, 1), p_prev)
    # every twin in the row meets its ramp rows (see the test above)
    assert solves == []
    # a loaded model's table is empty: its first decision at t solves
    # relaxed row t and no ramped QP, since every twin meets its ramp rows,
    # and the next decision there solves nothing
    path = tmp_path / "m.json"
    save_model(model, path)
    cold = load_model(path, scenario=s)
    solves.clear()
    relaxed = _count_rows(monkeypatch, relaxed_only=True)
    assert _same_decision(schedule_step(cold, s, 2, (1, 1), p_prev), warm)
    assert len(solves) == 1 << s.n_units
    assert relaxed == [2]
    solves.clear()
    assert _same_decision(schedule_step(cold, s, 2, (1, 1), p_prev), warm)
    assert solves == []
    assert relaxed == [2]


def test_report_rows_are_the_callers_to_change(e1c1):
    # every ramped decision here returns a relaxed twin, the table's own
    # array; a report row that held it would let an edit reach the model
    s = _ramped_e1c1(e1c1)
    model = train(s, TrainConfig(samples=5, seed=3))
    first = simulate(s, model)

    def rows(report):
        return [(r["mode"], r["planned"].tobytes(), r["realized"].tobytes())
                for r in report.rows]

    want_rows = rows(first)
    row = first.rows[1]
    state = (row["mode"], row["realized"].copy())
    want = schedule_step(model, s, 3, *state)
    for r in first.rows:
        r["planned"][:] = -1.0
        r["realized"][:] = -1.0
    assert _same_decision(schedule_step(model, s, 3, *state), want)
    assert rows(simulate(s, model)) == want_rows


def test_scored_ramped_override_solves_no_relaxed_row_twice(e1c1, tmp_path,
                                                             monkeypatch):
    s = _ramped_e1c1(e1c1)
    model = train(s, TrainConfig(samples=5, seed=3))
    path = tmp_path / "m.json"
    save_model(model, path)
    row = simulate(s, model).rows[1]
    script = DisturbanceScript(((2, 0.9 * row["realized"]),))
    relaxed = _count_rows(monkeypatch, relaxed_only=True)
    # the trained model's table holds every row already
    warm = simulate(s, model, script)
    assert relaxed == []
    # a loaded model's rollout solves rows 1..T once each as it decides,
    # and the scored tail from t=3 bounds and screens on those same rows
    cold = simulate(s, load_model(path, scenario=s), script)
    assert sorted(relaxed) == list(range(1, s.horizon + 1))
    assert cold.oracle_comparison == warm.oracle_comparison
    (scored,) = warm.oracle_comparison
    assert scored["gap"] is not None and scored["gap"] >= -1e-6


@pytest.mark.parametrize("name", ["example2_case1", "example1_case4"])
def test_shared_table_decides_like_a_fresh_one(name):
    s = ucdkit.load_bundled_scenario(name)
    model = train(s)
    rng = np.random.default_rng(11)
    caps = np.array([u.p_max for u in s.units] + [50.0, 50.0])
    draws = [(int(rng.integers(1, s.horizon + 1)),
              tuple(int(b) for b in rng.integers(0, 2, s.n_units)),
              rng.uniform(0.0, 1.0, s.n_units + 2) * caps)
             for _ in range(60)]
    for k in rng.permutation(len(draws)):
        t, i_prev, p_prev = draws[k]
        got = schedule_step(model, s, t, i_prev, p_prev)
        want = decide(model, Stages(s), t, i_prev, p_prev)
        assert _same_decision(got, want), (t, i_prev)


def test_table_follows_the_scenario_it_decides_on(e1c1):
    shifted = dataclasses.replace(
        e1c1, periods=tuple(dataclasses.replace(p, demand=p.demand + 10.0)
                            for p in e1c1.periods),
        name="e1c1_plus10",
    )
    model = train(e1c1)
    p_prev = np.array([300.0, 0.0, 0.0, 0.0])
    answers = {}
    for s in (e1c1, shifted, e1c1, shifted, shifted, e1c1):
        for t in range(1, s.horizon + 1):
            got = schedule_step(model, s, t, (1, 0), p_prev)
            assert _same_decision(got, decide(model, Stages(s), t, (1, 0), p_prev))
            answers.setdefault(s.name, []).append(got[1].tobytes())
    # a stale table would have shown: the two scenarios dispatch differently
    assert answers[e1c1.name][:6] != answers[shifted.name][:6]


def test_returned_dispatch_is_the_callers_to_change(e1c1):
    model = train(e1c1)
    mode, dispatch = schedule_step(model, e1c1, 4, (1, 1), np.zeros(4))
    want = dispatch.copy()
    dispatch[:] = -1.0
    assert _same_decision(schedule_step(model, e1c1, 4, (1, 1), np.zeros(4)),
                          (mode, want))


def test_deciding_leaves_the_saved_model_unchanged(e1c4, tmp_path):
    model = train(e1c4)
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    save_model(model, before)
    i_prev, p_prev = e1c4.initial_commitment, np.asarray(e1c4.initial_dispatch)
    for t in range(1, e1c4.horizon + 1):
        i_prev, p_prev = schedule_step(model, e1c4, t, i_prev, p_prev)
    save_model(model, after)
    assert before.read_bytes() == after.read_bytes()


def test_model_equals_its_saved_copy_until_a_weight_changes(model_e1c4, e1c4, tmp_path):
    path = tmp_path / "m.json"
    save_model(model_e1c4, path)
    copy = load_model(path, scenario=e1c4)
    assert model_e1c4._stages is not None and copy._stages is None
    assert copy == model_e1c4 and model_e1c4 == copy
    key = next(iter(copy.weights))
    copy.weights[key] = copy.weights[key].copy()
    copy.weights[key][-1] += 1.0
    assert copy != model_e1c4
    assert model_e1c4 != "not a model"
