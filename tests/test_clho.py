"""Value training and closed-loop scheduling."""

import dataclasses
import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucdkit.oracle
import ucdkit.qp
from ucdkit import (
    BasisSpec,
    DisturbanceScript,
    ModelMismatchError,
    ScenarioError,
    TrainConfig,
    UcdError,
    ValueModel,
    assemble,
    default_basis,
    enumerate_optimal,
    enumerate_tail,
    load_bundled_scenario,
    load_model,
    mode_candidates,
    save_model,
    schedule_step,
    schedule_text,
    simulate,
    train,
)
from ucdkit.clho import _tail_values, basis_matrix, decide
from ucdkit.scenario import scenario_fingerprint
from ucdkit.hybrid import mode_to_int
from ucdkit.oracle import Stages

from test_qp import _with_ramps


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


def _weight_bytes(model):
    """Each period's (ints, W) as dtype, shape and bytes, by period."""
    return {t: [(a.dtype, a.shape, a.tobytes()) for a in pair]
            for t, pair in sorted(model.weights.items())}


def test_training_is_bitwise_deterministic(e1c4):
    a = train(e1c4, TrainConfig(samples=40, seed=5))
    b = train(e1c4, TrainConfig(samples=40, seed=5))
    assert _weight_bytes(a) == _weight_bytes(b)


@pytest.mark.parametrize("name, ramps", [
    ("example2_case1", None), ("example1_case4", 0.2),
    # every state sampled entering t=1 from mode 11 was infeasible here,
    # so training raised while it still fitted period 1
    ("example1_case4", 0.1),
], ids=["relaxed", "ramped-0.2", "ramped-0.1"])
def test_train_fits_the_periods_a_decision_reads(name, ramps):
    # a decision at t reads Jhat_{t+1}: periods 2..T, each over the
    # ramp-relaxed feasible modes of t-1
    s = load_bundled_scenario(name)
    if ramps is not None:
        s = _with_ramps(s, ramps)
    model = train(s, TrainConfig(samples=2))
    assert sorted(model.weights) == list(range(2, s.horizon + 1))
    stages = Stages(s)
    for t, (ints, _) in model.weights.items():
        assert ints.tolist() == stages.row(t - 1)[0].tolist()
    keys = [*model.diagnostics["discarded"], *model.diagnostics["rank_deficient"]]
    assert not [k for k in keys if k.startswith("1:")]


def test_a_file_with_period_one_rows_decides_as_one_without(e1c4, model_e1c4, drawn_states,
                                                           tmp_path):
    # files saved while training fitted period 1 hold its rows first;
    # they load, and no decision reads them
    path = tmp_path / "m.json"
    save_model(model_e1c4, path)
    doc = json.loads(path.read_text())
    doc["weights"] = {**{f"1:{ip}": [1e6 * (ip + 1)] * 5 for ip in range(4)},
                      **doc["weights"]}
    doc["diagnostics"]["rank_deficient"][:0] = ["1:0", "1:1", "1:2"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc, indent=1) + "\n")
    new, held = load_model(path, scenario=e1c4), load_model(old, scenario=e1c4)
    assert sorted(held.weights) == [1, *sorted(new.weights)]
    for t, i_prev, p_prev in drawn_states(e1c4, 1, count=2, seed=4):
        want = schedule_step(new, e1c4, t, i_prev, p_prev)
        got = schedule_step(held, e1c4, t, i_prev, p_prev)
        assert (got[0], got[1].tobytes()) == (want[0], want[1].tobytes())
    script = DisturbanceScript.parse(["t=2:200,150"])
    for sc in (None, script):
        assert (json.dumps(simulate(e1c4, held, sc).to_dict())
                == json.dumps(simulate(e1c4, new, sc).to_dict()))


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
    # from t=2, the first period whose tail a decision reads
    for t, i_prev, p_prev in drawn_states(e1c1, 2, count=3, seed=2):
        want, _ = enumerate_tail(e1c1, t, i_prev, p_prev)
        assert _tail_value(model_e1c1, t, i_prev, p_prev) == pytest.approx(want, abs=1e-6)


def test_value_beyond_horizon(model_e1c1, e1c1):
    assert _tail_value(model_e1c1, e1c1.horizon + 1, (1, 1), np.zeros(4)) == 0.0


def test_missing_state_raises(model_e1c1):
    with pytest.raises(ModelMismatchError, match="t=3, I_prev=00"):
        # period 3 never has (0, 0) as a feasible previous mode
        _tail_value(model_e1c1, 3, (0, 0), np.zeros(4))


def test_absent_rows_name_the_first_one():
    # candidates the period's ints do not cover raise for their first
    # absent row, wherever it lies: before, between or past the stored
    # rows, or in a period that holds none
    model = ValueModel(basis=BasisSpec(), horizon=3, n_units=3,
                       weights={2: (np.array([1, 3, 5]), np.array([[1.0], [2.0], [3.0]]))},
                       fingerprint="", seed=0, samples=1, regularization=0.0)
    for t, ints, absent in ((2, [0, 1], "000"), (2, [1, 2, 3, 4], "010"),
                            (2, [3, 5, 6, 7], "110"), (3, [3, 5], "011")):
        with pytest.raises(ModelMismatchError, match=f"no weights for t={t}, I_prev={absent}$"):
            _tail_values(model, t, np.array(ints), np.zeros((len(ints), 5)))
    assert _tail_values(model, 2, np.array([1, 5]), np.zeros((2, 5))).tolist() == [1.0, 3.0]


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
    assert _weight_bytes(back) == _weight_bytes(model_e1c4)


# sha256 of save_model's bytes. Each is the file written while training
# still fitted period 1, with its "1:*" keys taken out of `weights`,
# `diagnostics.discarded` and `diagnostics.rank_deficient` and dumped the
# same way: no other byte moved. Like KERNEL_GOLDEN in test_qp.py, they
# follow the numpy/LAPACK build, whose least-squares fits give the
# weights' last bits.
SAVED_MODEL_GOLDEN = {
    "example1_case4": "854c2015dab95cb3702ab2cef02a1cc2de14d9f149f7a373ec08108bb2b95745",
    "example2_case1": "3b02096e99a0aceaebe5209f8026662ccefb21cb9158579b197316b708c26170",
    "example2_case1_ramps0.5": "5a3714cf3288c0de47bb1e9728551e616e79c542455a11d1b6ee2b36c4537b13",
}


def test_saved_model_bytes_are_pinned(tmp_path):
    e2c1 = load_bundled_scenario("example2_case1")
    cases = {
        "example1_case4": (load_bundled_scenario("example1_case4"), TrainConfig()),
        "example2_case1": (e2c1, TrainConfig(samples=20, seed=1)),
        "example2_case1_ramps0.5": (_with_ramps(e2c1, 0.5), TrainConfig(samples=2)),
    }
    got = {}
    for name, (s, cfg) in cases.items():
        path = tmp_path / f"{name}.json"
        save_model(train(s, cfg), path)
        got[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == SAVED_MODEL_GOLDEN


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


@pytest.mark.parametrize("config", [
    TrainConfig(seed=True), TrainConfig(regularization=True), TrainConfig(samples=2.5),
    TrainConfig(samples=3.0), TrainConfig(seed=1.5), TrainConfig(samples="3"),
    TrainConfig(samples=np.int64(3)), TrainConfig(regularization=np.float32(0.0)),
])
def test_configs_load_model_could_not_read_back_are_refused(e1c1, config):
    with pytest.raises(UcdError, match="must be an int|must be a number"):
        train(e1c1, config)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 3, True, 2.5, 3.0, "3", None, np.int64(2), 0, -1]),
       st.sampled_from([0, 7, 2**70, True, False, 1.5, -1, np.int64(2), "1", None]),
       st.sampled_from([0.0, 0, 1e-6, 1, np.float64(1e-6), True, False, float("nan"),
                        float("inf"), -1.0, np.float32(0.0), "0", None]))
def test_every_config_train_accepts_round_trips(e1c1, samples, seed, regularization):
    # whatever `train` accepts, `save_model` writes and `load_model`
    # reads back as the same model; the rest raises UcdError
    try:
        model = train(e1c1, TrainConfig(samples=samples, seed=seed,
                                        regularization=regularization))
    except UcdError:
        return
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.json")
        save_model(model, path)
        assert load_model(path, scenario=e1c1) == model


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
    "period-0": lambda doc: {**doc, "weights": {**doc["weights"], "0:1": doc["weights"]["2:1"]}},
    "period-7": lambda doc: {**doc, "weights": {**doc["weights"], "7:1": doc["weights"]["2:1"]}},
    "mode-4": lambda doc: {**doc, "weights": {**doc["weights"], "2:4": doc["weights"]["2:1"]}},
    # a mode int past 63 bits would not fit the intp a period's ints hold
    "mode-2^64": lambda doc: {**doc, "n_units": 70,
                              "weights": {f"2:{2**64}": doc["weights"]["2:1"]}},
    "int-diagnostics": lambda doc: {**doc, "diagnostics": 5},
    "list-diagnostics": lambda doc: {**doc, "diagnostics": [1, 2]},
    "string-diagnostics": lambda doc: {**doc, "diagnostics": "x"},
    "null-diagnostics": lambda doc: {**doc, "diagnostics": None},
}


@pytest.mark.parametrize("case", MALFORMED)
def test_not_a_model_document(case, model_e1c1, tmp_path):
    p = tmp_path / "m.json"
    save_model(model_e1c1, p)
    bad = MALFORMED[case](json.loads(p.read_text()))
    p.write_bytes(bad if isinstance(bad, bytes) else json.dumps(bad).encode())
    with pytest.raises(ModelMismatchError):
        load_model(p)


def test_missing_diagnostics_load_as_empty(model_e1c1, tmp_path):
    p = tmp_path / "m.json"
    save_model(model_e1c1, p)
    doc = json.loads(p.read_text())
    del doc["diagnostics"]
    p.write_text(json.dumps(doc))
    assert load_model(p).diagnostics == {}


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
    # it as period 2, as True would read as period 1; every entry point
    # refuses a t that is not an integer with the ScenarioError of a t
    # outside the horizon
    p_prev = np.array([300.0, 0.0, 0.0, 0.0])
    table = Stages(e1c1)
    table.row(2)
    for bad in (2.5, 2.0, np.float64(2.0), "2", 0, 7, True):
        for call in (lambda: schedule_step(model_e1c1, e1c1, bad, (1, 0), p_prev),
                     lambda: decide(model_e1c1, table, bad, (1, 0), p_prev),
                     lambda: assemble(e1c1, bad, (1, 0)),
                     lambda: mode_candidates(e1c1, bad)):
            with pytest.raises(ScenarioError, match="not an integer in the horizon 1..6"):
                call()
    want = schedule_step(model_e1c1, e1c1, 2, (1, 0), p_prev)
    for ok in (np.int64(2), np.intp(2)):
        assert _same_decision(schedule_step(model_e1c1, e1c1, ok, (1, 0), p_prev), want)
        assert assemble(e1c1, ok, (1, 0)).h.tobytes() == assemble(e1c1, 2, (1, 0)).h.tobytes()


def test_a_dead_end_names_its_period_and_previous_mode(e1c1_overloaded, model_e1c1,
                                                       tmp_path, monkeypatch):
    # the message names the previous mode, not a commitment at t
    want = "no mode is feasible at t=4 from the state entering it (previous mode 11)"
    p_prev = np.array([300.0, 350.0])
    with pytest.raises(UcdError) as e:
        decide(model_e1c1, Stages(e1c1_overloaded), 4, (1, 1), p_prev)
    assert str(e.value) == want
    # a loaded model's own table decides there by its floors: no
    # candidate's box reaches the demand, so none is solved
    path = tmp_path / "m.json"
    save_model(dataclasses.replace(model_e1c1, fingerprint=scenario_fingerprint(e1c1_overloaded)),
               path)
    loaded = load_model(path, scenario=e1c1_overloaded)
    stages = loaded.stages_for(e1c1_overloaded)
    assert stages.pending(4) is not None
    solves = _count_solves(monkeypatch)
    with pytest.raises(UcdError) as e:
        decide(loaded, stages, 4, (1, 1), p_prev)
    assert str(e.value) == want
    assert solves == []
    # a mode solved alone joins the row a full-row reader builds, which
    # is `_solved`'s, empty here
    assert stages.mode(4, 0b11) is None
    want_row = ucdkit.qp._solved(e1c1_overloaded, 4, None, stages.pending(4).tolist())
    assert [(a.dtype, a.shape) for a in stages.row(4)] == [(a.dtype, a.shape) for a in want_row]
    assert stages.row(4)[2].shape == (0, 4)


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
    # relaxed row t over the previous modes trained at t+1 and no ramped
    # QP, since every twin meets its ramp rows, and the next decision
    # there solves nothing
    path = tmp_path / "m.json"
    save_model(model, path)
    cold = load_model(path, scenario=s)
    solves.clear()
    relaxed = _count_rows(monkeypatch, relaxed_only=True)
    assert _same_decision(schedule_step(cold, s, 2, (1, 1), p_prev), warm)
    assert len(solves) == len(cold.weights[3][0]) == 3
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


def _relaxed_rows(monkeypatch):
    """t -> the mode ints of each ramp-relaxed row the stage-row solver
    is handed at t, in call order."""
    rows = {}
    solved = ucdkit.oracle._solved

    def counting(s, t, prev, modes):
        modes = list(modes)
        if prev is None:
            rows.setdefault(t, []).append(modes)
        return solved(s, t, prev, modes)

    monkeypatch.setattr(ucdkit.oracle, "_solved", counting)
    return rows


def _outcome(call, *args):
    """A decision as (mode, dispatch bytes), or the UcdError it raised."""
    try:
        mode, dispatch = call(*args)
    except UcdError as exc:
        return type(exc).__name__, str(exc)
    return mode, dispatch.tobytes()


def _report(s, model, script):
    """A rollout's report as JSON text, or the UcdError it raised."""
    try:
        return json.dumps(simulate(s, model, script).to_dict())
    except UcdError as exc:
        return type(exc).__name__, str(exc)


# the modes that the relaxed case's decisions solve at each period, in
# solve order: 41 solves, where full rows over the trained modes took 188
_BOUNDED_SOLVES = {
    1: [24], 2: [24], 3: [24], 4: [24], 5: [24], 6: [26], 7: [26], 8: [25, 26, 28],
    9: [27, 29, 30], 10: [27, 31, 29], 11: [31], 12: [31], 13: [27, 29, 31],
    14: [27, 30, 29], 15: [26, 28], 16: [24], 17: [24], 18: [26, 25, 28],
    19: [25, 30, 27], 20: [31], 21: [30], 22: [26, 28], 23: [24], 24: [22, 24],
}


@pytest.mark.parametrize("name, ramps, samples", [
    ("example2_case1", None, 20), ("example1_case4", 0.2, 100),
], ids=["relaxed", "ramped-0.2"])
def test_loaded_model_solves_only_its_trained_modes(name, ramps, samples, drawn_states,
                                                    tmp_path, monkeypatch):
    s = load_bundled_scenario(name)
    if ramps is not None:
        s = _with_ramps(s, ramps)
    model = train(s, TrainConfig(samples=samples))
    path = tmp_path / "m.json"
    save_model(model, path)
    cold = load_model(path, scenario=s)
    states = drawn_states(s, 1, count=2, seed=5)
    rows = _relaxed_rows(monkeypatch)
    for t, i_prev, p_prev in states:
        assert (_outcome(schedule_step, cold, s, t, i_prev, p_prev)
                == _outcome(schedule_step, model, s, t, i_prev, p_prev)), (t, i_prev)
    # row t < T over the previous modes trained at t+1, row T in full,
    # each solved once; the trained model's table solved nothing
    want = {t: [cold.weights[t + 1][0].tolist()] for t in range(1, s.horizon)}
    want[s.horizon] = [list(range(1 << s.n_units))]
    if ramps is None:
        # with ramps relaxed the decisions are bounded: they solve one
        # mode at a time, in floor order, and only the candidates that
        # their floors cannot rule out, each once
        assert rows == {t: [[v] for v in modes] for t, modes in _BOUNDED_SOLVES.items()}
        assert all(set(modes) <= set(want[t][0]) for t, modes in _BOUNDED_SOLVES.items())
    else:
        assert rows == want
    override = [0.5 * (u.p_min + u.p_max) for u in s.units]
    for script in (None, DisturbanceScript(((3, override),))):
        assert _report(s, cold, script) == _report(s, model, script)

    # fallbacks that still solve every row in full: a forced load on a
    # scenario with one period's demand changed, and a hand-built model
    # of no fingerprint; each decides as a table of full rows does
    periods = list(s.periods)
    periods[2] = dataclasses.replace(periods[2], demand=periods[2].demand + 5.0)
    moved = dataclasses.replace(s, periods=tuple(periods))
    forced = load_model(path, scenario=moved, force=True)
    bare = ValueModel(basis=cold.basis, horizon=cold.horizon, n_units=cold.n_units,
                      weights=cold.weights, fingerprint="", seed=0, samples=1,
                      regularization=0.0)
    for m, sc in ((forced, moved), (bare, s)):
        rows.clear()
        for t, i_prev, p_prev in states:
            assert (_outcome(schedule_step, m, sc, t, i_prev, p_prev)
                    == _outcome(decide, m, Stages(sc), t, i_prev, p_prev)), (t, i_prev)
        full = list(range(1 << s.n_units))
        assert {t: r[0] for t, r in rows.items()} == dict.fromkeys(range(1, s.horizon + 1), full)


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
    t = next(iter(copy.weights))
    ints, W = copy.weights[t]
    W = W.copy()
    W[0, -1] += 1.0
    copy.weights[t] = (ints, W)
    assert copy != model_e1c4
    copy.weights[t] = (ints[:-1], W[:-1])
    assert copy != model_e1c4
    assert model_e1c4 != "not a model"
