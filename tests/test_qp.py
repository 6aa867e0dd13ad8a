"""Dispatch QP: assembly, solutions, certificates, the kernel's pivoting path."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

from ucdkit import (
    InfeasibleModeError,
    QpNumericalError,
    Schedule,
    TrainConfig,
    assemble,
    enumerate_tail,
    int_to_mode,
    kkt_residual,
    load_bundled_scenario,
    mode_candidates,
    mode_dynamics,
    mode_to_int,
    save_model,
    schedule_step,
    solve,
    train,
)
import ucdkit
from ucdkit import KKT_TOL
from ucdkit._kernels import PIVOT_TOL
from ucdkit import _kernels
from ucdkit.cli import main


def test_interior_split_at_700(e1c1):
    sol = solve(assemble(e1c1, 4, (1, 1)))
    assert sol.status == "optimal"
    # equal marginal cost split: 2*a1*p1 + b1 = 2*a2*p2 + b2, p1 + p2 = 700
    assert sol.dispatch[0] == pytest.approx(500.8928571428571, abs=1e-6)
    assert sol.dispatch[1] == pytest.approx(199.1071428571429, abs=1e-6)
    assert sol.kkt <= KKT_TOL


def test_single_unit_carries_demand(e1c1):
    sol = solve(assemble(e1c1, 1, (0, 1)))
    assert sol.dispatch[1] == pytest.approx(200.0)
    assert sol.dispatch[0] == 0.0  # eliminated, not merely near zero


def test_capacity_clamp_active(e1c1):
    sol = solve(assemble(e1c1, 2, (1, 1)))  # demand 350, p2 pinned at p_min
    assert sol.dispatch[1] == pytest.approx(100.0)
    assert sol.dispatch[0] == pytest.approx(250.0)
    assert "cap_lo[1]" in sol.active_set


def test_infeasible_mode_certificate(e1c1):
    sol = solve(assemble(e1c1, 4, (0, 1)))  # 700 MW > unit 2 alone
    assert sol.status == "infeasible"
    assert sol.certificate["row"] == "cap_hi[1]"
    assert sol.certificate["violation"] == pytest.approx(300.0, abs=1e-6)


def test_all_off_infeasible_under_load(e1c1):
    sol = solve(assemble(e1c1, 1, (0, 0)))
    assert sol.status == "infeasible"


def test_mode_dynamics_raises_on_infeasible(e1c1):
    with pytest.raises(InfeasibleModeError, match="t=4"):
        mode_dynamics(e1c1, 4, (0, 1))


def test_feasible_mode_sets(e1c1):
    as_text = lambda cands: {"".join(map(str, m)) for m, _, _ in cands}
    assert as_text(mode_candidates(e1c1, 1)) == {"01", "10"}   # 200 MW
    assert as_text(mode_candidates(e1c1, 2)) == {"01", "10", "11"}  # 350 MW
    assert as_text(mode_candidates(e1c1, 4)) == {"11"}         # 700 MW


def test_uncommitted_coordinates_do_not_leak(e2c1):
    sol = solve(assemble(e2c1, 3, (1, 1, 0, 0, 0)))
    assert sol.status == "optimal"
    assert sol.dispatch[2] == 0.0
    assert sol.dispatch[3] == 0.0
    assert sol.dispatch[4] == 0.0


def test_balance_holds_with_resources(e2c1):
    sol = solve(assemble(e2c1, 12, (1, 1, 1, 1, 1)))
    assert sol.status == "optimal"
    assert float(np.sum(sol.dispatch)) == pytest.approx(1500.0, abs=1e-7)
    assert sol.kkt <= KKT_TOL


def test_penetration_cap_binds_when_dg_cheap(e2c1):
    # DG marginal cost is far below thermal, so without the cap it would
    # absorb far more than the 5% share
    sol = solve(assemble(e2c1, 12, (1, 1, 1, 1, 1)))
    dg = sol.dispatch[5]
    thermal = float(np.sum(sol.dispatch[:5]))
    assert dg <= e2c1.eta_max * (thermal + dg) + 1e-6
    assert "penetration" in sol.active_set


def test_dg_never_exceeds_cap(e2c1):
    for t in (6, 9, 12, 15):
        sol = solve(assemble(e2c1, t, (1, 1, 1, 1, 1)))
        assert sol.dispatch[5] <= e2c1.period(t).dg_max + 1e-9


def test_ramp_rows_only_when_enforced(e1c1, e2c1):
    import dataclasses

    base = e2c1.units[0]
    ramped = dataclasses.replace(base, ramp_up=50.0, ramp_down=60.0)
    s = dataclasses.replace(
        e2c1,
        units=(ramped,) + e2c1.units[1:],
        ramp_enforced=True,
    )
    prev = np.array([400.0, 200.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    q = assemble(s, 2, (1, 1, 0, 0, 0), prev)
    assert "ramp_up[0]" in q.labels and "ramp_dn[0]" in q.labels
    # unit 2 has no ramp limits; unit starting from 0 gets no rows either
    assert not any(lbl.startswith("ramp") and "[1]" in lbl for lbl in q.labels)
    sol = solve(q)
    assert sol.dispatch[0] <= 450.0 + 1e-9
    assert sol.dispatch[0] >= 340.0 - 1e-9
    # relaxed assembly ignores the flag
    q_rel = assemble(s, 2, (1, 1, 0, 0, 0), None)
    assert not any(lbl.startswith("ramp") for lbl in q_rel.labels)


def test_ramp_window_can_cut_off_mode(e1c1):
    import dataclasses

    ramped = dataclasses.replace(e1c1.units[0], ramp_up=100.0)
    s = dataclasses.replace(e1c1, units=(ramped, e1c1.units[1]), ramp_enforced=True)
    # unit 1 at 150 cannot reach 300 in one step if unit 2 is off at t=4
    prev = np.array([150.0, 550.0, 0.0, 0.0])
    sol = solve(assemble(s, 4, (1, 0), prev))
    assert sol.status == "infeasible"


def _idle(e1c1, reserve_lo):
    """example1_case1 with period 1 at 1e-10 MW of demand, reserve_lo as
    given and reserve_hi, DG and DR at 0: its all-off mode, with nothing
    to dispatch, is an optimum whose balance and reserve_hi row hold only
    within FEAS_TOL, and so does its reserve_lo row when reserve_lo is
    above 1e-10."""
    period = dataclasses.replace(e1c1.periods[0], demand=1e-10, reserve_lo=reserve_lo,
                                 reserve_hi=0.0, dg_max=0.0, dr_max=0.0)
    return dataclasses.replace(e1c1, periods=(period,) + e1c1.periods[1:])


def test_kkt_residual_recomputable(e2c2, e1c1):
    q = assemble(e2c2, 9, (1, 1, 1, 0, 1))
    sol = solve(q)
    assert sol.status == "optimal"
    assert kkt_residual(q, sol) == pytest.approx(sol.kkt, abs=1e-12)
    # an idle optimum reports the balance and the rows of h that it
    # meets only within FEAS_TOL, on both
    for reserve_lo, want in ((0.0, 1e-10), (6e-10, 6e-10 - 1e-10)):
        q = assemble(_idle(e1c1, reserve_lo), 1, (0, 0))
        sol = solve(q)
        assert q.n_free == 0 and sol.status == "optimal"
        assert sol.kkt == kkt_residual(q, sol) == want


def _same_field(a, b):
    if isinstance(a, np.ndarray):
        return (type(b) is np.ndarray and (a.dtype, a.shape) == (b.dtype, b.shape)
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


def test_problems_and_solutions_are_whole_frozen_dataclasses(e1c1):
    # assemble and solve fill each record's __dict__ directly, so check
    # that every field is there and that the record behaves as one its
    # dataclass __init__ made: replace() copies it, repr is the same,
    # and no field can be set
    cases = [(e1c1, 4, (1, 1), "optimal"), (e1c1, 4, (0, 1), "infeasible"),
             (_idle(e1c1, 0.0), 1, (0, 0), "optimal"), (e1c1, 1, (0, 0), "infeasible")]
    for s, t, mode, status in cases:
        q = assemble(s, t, mode)
        sol = solve(q)
        assert sol.status == status
        for obj in (q, sol):
            fields = dataclasses.fields(obj)
            assert set(vars(obj)) == {f.name for f in fields}
            copy = dataclasses.replace(obj)
            for f in fields:
                # a replaced problem has no template (see qp)
                want = None if f.name == "rows" else getattr(obj, f.name)
                assert _same_field(getattr(copy, f.name), want), (mode, f.name)
            assert repr(obj) == repr(copy)
            for f in fields:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, getattr(obj, f.name))
        assert q.rows is not None


def test_solution_unique_under_row_permutation(e2c1):
    # same constraint set in a different row order must give the same point
    q = assemble(e2c1, 12, (1, 1, 1, 1, 1))
    sol = solve(q)
    perm = np.random.default_rng(3).permutation(len(q.h))
    import dataclasses

    q2 = dataclasses.replace(
        q,
        G=q.G[perm],
        h=q.h[perm],
        labels=tuple(q.labels[i] for i in perm),
    )
    sol2 = solve(q2)
    assert np.allclose(sol.dispatch, sol2.dispatch, atol=1e-6)
    assert sol.objective_value == pytest.approx(sol2.objective_value, abs=1e-6)


def test_dispatch_stable_under_demand_nudge(e2c1):
    # strictly convex QP: the minimizer moves O(delta) for a demand of
    # delta; the ratio stays bounded as delta shrinks
    import dataclasses

    base = solve(assemble(e2c1, 9, (1, 1, 1, 1, 1))).dispatch
    for delta in (1e-2, 1e-4, 1e-6):
        per = e2c1.periods[8]
        bumped = dataclasses.replace(per, demand=per.demand + delta)
        s = dataclasses.replace(
            e2c1, periods=e2c1.periods[:8] + (bumped,) + e2c1.periods[9:]
        )
        moved = solve(assemble(s, 9, (1, 1, 1, 1, 1))).dispatch
        drift = float(np.max(np.abs(moved - base)))
        assert drift <= 10.0 * delta + 1e-12


# Ramp-relaxed grid of every bundled fleet, as solved by the dual
# active-set kernel: optimal count, summed kernel iterations and the
# certificate-row histogram pin the kernel's pivoting path, not just its
# answers.
KERNEL_PATH = {
    "example1_case1": (11, 28, {"balance": 6, "cap_hi": 3, "cap_lo": 1, "reserve_hi": 3}),
    "example1_case4": (11, 28, {"balance": 6, "cap_hi": 3, "cap_lo": 1, "reserve_hi": 3}),
    "example2_case1": (169, 2919, {"dr_hi": 83, "reserve_hi": 516}),
    "example2_case2": (169, 2977, {"dr_hi": 24, "reserve_hi": 575}),
    "example2_case3": (169, 2919, {"dr_hi": 83, "reserve_hi": 516}),
}


@pytest.mark.parametrize("name", sorted(KERNEL_PATH))
def test_kernel_path_pinned_on_bundled_grids(name):
    s = load_bundled_scenario(name)
    n = s.n_units
    optimal = iterations = 0
    rows = Counter()
    for t in range(1, s.horizon + 1):
        for v in range(1 << n):
            sol = solve(assemble(s, t, int_to_mode(v, n)))
            iterations += sol.iterations
            if sol.status == "optimal":
                optimal += 1
                assert sol.kkt <= KKT_TOL
            else:
                rows[re.sub(r"\[\d+\]$", "", sol.certificate["row"])] += 1
    assert (optimal, iterations, dict(rows)) == KERNEL_PATH[name]


def test_solve_pivoted_matches_linalg():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    rhs = rng.normal(size=6)
    A0, rhs0 = A.copy(), rhs.copy()
    y = _kernels.solve_pivoted(A, rhs, PIVOT_TOL)
    assert np.max(np.abs(y - np.linalg.solve(A, rhs))) <= 1e-12
    assert np.array_equal(A, A0) and np.array_equal(rhs, rhs0)  # not modified in place


def test_solve_pivoted_fails_at_the_pivot_tolerance():
    # tolerance is tol_piv * max(1, max|A|); a pivot equal to it fails
    assert _kernels.solve_pivoted([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0], PIVOT_TOL) is None
    assert _kernels.solve_pivoted([[4.0, 0.0], [0.0, 4e-3]], [1.0, 1.0], 1e-3) is None
    y = _kernels.solve_pivoted([[4.0, 0.0], [0.0, 5e-3]], [1.0, 1.0], 1e-3)
    assert y == pytest.approx([0.25, 200.0])


def test_small_solve_is_solve_pivoted_to_the_bit():
    # the kernel solves 1- and 2-row working-set systems inline; every
    # outcome, None included, must be solve_pivoted's to the bit
    tol = PIVOT_TOL
    above = float(np.nextafter(tol, 1.0))
    # max |A| <= 1 keeps the tolerance at tol, so pivots land on it and
    # just above it; 1 and -1 tie for the pivot
    edge = [0.0, -0.0, 1.0, -1.0, 0.5, -0.25, tol, -tol, above, -above]
    cases = [([[a, b], [c, d]], [r0, r1])
             for a, b, c, d in itertools.product(edge, repeat=4)
             for r0, r1 in ((1.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (3.0, -2.0))]
    cases += [([[a]], [r]) for a in edge for r in (1.0, 0.0, -0.0)]
    rng = np.random.default_rng(5)
    for _ in range(4000):
        k = int(rng.integers(1, 3))
        scale = 10.0 ** rng.integers(-12, 13, size=(k, k)) if rng.random() < 0.5 else 1.0
        cases.append(((rng.normal(size=(k, k)) * scale).tolist(), rng.normal(size=k).tolist()))
    outcomes = Counter()
    for A, rhs in cases:
        want = _kernels.solve_pivoted(A, rhs, tol)
        got = _kernels._solve_list(A, rhs, tol)
        assert (got is None) == (want is None), (A, rhs)
        if want is None:
            outcomes["none"] += 1
            continue
        assert np.array(got).tobytes() == want.tobytes(), (A, rhs, got, want)
        outcomes["negative zero"] += any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in got)
        outcomes["solved"] += 1
    assert min(outcomes.values()) > 100, outcomes


def _calls_at_4(e1c1, monkeypatch):
    """Two calls that solve commitment 11 at t=4 of example1_case1, where
    it is the one feasible mode, each with the commitment it hands the
    kernel first: `solve` on its assembled problem, and a ramped
    `mode_candidates`, which solves 01 and then 11 on the lean candidate
    path and so must not reach `solve`."""
    q = assemble(e1c1, 4, (1, 1))
    s = _with_ramps(e1c1, 0.5)
    p_prev = np.array([450.0, 150.0, 0.0, 0.0])
    assert [c[0] for c in mode_candidates(s, 4, p_prev)] == [(1, 1)]

    def barred(q):
        raise AssertionError("a ramped candidate reached solve")

    monkeypatch.setattr(ucdkit.qp, "solve", barred)
    return [("11", lambda: solve(q)), ("01", lambda: mode_candidates(s, 4, p_prev))]


def test_kernel_failure_raises_numerical_error(e1c1, monkeypatch):
    calls = _calls_at_4(e1c1, monkeypatch)
    real = _kernels.qp_core

    def starved(*args):
        out = real(*args[:-1], 0)  # no iterations allowed
        assert out[0] == _kernels.NUMERIC_FAIL
        return out

    monkeypatch.setattr(_kernels, "qp_core", starved)
    for commitment, call in calls:
        with pytest.raises(QpNumericalError, match=f"t=4, commitment {commitment} "):
            call()


@pytest.mark.parametrize("where", ["first x", "last x", "balance multiplier", "row multiplier"])
def test_a_nan_from_the_kernel_is_not_certified(e1c1, monkeypatch, where):
    # a NaN fails every comparison, so the certificate must accept a
    # residual at most KKT_TOL, not reject one above it; and max() keeps
    # a NaN only in first place, so a NaN anywhere in x or the
    # multipliers must still give a NaN residual
    q = assemble(e1c1, 4, (1, 1))
    sol = solve(q)
    calls = _calls_at_4(e1c1, monkeypatch)
    vector, at = {"first x": (0, 0), "last x": (0, -1), "balance multiplier": (1, 0),
                  "row multiplier": (1, 3)}[where]
    real = _kernels.qp_core

    def poisoned(*args):
        out = list(real(*args))
        if out[0] == _kernels.OPTIMAL:      # only 11 is, on both calls
            out[1 + vector] = np.array(out[1 + vector])
            out[1 + vector][at] = np.nan
        return tuple(out)

    monkeypatch.setattr(_kernels, "qp_core", poisoned)
    for _, call in calls:
        with pytest.raises(QpNumericalError, match="KKT residual nan .* t=4, commitment 11$"):
            call()
    if vector == 0:
        dispatch = sol.dispatch.copy()
        dispatch[q.free[at]] = np.nan
        assert math.isnan(kkt_residual(q, dataclasses.replace(sol, dispatch=dispatch)))


def _with_ramps(s, frac):
    """Symmetric ramp limits of frac * p_max on every unit, enforced."""
    units = tuple(dataclasses.replace(u, ramp_up=frac * u.p_max, ramp_down=frac * u.p_max)
                  for u in s.units)
    return dataclasses.replace(s, units=units, ramp_enforced=True)


def _golden_scenarios():
    """The five bundled scenarios, then example2_case1 with ramps at 0.5
    p_max, each a new object."""
    return ([load_bundled_scenario(name) for name in sorted(KERNEL_PATH)]
            + [_with_ramps(load_bundled_scenario("example2_case1"), 0.5)])


def _golden_problems(drawn_states, scenarios=None):
    """Every (t, mode) of the five bundled ramp-relaxed grids, then every
    mode of example2_case1 with ramps at 0.5 p_max from one seeded state
    per (t, previous ramp-relaxed feasible mode); of `scenarios`, as
    `_golden_scenarios` returns them, or of new objects."""
    *relaxed, s = scenarios or _golden_scenarios()
    for r in relaxed:
        for t in range(1, r.horizon + 1):
            for v in range(1 << r.n_units):
                yield assemble(r, t, int_to_mode(v, r.n_units))
    for t, _, p_prev in drawn_states(s, 1, count=1, seed=0):
        for v in range(1 << s.n_units):
            yield assemble(s, t, int_to_mode(v, s.n_units), p_prev)


# sha256 over every golden problem's status, iteration count and
# certificate row, and for optima the dispatch, objective, multipliers,
# active set and KKT residual, bytes or repr (`_solve_bytes`). The
# infeasible `violation` is left out: it is read at an iterate, not at a
# certified point. The digest follows the floating-point behaviour of
# the numpy/BLAS build the kernel runs on.
KERNEL_GOLDEN = (7376, "36771034c5bc3ceea0b43375478ef1cbfc64473175a233a7056af29a8ae7e6cc")


def _kernel_digest(problems):
    """(count, sha256 hex) of KERNEL_GOLDEN over solve(q) for `problems`."""
    h = hashlib.sha256()
    count = 0
    for q in problems:
        h.update(_solve_bytes(q))
        count += 1
    return count, h.hexdigest()


def test_kernel_golden_digest(drawn_states):
    assert _kernel_digest(_golden_problems(drawn_states)) == KERNEL_GOLDEN


def test_warm_caches_give_the_golden_bytes(drawn_states):
    # the first pass fills every template's kernel constants and step
    # directions; the second reads them, and each of its problems is
    # solved again with no template, so with new constants and no
    # directions kept
    scenarios = _golden_scenarios()
    assert _kernel_digest(_golden_problems(drawn_states, scenarios)) == KERNEL_GOLDEN
    warm = list(_golden_problems(drawn_states, scenarios))
    assert _kernel_digest(warm) == KERNEL_GOLDEN
    for q in warm:
        assert _solve_bytes(q) == _solve_bytes(dataclasses.replace(q)), (q.t, q.commitment)


def _frozen(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("t, mode, ramped", [
    (12, (1, 1, 1, 1, 1), False),   # optimal, penetration and boxes active
    (3, (1, 1, 0, 0, 0), False),    # optimal
    (12, (0, 0, 0, 0, 1), False),   # infeasible
    (9, (1, 1, 1, 0, 1), True),     # optimal, with ramp rows
])
def test_kernel_and_solve_leave_their_inputs_alone(e2c1, t, mode, ramped):
    # read-only arrays make any in-place write raise; the bytes are
    # compared as well, for a write that would go through a copy's view
    s = _with_ramps(e2c1, 0.2) if ramped else e2c1
    prev = np.array([535.9, 406.4, 130.0, 0.0, 32.7, 35.0, 10.0]) if ramped else None
    q = assemble(s, t, mode, prev)
    q = dataclasses.replace(q, hdiag=_frozen(q.hdiag), glin=_frozen(q.glin),
                            G=_frozen(q.G), h=_frozen(q.h))
    before = [a.tobytes() for a in (q.hdiag, q.glin, q.G, q.h)]
    sol = solve(q)
    assert [a.tobytes() for a in (q.hdiag, q.glin, q.G, q.h)] == before
    C = _frozen(np.vstack([np.ones(q.n_free), -q.G]))
    b = _frozen(np.concatenate([[q.beq], -q.h]))
    arrays = (q.hdiag, q.glin, C, b)
    before = [a.tobytes() for a in arrays]
    status, *_ = _kernels.qp_core(q.hdiag, q.glin, _kernels.Rows(q.hdiag, q.glin, C), b, 1000)
    assert [a.tobytes() for a in arrays] == before
    assert (status, sol.status) in ((_kernels.OPTIMAL, "optimal"), (_kernels.INFEASIBLE, "infeasible"))
    assert any(label.startswith("ramp") for label in q.labels) == ramped


def test_assemble_rejects_non_binary_commitments(e1c1):
    for bad in [(1.9, 0.2), (1, 0.5), (2, 0), (-1, 1), (1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match="binary"):
            assemble(e1c1, 1, bad)
    with pytest.raises(ValueError, match="binary"):
        mode_dynamics(e1c1, 1, (1.9, 0.2))
    # booleans and integral floats are binary entries
    for ok in [(True, False), (1.0, 0.0), np.array([1, 0])]:
        assert assemble(e1c1, 1, ok).commitment == (1, 0)


# int() would read (1.9, 0.2) as (1, 0), (2, 0) would index past the
# switching table, and (1, 0, 1) would read as mode 5
BAD_COMMITMENTS = [(1.9, 0.2), (1, 0.5), (2, 0), (-1, 1), (1, -1), (0.5, 1),
                   (math.nan, 1), (1, math.inf), (1,), (1, 0, 1), ()]
# booleans, integral floats and arrays are binary entries
GOOD_COMMITMENTS = [(1, 0), [1, 0], (True, False), (1.0, 0.0), np.array([1, 0])]


def test_every_entry_point_applies_the_one_commitment_rule(e1c1, model_e1c1, tmp_path):
    # each entry point that takes a commitment (a mode, or a previous
    # mode) refuses what `mode_to_int` refuses, with its message, and
    # gives every spelling of mode 10 the same answer
    model = str(tmp_path / "m.json")
    save_model(model_e1c1, model)
    scn = "example1_case1"
    p_prev = np.array([300.0, 0.0, 0.0, 0.0])
    library = {
        "assemble": lambda c: assemble(e1c1, 3, c).commitment,
        "mode_dynamics": lambda c: mode_dynamics(e1c1, 3, c).tolist(),
        "mode_to_int": lambda c: mode_to_int(c, 2),
        "Schedule": lambda c: [mode_to_int(m) for m in Schedule(((1, 1), c)).modes],
        "enumerate_tail": lambda c: enumerate_tail(e1c1, 3, c, p_prev),
        "schedule_step": lambda c: [
            list(v) for v in schedule_step(model_e1c1, e1c1, 3, c, p_prev)],
    }
    cli = {
        "--mode": lambda text: _cli(["dispatch", scn, "--t", "3", "--mode", text]),
        "--prev-mode": lambda text: _cli(["schedule", scn, "--model", model, "--from-t",
                                          "3", "--state", "300,0", "--prev-mode", text]),
    }
    for bad in BAD_COMMITMENTS:
        for call in library.values():
            with pytest.raises(ValueError, match=r"2 entries each 0 or 1 \(binary\)"):
                call(bad)
        text = "".join(map(str, bad))
        for call in cli.values():
            assert call(text) == (1, "", f"error: mode {text!r} is not 2 binary digits\n")
    for name, call in library.items():
        want = call((1, 0))
        assert all(call(ok) == want for ok in GOOD_COMMITMENTS), name
    for name, call in cli.items():
        rc, out, err = call("10")
        assert (rc, err) == (0, "") and out, name


def _cli(argv):
    """(exit status, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _dense_elimination(A, rhs, tol_piv):
    """Reference: partial-pivoting elimination on one numpy array, with
    numpy's elementwise ops and dots."""
    k = len(rhs)
    M = np.empty((k, k + 1))
    M[:, :k] = A
    M[:, k] = rhs
    tol = tol_piv * max(1.0, float(abs(M[:, :k]).max(initial=0.0)))
    for c in range(k):
        piv = c + int(abs(M[c:, c]).argmax())
        if abs(M[piv, c]) <= tol:
            return None
        if piv != c:
            M[[c, piv]] = M[[piv, c]]
        M[c + 1:, c:] -= M[c + 1:, c, None] / M[c, c] * M[c, c:]
    y = M[:, k]
    for c in range(k - 1, -1, -1):
        y[c] = (y[c] - M[c, c + 1:k] @ y[c + 1:]) / M[c, c]
    return y


def test_solve_pivoted_is_dense_elimination_to_the_bit():
    # KKT systems shaped like the polish's, signed zeros included: a tiny
    # diagonal Hessian, then signed normals of balance, box and
    # penetration rows, zeros of either sign, right-hand sides with -0.0.
    # Each matrix is factored once and replayed on several right-hand
    # sides, as the polish replays a kept factorization
    # a one-term dot: numpy adds it to +0.0, so -0.0 - (1.0 * -0.0) is -0.0
    want = _dense_elimination(np.array([[1.0, 1.0], [-0.0, 1.0]]), np.array([-0.0, -0.0]), PIVOT_TOL)
    got = _kernels.solve_pivoted([[1.0, 1.0], [-0.0, 1.0]], [-0.0, -0.0], PIVOT_TOL)
    assert got.tobytes() == want.tobytes() == np.array([-0.0, -0.0]).tobytes()
    rng = np.random.default_rng(11)
    solved = negative_zeros = 0
    for _ in range(400):
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        N = np.zeros((k, n))
        for a in range(k):
            kind = rng.integers(3)
            if kind == 0:
                N[a] = 1.0
            elif kind == 1:
                N[a, rng.integers(n)] = rng.choice([1.0, -1.0])
            else:
                N[a] = -0.05
                N[a, rng.integers(n)] = 0.95
        N = rng.choice([1.0, -1.0], size=(k, 1)) * -N
        K = np.zeros((n + k, n + k))
        K[:n, :n] = np.diag(rng.choice([1e-4, 2e-3, 0.5], size=n))
        K[:n, n:] = -N.T
        K[n:, :n] = N
        entry = _kernels._factor(K.tolist(), PIVOT_TOL)
        for _ in range(4):
            rhs = rng.choice([-0.0, 0.0, 1.0, -40.0, 0.3], size=n + k)
            want = _dense_elimination(K, rhs, PIVOT_TOL)
            got = _kernels.solve_pivoted(K.tolist(), rhs.tolist(), PIVOT_TOL)
            assert (got is None) == (want is None) == (entry is None)
            if want is None:
                continue
            solved += 1
            negative_zeros += any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in want)
            for y in (got, _kernels._replay(entry, rhs.tolist())):
                assert y.tobytes() == want.tobytes() and y.strides == want.strides
    assert solved > 400 and negative_zeros > 100, (solved, negative_zeros)


def test_sparse_replay_is_the_dense_one_to_the_bit():
    # `_replay` applies only nonzero multipliers, sends a -0.0 row through
    # its full row, and leaves to numpy's dot only the U rows whose tail
    # holds two or more nonzeros. On systems with zeros of either sign
    # planted in A and in the right-hand side it must give the bytes and
    # strides of the dense replay and of the numpy elimination, and so
    # must an entry whose plan is stripped (as one of more than 255 rows
    # has none); a non-finite right-hand side must give the dense
    # replay's bytes. Every plan must be the one read off its LU
    rng = np.random.default_rng(23)
    seen = Counter()
    with np.errstate(all="ignore"):     # the non-finite cases
        _replay_cases(rng, seen)
    assert min(seen.values()) >= 50, seen


def _replay_cases(rng, seen):
    """The cases of `test_sparse_replay_is_the_dense_one_to_the_bit`,
    counted in `seen`."""
    for _ in range(700):
        k = int(rng.integers(1, 12))
        A = rng.normal(size=(k, k)) * rng.choice([1.0, 1e-3, 1e3], size=(k, k))
        if rng.random() < 0.8:      # otherwise dense, as a Gram system
            A[rng.random((k, k)) < rng.uniform(0.2, 0.8)] = 0.0
            A[rng.random((k, k)) < 0.1] = -0.0
        if rng.random() < 0.5:
            A[np.diag_indices(k)] = rng.choice([1.0, -2.0, 0.5], size=k)
        entry = _kernels._factor(A.tolist(), PIVOT_TOL)
        if entry is None:
            continue
        plan = entry[8 * k * k + 4 * k:]
        assert plan == _plan_of(np.frombuffer(entry, count=k * k).reshape(k, k))
        seen.update("empty" if j == 0 else "dot" if j == 255 else "one" for j in plan[:k])
        seen["partial row"] += any(0 < n < i for i, n in enumerate(plan[k:2 * k]))
        seen["full"] += plan[k:2 * k] == bytes(range(k))
        for _ in range(4):
            rhs = rng.choice([-0.0, 0.0, 1.0, -40.0, 0.3, 1e-300], size=k)
            if rng.random() < 0.1:
                rhs[rng.integers(k)] = rng.choice([np.inf, -np.inf, np.nan])
            got = _kernels._replay(entry, rhs.tolist())
            dense = _kernels._replay_dense(entry, rhs.tolist())
            stripped = _kernels._replay(entry[:8 * k * k + 4 * k], rhs.tolist())
            for y in (got, stripped):
                assert y.tobytes() == dense.tobytes() and y.strides == dense.strides
            if not np.isfinite(dense).all():
                seen["non-finite"] += 1
                continue
            want = _dense_elimination(A, rhs, PIVOT_TOL)
            assert got.tobytes() == want.tobytes() and got.strides == want.strides
            seen["-0.0 in and out"] += _holds_negative_zero(rhs) and _holds_negative_zero(got)


def _holds_negative_zero(values):
    return any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in values)


def _plan_of(LU):
    """The replay plan `_factor` documents, read off an LU array."""
    k = len(LU)
    tails = [np.flatnonzero(LU[i, i + 1:]) + i + 1 for i in range(k)]
    mults = [np.flatnonzero(LU[i, :i]) for i in range(k)]
    return (bytes(0 if len(t) == 0 else int(t[0]) if len(t) == 1 else 255 for t in tails)
            + bytes(len(c) for c in mults)
            + b"".join(bytes(c.tolist()) for i, c in enumerate(mults) if len(c) < i))


def test_a_system_past_255_rows_replays_densely():
    # a plan's columns are bytes, so an entry of more than 255 rows has
    # none. A KKT matrix of 250 units, a balance over the first 240 and
    # box rows on the last 9, puts the one nonzero of the last U tails
    # past column 255
    rng = np.random.default_rng(5)
    n, k = 250, 10
    N = np.zeros((k, n))
    N[0, :240] = 1.0
    N[np.arange(1, k), np.arange(241, n)] = 1.0
    K = np.zeros((n + k, n + k))
    K[:n, :n] = np.diag(rng.choice([2.0, 5.0, 8.0], size=n))     # each unit's row its pivot
    K[:n, n:] = -N.T
    K[n:, :n] = N
    entry = _kernels._factor(K.tolist(), PIVOT_TOL)
    assert len(entry) == 8 * (n + k) ** 2 + 4 * (n + k)
    for _ in range(3):
        rhs = rng.choice([-0.0, 0.0, 1.0, -40.0, 0.3], size=n + k)
        want = _dense_elimination(K, rhs, PIVOT_TOL)
        for y in (_kernels._replay(entry, rhs.tolist()),
                  _kernels.solve_pivoted(K.tolist(), rhs.tolist(), PIVOT_TOL)):
            assert y.tobytes() == want.tobytes() and y.strides == want.strides


def test_a_fleet_of_256_units_is_polished():
    # the polish's KKT matrix, of the balance and the one bound that
    # holds, has 258 rows, and most units' U rows a single nonzero in
    # column 256, the balance's
    n = 256
    hdiag = np.linspace(0.5, 2.0, n)
    glin = -np.linspace(1.0, 3.0, n)
    glin[7] = 40.0
    C = np.vstack([np.ones(n), np.eye(n)])      # the balance, then x >= 0
    b = np.concatenate([[300.0], np.zeros(n)])
    status, x, w, _, _ = _kernels.qp_core(hdiag, glin, _kernels.Rows(hdiag, glin, C), b, 1000)
    assert status == _kernels.OPTIMAL and np.flatnonzero(w).tolist() == [0, 8]
    assert abs(x.sum() - 300.0) < 1e-9 and x.min() >= -1e-9 and (w[1:] >= 0.0).all()
    assert np.abs(hdiag * x + glin - C.T @ w).max() < 1e-9


# sha256 over every golden problem's assembled data: labels, free
# columns, const and beq by repr, and the dtype, shape, strides and bytes of
# hdiag, glin, G and h. Recorded before assembly was rewritten, so any
# change to what `assemble` hands the kernel shows here.
ASSEMBLE_GOLDEN = (7376, "66d26fdb9b50d24071e83f9540492342d97e258e35119f84316f7e9d9d84c606")


def test_assemble_golden_digest(drawn_states):
    h = hashlib.sha256()
    count = 0
    for q in _golden_problems(drawn_states):
        count += 1
        h.update(repr((q.t, q.commitment, q.labels, q.free, q.const, q.beq, q.n_units)).encode())
        for a in (q.hdiag, q.glin, q.G, q.h):
            h.update(repr((a.dtype.str, a.shape, a.strides)).encode())
            h.update(a.tobytes())
    assert (count, h.hexdigest()) == ASSEMBLE_GOLDEN


# --- per-mode templates ----------------------------------------------------

def _solve_bytes(q):
    """Every field of solve(q) that the golden digest reads, as bytes."""
    sol = solve(q)
    out = repr((sol.status, sol.iterations, sol.certificate.get("row"))).encode()
    if sol.status == "optimal":
        out += sol.dispatch.tobytes() + sol.ineq_multipliers.tobytes()
        out += repr((sol.objective_value, sol.eq_multiplier, sol.active_set, sol.kkt)).encode()
    return out


def _template_cases(s):
    """(t, mode, p_prev) over every mode at four periods, from previous
    dispatches that give each unit ramp rows, none, or some of them."""
    n = s.n_units
    full = np.array([u.p_max * 0.6 for u in s.units] + [10.0, 5.0])
    patterns = [None, full, np.zeros(n + 2), np.where(np.arange(n + 2) % 2 == 0, full, 0.0),
                np.where(np.arange(n + 2) % 3 == 1, full, 0.0)]
    for t in (3, 9, 12, 20):
        for p_prev in patterns:
            for v in range(1 << n):
                yield t, int_to_mode(v, n), p_prev


@pytest.mark.parametrize("ramps", [False, True], ids=["relaxed", "ramped"])
def test_templates_give_the_bytes_of_a_fresh_scenario(e2c1, ramps):
    # a template's kernel constants fill as rows enter working sets, so a
    # warm template, a cold one (a re-parsed, equal scenario) and no
    # template at all (a replaced problem) must all give the same bytes
    from ucdkit import parse_scenario, serialize_scenario

    s = _with_ramps(e2c1, 0.2) if ramps else e2c1
    cases = list(_template_cases(s))
    first = [_solve_bytes(assemble(s, *c)) for c in cases]
    warm = [_solve_bytes(assemble(s, *c)) for c in cases]
    fresh_s = parse_scenario(serialize_scenario(s))
    assert fresh_s == s and fresh_s is not s
    fresh = [_solve_bytes(assemble(fresh_s, *c)) for c in reversed(cases)][::-1]
    bare = [_solve_bytes(dataclasses.replace(assemble(s, *c), t=c[0])) for c in cases]
    assert warm == first == fresh == bare
    ramp_rows = {any(lbl.startswith("ramp") for lbl in assemble(s, *c).labels) for c in cases}
    assert ramp_rows == ({False, True} if ramps else {False})


def test_templates_serve_a_flipped_balance_row(e1c1):
    # with a negative linear cost the unconstrained minimizer (300 and
    # 500 MW here) can lie above demand, and the kernel flips the balance
    # row's sign. One template serves periods on both sides of it, 700
    # and 900 MW, where unit 2's cap row enters after the balance, so
    # neither side may read the other's constants
    b = (-600.0, -1000.0)
    units = tuple(dataclasses.replace(u, b=k * u.a) for u, k in zip(e1c1.units, b))
    periods = tuple(dataclasses.replace(p, demand=700.0 + 200.0 * (t % 2), reserve_lo=0.0,
                                        reserve_hi=0.0) for t, p in enumerate(e1c1.periods))
    s = dataclasses.replace(e1c1, units=units, periods=periods)
    flipped = set()
    for t in (1, 2, 3, 4):
        q = assemble(s, t, (1, 1))
        sol = solve(q)
        assert _solve_bytes(q) == _solve_bytes(dataclasses.replace(q, t=t))
        assert sol.status == "optimal" and "cap_hi[1]" in sol.active_set
        flipped.add(float(np.sum(q.rows.x0)) > q.beq)
    assert flipped == {False, True}
    # the polish hides a wrong-signed step here, so read the cache
    # itself: every step direction, the balance's own first, is that of
    # the unflipped rows (period 1, solved first, is on the flipped side)
    R = q.rows
    assert R.steps and (0,) in [tuple(key) for key in R.steps]
    for (p, *W), step in R.steps.items():
        want = _kernels._step([R.C[a].tolist() for a in W], R.C[p].tolist(), R.hinv)
        assert step == want, (p, W)
    # and every kept polish factorization is that of the unflipped KKT
    # matrix, built as the kernel builds it
    assert R.polish
    n = R.shape[1]
    for W, entry in R.polish.items():
        N = [R.C[a].tolist() for a in W]
        K = [[0.0] * n + [-a[j] for a in N] for j in range(n)]
        for j, h in enumerate(R.hdiag.tolist()):
            K[j][j] = h
        assert entry == _kernels._factor(K + [a + [0.0] * len(W) for a in N], PIVOT_TOL), list(W)


def test_a_replaced_scenario_gets_its_own_templates(e2c1):
    u = e2c1.units[0]
    other = dataclasses.replace(e2c1, units=(dataclasses.replace(u, a=2.0 * u.a),)
                                + e2c1.units[1:])
    mode = (1, 1, 1, 1, 1)
    q, q_other = assemble(e2c1, 12, mode), assemble(other, 12, mode)
    assert q.hdiag is assemble(e2c1, 15, mode).hdiag       # one template, two periods
    assert q_other.hdiag is not q.hdiag
    assert q_other.hdiag[0] > q.hdiag[0] and np.array_equal(q_other.hdiag[1:], q.hdiag[1:])
    assert solve(q_other).objective_value != solve(q).objective_value
    assert solve(q).objective_value == solve(assemble(e2c1, 12, mode)).objective_value


def test_shared_arrays_are_read_only(e2c1):
    q = assemble(e2c1, 12, (1, 1, 1, 1, 1))
    for a in (q.hdiag, q.glin, q.G, q.rows.C):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    q.h[0] = 0.0            # the period's bounds are the problem's own
    assert assemble(e2c1, 12, (1, 1, 1, 1, 1)).h[0] != 0.0


def test_templates_go_with_their_scenario():
    import gc
    import weakref

    from ucdkit import qp

    s = load_bundled_scenario("example2_case1")
    for t in (1, 12):
        for v in range(1 << s.n_units):
            solve(assemble(s, t, int_to_mode(v, s.n_units)))
    key, ref = id(s), weakref.ref(s)
    assert key in qp._TEMPLATES
    del s
    gc.collect()
    assert ref() is None
    assert key not in qp._TEMPLATES


def _tiled_fleet(n_units):
    """example2_case1's units tiled to n_units, demand and reserves scaled
    by the fleet's p_max, so it stays as tight as the example."""
    base = load_bundled_scenario("example2_case1")
    k = base.n_units
    units = tuple(base.units[i % k] for i in range(n_units))
    scale = sum(u.p_max for u in units) / sum(u.p_max for u in base.units)
    periods = tuple(dataclasses.replace(p, demand=p.demand * scale, reserve_lo=p.reserve_lo * scale,
                                        reserve_hi=p.reserve_hi * scale) for p in base.periods)
    return dataclasses.replace(
        base, units=units, periods=periods,
        initial_commitment=tuple(base.initial_commitment[i % k] for i in range(n_units)),
        initial_dispatch=tuple(base.initial_dispatch[i % k] for i in range(n_units))
        + base.initial_dispatch[k:])


def test_template_memory_of_an_8_unit_grid():
    # every template and kernel constant of the full ramp-relaxed grid of
    # an 8-unit fleet (24 periods x 256 modes, 512 templates) stays under
    # 2.5 MB; the solutions are dropped as they come
    import gc
    import tracemalloc

    s = _tiled_fleet(8)
    modes = [int_to_mode(v, 8) for v in range(256)]
    solve(assemble(load_bundled_scenario("example1_case1"), 1, (1, 1)))  # warm module caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        optimal = 0
        for t in range(1, s.horizon + 1):
            for mode in modes:
                optimal += solve(assemble(s, t, mode)).status == "optimal"
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert optimal > 0
    assert retained <= 2.5e6, retained


def test_template_memory_of_ramped_training():
    # with ramps enforced a template is keyed on the units that ran in the
    # previous period too, so up to 3^N per DG/DR pattern: what a trained
    # ramped example2_case1 object keeps (256 templates, their step
    # directions and polish factorizations) stays under 3.0 MB; the model
    # is dropped
    import gc
    import tracemalloc

    s = _with_ramps(load_bundled_scenario("example2_case1"), 0.5)
    solve(assemble(load_bundled_scenario("example1_case1"), 1, (1, 1)))  # warm module caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = train(s, TrainConfig(samples=2))
        assert model.weights
        del model
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 3.0e6, retained


def test_step_directions_keep_no_period_data():
    # step directions are keyed on the working set, never on h, b or x.
    # Periods 25-48 of this 8-unit fleet repeat periods 1-24 with every
    # quantity scaled by 1 + 2**-20, which leaves each working-set path
    # as it was, so solving their full grid after that of periods 1-24,
    # on the same object, finds every direction it needs and keeps
    # nothing new (a key that read the period's data would add one entry
    # per problem, and a solve of the same periods again would not show it)
    import gc
    import tracemalloc

    base = _tiled_fleet(8)
    f = 1.0 + 2.0 ** -20
    scaled = tuple(dataclasses.replace(p, demand=p.demand * f, reserve_lo=p.reserve_lo * f,
                                       reserve_hi=p.reserve_hi * f, dg_max=p.dg_max * f,
                                       dr_max=p.dr_max * f) for p in base.periods)
    s = dataclasses.replace(base, periods=base.periods + scaled)
    modes = [int_to_mode(v, 8) for v in range(256)]

    def paths(periods):      # a digest of each solve's status and iterations, kept in no list
        h = hashlib.sha256()
        for t in periods:
            for mode in modes:
                sol = solve(assemble(s, t, mode))
                h.update(repr((sol.status, sol.iterations)).encode())
        return h.hexdigest()

    first = paths(range(1, 25))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        second = paths(range(25, 49))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert second == first
    assert retained < 4096, retained     # a few hundred bytes of interpreter noise


def test_step_directions_past_row_255():
    # a step key keeps a row index in a byte where every index fits and
    # falls back to a tuple where not: 300 rows on two columns, x0 <= 300
    # - i for row i, so the last row binds and enters the working set
    m = 300
    C = np.zeros((m, 2))
    C[0] = 1.0
    C[1:, 0] = -1.0
    b = np.concatenate([[500.0], -(300.0 - np.arange(1, m))])
    hdiag, glin = np.array([1.0, 1.0]), np.array([-400.0, 0.0])
    shared = _kernels.Rows(hdiag, glin, C)
    runs = [_kernels.qp_core(hdiag, glin, rows, b, 1000)
            for rows in (shared, shared, _kernels.Rows(hdiag, glin, C))]
    status, x, w, iters, bad = runs[0]
    assert status == _kernels.OPTIMAL and x.tolist() == [1.0, 499.0] and w[m - 1] > 0.0
    assert any(max(key) > 255 for key in shared.steps)
    for other in runs[1:]:
        assert (other[0], other[3], other[4]) == (status, iters, bad)
        assert other[1].tobytes() == x.tobytes() and other[2].tobytes() == w.tobytes()
