"""Property-based invariants, 1000 trials per suite.

Each suite checks a structural fact independently of the solver's own
bookkeeping: feasibility and KKT residuals are recomputed from raw
arrays, dominance uses externally constructed feasible points, and the
carbon-price monotonicity argument never looks at multipliers at all.
"""

import contextlib
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ucdkit import (
    BUNDLED_SCENARIOS,
    BasisSpec,
    CetParams,
    DisturbanceScript,
    PeriodExogenous,
    Scenario,
    Schedule,
    ThermalUnitParams,
    TrainConfig,
    UcdError,
    ValueModel,
    VirtualResourceParams,
    assemble,
    enumerate_tail,
    graph_dp_optimal,
    int_to_mode,
    kappa,
    load_bundled_scenario,
    mode_dynamics,
    run_schedule,
    save_model,
    schedule_step,
    simulate,
    solve,
    train,
)
from ucdkit import _kernels
from ucdkit.cli import main
from ucdkit.clho import _tail_values, basis_matrix, decide
from ucdkit.costs import running_cost, switching_cost
from ucdkit.oracle import Stages, tie_band
from ucdkit.qp import KKT_TOL, _solved, mode_candidates, mode_to_int

from test_costs import startup_cost_reference
from test_qp import _tiled_fleet, _with_ramps

SUITE = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

coeff_a = st.floats(min_value=1e-4, max_value=0.01)
coeff_b = st.floats(min_value=1.0, max_value=20.0)
coeff_c = st.floats(min_value=0.0, max_value=1000.0)


@st.composite
def fleets(draw, n_min=1, n_max=3):
    n = draw(st.integers(n_min, n_max))
    units = []
    for _ in range(n):
        p_min = draw(st.floats(min_value=5.0, max_value=200.0))
        width = draw(st.floats(min_value=10.0, max_value=500.0))
        units.append(ThermalUnitParams(
            a=draw(coeff_a), b=draw(coeff_b), c=draw(coeff_c),
            p_min=p_min, p_max=p_min + width,
        ))
    return tuple(units)


def _one_period_scenario(units, demand):
    return Scenario(
        units=units,
        dg=VirtualResourceParams(1.0, 0.0, 0.0),
        dr=VirtualResourceParams(1.0, 0.0, 0.0),
        cet=CetParams(0.0),
        eta_max=1.0,
        periods=(PeriodExogenous(demand=demand),),
        initial_dispatch=(0.0,) * (len(units) + 2),
        initial_commitment=(0,) * len(units),
    )


# --- suite 1: KKT certificates and dominance ------------------------------

@SUITE
@given(fleets(), st.floats(min_value=0.0, max_value=1.0), st.integers(1, 7))
def test_qp_kkt_and_dominance(units, frac, mode_bits):
    n = len(units)
    bits = tuple((mode_bits >> (n - 1 - i)) & 1 for i in range(n))
    committed = [u for u, b in zip(units, bits) if b]
    pmin = sum(u.p_min for u in committed)
    pmax = sum(u.p_max for u in committed)
    demand = pmin + frac * (pmax - pmin)
    s = _one_period_scenario(units, demand)
    sol = solve(assemble(s, 1, bits))

    if not committed:
        # demand collapses to 0 only when frac interpolates nothing
        assert sol.status == ("optimal" if demand == 0.0 else "infeasible")
        return

    assert sol.status == "optimal"
    assert sol.kkt <= KKT_TOL
    x = sol.dispatch
    # feasibility, recomputed without trusting the solver
    assert abs(float(np.sum(x)) - demand) <= 1e-7 * max(1.0, demand)
    for i, u in enumerate(units):
        if bits[i]:
            assert u.p_min - 1e-7 <= x[i] <= u.p_max + 1e-7
        else:
            assert x[i] == 0.0
    # dominance: the one-parameter feasible family p(mu) = pmin + mu*(pmax-pmin)
    # hits the demand at mu = frac; no member may beat the solver
    for mu in (0.25, 0.5, 0.75, frac):
        cand = np.zeros(n + 2)
        total = 0.0
        for i, u in enumerate(units):
            if bits[i]:
                cand[i] = u.p_min + mu * (u.p_max - u.p_min)
                total += cand[i]
        if abs(total - demand) > 1e-9 * max(1.0, demand):
            continue  # this mu misses the balance, not a feasible point
        assert running_cost(s, bits, cand) >= sol.objective_value - 1e-7 * max(
            1.0, abs(sol.objective_value)
        )


@SUITE
@given(fleets(n_min=2, n_max=3), st.floats(min_value=0.05, max_value=0.95))
def test_qp_infeasibility_is_exact(units, frac):
    # with no resources and no reserves, feasibility of a mode is exactly
    # demand in [sum p_min, sum p_max]
    n = len(units)
    bits = (1,) * n
    pmin = sum(u.p_min for u in units)
    pmax = sum(u.p_max for u in units)
    inside = pmin + frac * (pmax - pmin)
    s = _one_period_scenario(units, inside)
    assert solve(assemble(s, 1, bits)).status == "optimal"
    below = _one_period_scenario(units, pmin * (1.0 - frac * 0.5) if pmin > 0 else 0.0)
    if pmin > 0 and below.periods[0].demand < pmin * (1 - 1e-9):
        sol = solve(assemble(below, 1, bits))
        assert sol.status == "infeasible"
        # the minimum-generation shortfall surfaces either on the
        # degenerate down-reserve row (it aggregates all of p_min) or on
        # an individual floor
        assert sol.certificate["row"] in ("reserve_lo", "balance") or \
            sol.certificate["row"].startswith("cap_lo")
    above = _one_period_scenario(units, pmax * (1.0 + frac))
    sol = solve(assemble(above, 1, bits))
    assert sol.status == "infeasible"


# --- suite 2: switching charge algebra -------------------------------------

switch_cost = st.floats(min_value=0.0, max_value=1000.0)


@SUITE
@given(switch_cost, switch_cost, switch_cost, st.integers(0, 1), st.integers(0, 1))
def test_kappa_truth_table(c_bank, c_fix, c_shut, i_prev, i_now):
    u = ThermalUnitParams(a=1e-3, b=1.0, c=0.0, p_min=1.0, p_max=2.0,
                          c_bank=c_bank, c_fix=c_fix, c_shut=c_shut)
    got = kappa(u, i_prev, i_now)
    if i_prev == 1 and i_now == 1:
        assert got == 0.0
    elif i_prev == 1 and i_now == 0:
        assert got == pytest.approx(c_fix + c_shut)
    else:
        assert got == pytest.approx(c_bank)


@SUITE
@given(switch_cost, switch_cost, switch_cost, st.integers(1, 12))
def test_kappa_cycle_identity(c_bank, c_fix, c_shut, tau):
    # on -> off^tau -> on charges exactly c_fix + c_bank*tau + c_shut
    u = ThermalUnitParams(a=1e-3, b=1.0, c=0.0, p_min=1.0, p_max=2.0,
                          c_bank=c_bank, c_fix=c_fix, c_shut=c_shut)
    path = [1] + [0] * tau + [1]
    total = sum(kappa(u, path[k], path[k + 1]) for k in range(len(path) - 1))
    assert total == pytest.approx(startup_cost_reference(u, tau) + c_shut, abs=1e-9)


@SUITE
@given(st.lists(st.tuples(switch_cost, switch_cost, switch_cost), min_size=1, max_size=5))
def test_switching_rows_equal_switching_cost_bit_for_bit(charges):
    # the oracles' walks price a step off the table's switching row
    # (`Stages.kappa_row`); run_schedule and the schedule table price it
    # with switching_cost, so the two must agree to the last bit
    units = tuple(ThermalUnitParams(a=1e-3, b=1.0, c=0.0, p_min=1.0, p_max=2.0,
                                    c_bank=c_bank, c_fix=c_fix, c_shut=c_shut)
                  for c_bank, c_fix, c_shut in charges)
    s = _one_period_scenario(units, 1.0)
    modes = [int_to_mode(v, s.n_units) for v in range(1 << s.n_units)]
    stages = Stages(s)
    for a, prev in enumerate(modes):
        row = stages.kappa_row(a)
        assert [row.item(b).hex() for b in range(len(modes))] == [
            float(switching_cost(s, prev, now)).hex() for now in modes], prev


# --- suite 3: Bellman consistency ------------------------------------------

@SUITE
@given(
    st.integers(2, 5),
    st.integers(1, 3),
    st.floats(min_value=150.0, max_value=600.0),
    st.floats(min_value=100.0, max_value=400.0),
)
def test_bellman_recursion(e1c4_module, t, prev_mode, p1, p2):
    s = e1c4_module
    bits = ((prev_mode >> 1) & 1, prev_mode & 1)
    p_prev = np.array([p1 if bits[0] else 0.0, p2 if bits[1] else 0.0, 0.0, 0.0])
    lhs, _ = enumerate_tail(s, t, bits, p_prev)
    rhs = np.inf
    for mode, dispatch, q in mode_candidates(s, t, None):
        tail, _ = enumerate_tail(s, t + 1, mode, dispatch)
        rhs = min(rhs, q + switching_cost(s, bits, mode) + tail)
    assert lhs == pytest.approx(rhs, abs=1e-6)


@pytest.fixture(scope="module")
def e1c4_module():
    from ucdkit import load_bundled_scenario

    return load_bundled_scenario("example1_case4")


# --- suite 4: determinism ---------------------------------------------------

@SUITE
@given(fleets(), st.floats(min_value=0.1, max_value=0.9))
def test_solver_bitwise_deterministic(units, frac):
    bits = (1,) * len(units)
    pmin = sum(u.p_min for u in units)
    pmax = sum(u.p_max for u in units)
    s = _one_period_scenario(units, pmin + frac * (pmax - pmin))
    a = solve(assemble(s, 1, bits))
    b = solve(assemble(s, 1, bits))
    assert np.array_equal(a.dispatch, b.dispatch)
    assert a.objective_value == b.objective_value
    assert a.kkt == b.kkt
    # and the same composed over a whole trajectory
    two = dataclasses.replace(s, periods=(s.periods[0], s.periods[0]))
    sched = Schedule((bits, bits))
    ta = run_schedule(two, sched)
    tb = run_schedule(two, sched)
    assert ta.total_cost == tb.total_cost
    assert all(
        np.array_equal(x.dispatch, y.dispatch)
        for x, y in zip(ta.periods, tb.periods)
    )


@st.composite
def kernel_problems(draw):
    """(hdiag, glin, C, [b, ...]): a kernel problem on 1-4 free columns,
    the balance row and a box per column, and 2-6 right-hand sides whose
    balance lies on both sides of the unconstrained minimizer's total, in
    either order, so the kernel flips the balance row on some of them."""
    n = draw(st.integers(1, 4))
    pos, num = st.floats(0.1, 10.0), st.floats(-20.0, 20.0)
    hdiag = np.array(draw(st.lists(pos, min_size=n, max_size=n)))
    glin = np.array(draw(st.lists(num, min_size=n, max_size=n)))
    C = np.vstack([np.ones(n), -np.eye(n), np.eye(n)])      # x <= hi, x >= lo
    x0 = -glin / hdiag
    offsets = draw(st.lists(st.floats(0.5, 50.0), min_size=2, max_size=6))
    offsets[1] = -offsets[1]
    if draw(st.booleans()):
        offsets = [-v for v in offsets]
    rhs = []
    for off in offsets:
        lo = x0 + np.array(draw(st.lists(st.floats(-30.0, 10.0), min_size=n, max_size=n)))
        hi = lo + np.array(draw(st.lists(st.floats(0.0, 60.0), min_size=n, max_size=n)))
        rhs.append(np.concatenate([[x0.sum() + off], -hi, lo]))
    return hdiag, glin, C, rhs


@SUITE
@given(kernel_problems())
def test_kernel_solves_are_batch_invariant(problem):
    # a Rows keeps step directions for every later solve: a sequence of
    # right-hand sides solved on one shared Rows gives the bytes of each
    # solved on a fresh one, whichever side of its equality the balance
    # row takes first
    hdiag, glin, C, rhs = problem
    shared = _kernels.Rows(hdiag, glin, C)
    for b in rhs:
        got = _kernels.qp_core(hdiag, glin, shared, b, 1000)
        want = _kernels.qp_core(hdiag, glin, _kernels.Rows(hdiag, glin, C), b, 1000)
        assert (got[0], got[3], got[4]) == (want[0], want[3], want[4])
        # x is a list and w None unless the solve is optimal
        assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()
        assert (got[2] is None) == (want[2] is None) == (got[0] != _kernels.OPTIMAL)
        assert got[2] is None or got[2].tobytes() == want[2].tobytes()


@st.composite
def ramped_states(draw):
    """(scenario, t, p_prev): a ramped fleet of 2-4 units whose ramp
    limits are each a number or None, two periods with DG and DR each on
    or off, and a previous dispatch with some entries zero, N or N+2
    entries long."""
    units = list(draw(fleets(n_min=2, n_max=4)))
    limit = st.one_of(st.none(), st.floats(min_value=0.0, max_value=100.0))
    units = tuple(dataclasses.replace(u, ramp_up=draw(limit), ramp_down=draw(limit))
                  for u in units)
    n = len(units)
    total = sum(u.p_max for u in units)
    periods = tuple(PeriodExogenous(
        # demand 0 lets the all-off mode, with nothing to dispatch, be optimal
        demand=draw(st.floats(1.0, total)) if draw(st.integers(0, 3)) else 0.0,
        dg_max=draw(st.sampled_from([0.0, 40.0])),
        dr_max=draw(st.sampled_from([0.0, 25.0])),
        reserve_lo=draw(st.floats(0.0, 20.0)), reserve_hi=draw(st.floats(0.0, 20.0)),
    ) for _ in range(2))
    s = Scenario(
        units=units,
        dg=VirtualResourceParams(0.01, 0.5, 0.0),
        dr=VirtualResourceParams(0.02, 2.0, 0.0),
        cet=CetParams(0.0),
        eta_max=0.3,
        periods=periods,
        initial_dispatch=(0.0,) * (n + 2),
        initial_commitment=(0,) * n,
        ramp_enforced=True,
    )
    size = n + 2 * draw(st.booleans())
    caps = [u.p_max for u in units] + [40.0, 25.0]
    p_prev = [draw(st.just(0.0) | st.floats(0.0, caps[i])) for i in range(size)]
    return s, draw(st.integers(1, 2)), np.array(p_prev)


@SUITE
@given(ramped_states(), st.booleans())
def test_ramped_candidates_are_the_solves_of_their_modes(state, lean_first):
    # mode_candidates solves ramped candidates on a lean path that builds
    # no QpProblem or QpSolution; it must list exactly the modes whose
    # assembled problem `solve` finds optimal, with the same dispatch
    # bytes and the same running cost, whichever path warms the
    # templates first
    s, t, p_prev = state
    n = s.n_units

    def lean():
        return [(mode, d.tobytes(), q.hex()) for mode, d, q in mode_candidates(s, t, p_prev)]

    def full():
        out = []
        for v in range(1 << n):
            mode = int_to_mode(v, n)
            sol = solve(assemble(s, t, mode, p_prev))
            if sol.status == "optimal":
                assert sol.kkt <= KKT_TOL
                out.append((mode, sol.dispatch.tobytes(),
                            running_cost(s, mode, sol.dispatch).hex()))
        return out

    if lean_first:
        got = lean()
        want = full()
    else:
        want = full()
        got = lean()
    assert got == want


@st.composite
def relaxed_states(draw):
    """(scenario, t): a `ramped_states` fleet and period, ramps relaxed."""
    s, t, _ = draw(ramped_states())
    return dataclasses.replace(s, ramp_enforced=False), t


def _relaxed_row_both_ways(s, t, lean_first):
    # `_solved` solves a relaxed row (limits None) through the public
    # path, assemble + solve, and with limits [] (no unit ran before)
    # the same modes on the lean path; both must give the same mode
    # ints, dispatch bytes and Q bits, whichever path warms the
    # templates first
    modes = range(1 << s.n_units)

    def row(limits):
        ints, q, dispatches = _solved(s, t, limits, modes)
        return [(v, d.tobytes(), qv.hex())
                for v, qv, d in zip(ints.tolist(), q.tolist(), dispatches)]

    if lean_first:
        lean = row([])
        public = row(None)
    else:
        public = row(None)
        lean = row([])
    assert lean == public


@SUITE
@given(relaxed_states(), st.booleans())
def test_relaxed_rows_are_the_same_on_both_paths(state, lean_first):
    _relaxed_row_both_ways(*state, lean_first)


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_bundled_relaxed_rows_are_the_same_on_both_paths(name):
    s = load_bundled_scenario(name)
    for t in range(1, s.horizon + 1):
        _relaxed_row_both_ways(s, t, t % 2 == 0)


# --- suite 5: strict convexity ----------------------------------------------

@SUITE
@given(
    fleets(n_min=2, n_max=3),
    st.floats(min_value=0.1, max_value=0.9),
    st.floats(min_value=0.1, max_value=0.9),
)
def test_objective_strictly_convex_between_feasible_points(units, fa, fb):
    # quadratic identity: Q(a)/2 + Q(b)/2 - Q(mid) = (a-b)' H (a-b) / 8 > 0
    n = len(units)
    bits = (1,) * n
    pmin = sum(u.p_min for u in units)
    pmax = sum(u.p_max for u in units)
    demand = pmin + 0.5 * (pmax - pmin)
    s = _one_period_scenario(units, demand)

    def member(mu):
        p = np.zeros(n + 2)
        for i, u in enumerate(units):
            p[i] = u.p_min + mu * (u.p_max - u.p_min)
        p[:n] *= demand / p[:n].sum()
        return p

    a_pt, b_pt = member(fa), member(fb)
    mid = 0.5 * (a_pt + b_pt)
    lhs = 0.5 * running_cost(s, bits, a_pt) + 0.5 * running_cost(s, bits, b_pt)
    gap = lhs - running_cost(s, bits, mid)
    h = np.array([2.0 * u.a for u in units])
    want = float(np.dot(h, (a_pt[:n] - b_pt[:n]) ** 2)) / 8.0
    assert gap == pytest.approx(want, rel=1e-6, abs=1e-10)
    if not np.allclose(a_pt, b_pt):
        assert gap > 0.0


# --- suite 6: resource penetration and balance residuals ---------------------

@st.composite
def resource_scenarios(draw):
    units = draw(fleets(n_min=1, n_max=2))
    pmin = sum(u.p_min for u in units)
    pmax = sum(u.p_max for u in units)
    demand = pmin + draw(st.floats(min_value=0.0, max_value=1.0)) * (pmax - pmin)
    eta = draw(st.floats(min_value=0.05, max_value=0.5))
    dg_cap = draw(st.floats(min_value=0.0, max_value=0.8)) * demand
    dr_cap = draw(st.floats(min_value=0.0, max_value=30.0))
    return Scenario(
        units=units,
        # cheap generation so the penetration ceiling binds often
        dg=VirtualResourceParams(0.01, 0.5, 0.0),
        dr=VirtualResourceParams(0.02, 2.0, 0.0),
        cet=CetParams(0.0),
        eta_max=eta,
        periods=(PeriodExogenous(demand=demand, dg_max=dg_cap, dr_max=dr_cap),),
        initial_dispatch=(0.0,) * (len(units) + 2),
        initial_commitment=(0,) * len(units),
    )


@SUITE
@given(resource_scenarios())
def test_penetration_and_balance_residuals(s):
    n = s.n_units
    bits = (1,) * n
    sol = solve(assemble(s, 1, bits))
    assert sol.status == "optimal"
    assert sol.kkt <= KKT_TOL
    x = sol.dispatch
    demand = s.periods[0].demand
    scale = max(1.0, demand)
    # balance holds with both resources folded in
    assert abs(float(x[:n].sum() + x[n] + x[n + 1]) - demand) <= 1e-7 * scale
    # caps
    assert -1e-9 * scale <= x[n] <= s.periods[0].dg_max + 1e-9 * scale
    assert -1e-9 * scale <= x[n + 1] <= s.periods[0].dr_max + 1e-9 * scale
    # penetration share of committed generation stays under the ceiling
    assert (1.0 - s.eta_max) * x[n] <= s.eta_max * float(x[:n].sum()) + 1e-7 * scale


# --- suite 7: carbon price monotonicity -------------------------------------

@st.composite
def emitting_scenarios(draw):
    units = []
    for _ in range(draw(st.integers(1, 2))):
        p_min = draw(st.floats(min_value=10.0, max_value=100.0))
        width = draw(st.floats(min_value=50.0, max_value=300.0))
        units.append(ThermalUnitParams(
            a=draw(coeff_a), b=draw(coeff_b), c=draw(coeff_c),
            p_min=p_min, p_max=p_min + width,
            c_bank=draw(st.floats(min_value=0.0, max_value=200.0)),
            c_shut=draw(st.floats(min_value=0.0, max_value=200.0)),
            alpha=draw(st.floats(min_value=1e-4, max_value=0.01)),
            beta=draw(st.floats(min_value=-0.3, max_value=0.3)),
            gamma=draw(st.floats(min_value=0.0, max_value=40.0)),
        ))
    units = tuple(units)
    # anchor each demand inside one unit's own range so at least that
    # single-unit mode is feasible every period (random fleets can have
    # coverage gaps between the single modes and the all-on mode)
    demands = []
    for _ in range(3):
        k = draw(st.integers(0, len(units) - 1))
        f = draw(st.floats(min_value=0.0, max_value=1.0))
        demands.append(units[k].p_min + f * (units[k].p_max - units[k].p_min))
    return Scenario(
        units=units,
        dg=VirtualResourceParams(1.0, 0.0, 0.0),
        dr=VirtualResourceParams(1.0, 0.0, 0.0),
        cet=CetParams(0.0),
        eta_max=1.0,
        periods=tuple(PeriodExogenous(demand=d) for d in demands),
        initial_dispatch=(0.0,) * (len(units) + 2),
        initial_commitment=(0,) * len(units),
    )


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(emitting_scenarios())
def test_emissions_weakly_decrease_in_carbon_price(base):
    # exchange argument: for argmins X1 at price p1 <= p2 and X2 at p2,
    # E(X2) <= E(X1). Holds for the realized optimal trajectories.
    tons = []
    for price in (1.0, 5.0, 10.0):
        s = dataclasses.replace(base, cet=CetParams(price))
        res = graph_dp_optimal(s)
        traj = run_schedule(s, res.schedule)
        tons.append(traj.emission_tons_total)
    assert tons[0] >= tons[1] - 1e-7 * max(1.0, abs(tons[0]))
    assert tons[1] >= tons[2] - 1e-7 * max(1.0, abs(tons[1]))


# --- allowances shift the objective by a constant ---------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.floats(min_value=0.0, max_value=5000.0),
    st.floats(min_value=0.0, max_value=5000.0),
)
def test_quota_shifts_cost_never_schedule(e1c4_module, q1, q2):
    base = e1c4_module
    s = dataclasses.replace(
        base,
        units=(
            dataclasses.replace(base.units[0], quota=q1, alpha=1e-4, gamma=1.0),
            dataclasses.replace(base.units[1], quota=q2, alpha=1e-4, gamma=1.0),
        ),
        cet=CetParams(2.5),
    )
    zero = dataclasses.replace(
        s,
        units=tuple(dataclasses.replace(u, quota=0.0) for u in s.units),
    )
    a = graph_dp_optimal(s)
    b = graph_dp_optimal(zero)
    assert a.schedule == b.schedule
    rebate = (q1 + q2) * 2.5
    assert a.total_cost == pytest.approx(b.total_cost - rebate, abs=1e-6)


# --- a malformed previous state is refused at every public entry point -----

BAD_BITS = [2, -1, 0.5, 1.9, float("nan"), float("inf")]
BAD_DISPATCH = [-1e-9, -5.0, float("nan"), float("inf"), float("-inf")]


@st.composite
def malformed_states(draw, n):
    """(previous mode, previous dispatch, which is malformed): a mode of
    another length or with a non-binary entry, and a dispatch of a length
    other than n or n + 2 or with a negative or non-finite entry."""
    mode = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    dispatch = draw(st.lists(st.floats(0.0, 1000.0), min_size=n + 2, max_size=n + 2))
    which = draw(st.sampled_from(["mode", "dispatch", "both"]))
    if which != "dispatch":
        if draw(st.booleans()):
            mode = draw(st.lists(st.sampled_from([0, 1]), max_size=n + 3)
                        .filter(lambda v: len(v) != n))
        else:
            mode[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD_BITS))
    if which != "mode":
        if draw(st.booleans()):
            k = draw(st.integers(0, n + 5).filter(lambda k: k not in (n, n + 2)))
            dispatch = draw(st.lists(st.floats(0.0, 1000.0), min_size=k, max_size=k))
        else:
            dispatch[draw(st.integers(0, n + 1))] = draw(st.sampled_from(BAD_DISPATCH))
    return mode, dispatch, which


@pytest.fixture(scope="module")
def e1c1_model_file(tmp_path_factory, model_e1c1):
    path = tmp_path_factory.mktemp("model") / "e1c1.json"
    save_model(model_e1c1, path)
    return str(path)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(malformed_states(2), st.integers(2, 5))
def test_malformed_states_are_refused(e1c1, model_e1c1, e1c1_model_file, state, t):
    # library calls raise UcdError or ValueError; the CLI exits 1 with an
    # error and prints no answer. The dispatch builders read a previous
    # dispatch only to build ramp rows, so they are tried with ramps on
    mode, dispatch, which = state
    with pytest.raises((UcdError, ValueError)):
        enumerate_tail(e1c1, t, mode, dispatch)
    with pytest.raises((UcdError, ValueError)):
        schedule_step(model_e1c1, e1c1, t, mode, dispatch)
    ramped = dataclasses.replace(e1c1, ramp_enforced=True)
    with pytest.raises(ValueError):
        assemble(ramped, t, mode, dispatch)
    with pytest.raises(ValueError):
        mode_dynamics(ramped, t, mode, dispatch)
    mode_text = "".join(map(str, mode))
    state_text = ",".join(map(repr, dispatch))
    if which != "mode":
        with pytest.raises(ValueError):
            mode_candidates(ramped, t, dispatch)
        with pytest.raises(UcdError):
            simulate(e1c1, model_e1c1, DisturbanceScript(((t, dispatch),)))
        rc, out, err = _cli(["dispatch", "example1_case1", "--t", str(t), "--mode", "11",
                             f"--prev={state_text}"])
        assert (rc, out) == (1, "") and err.startswith("error: ")
    rc, out, err = _cli(["schedule", "example1_case1", "--model", e1c1_model_file,
                         "--from-t", str(t), f"--state={state_text}",
                         f"--prev-mode={mode_text}"])
    assert (rc, out) == (1, "") and err.startswith("error: ")


# --- suite 8: stacked tails and closed-loop decisions -----------------------

@SUITE
@given(st.integers(1, 300), st.integers(0, 11), st.integers(0, 2**32 - 1))
def test_stacked_tails_are_the_per_candidate_dots(k, n_coords, seed):
    # `_tail_values` prices every candidate in one stacked matmul; each
    # tail must be float(np.dot(w, x)) of its own row, to the bit, over
    # weights and features spread across many magnitudes, with 1 to 23
    # features (the constant-only basis included)
    rng = np.random.default_rng(seed)
    n_units = 10
    basis = BasisSpec(coords=tuple(sorted(
        rng.choice(n_units + 2, n_coords, replace=False).tolist())))
    ints = np.sort(rng.choice(1 << n_units, k, replace=False))
    W = rng.normal(size=(k, basis.n_features)) * 10.0 ** rng.uniform(-4, 4, (k, basis.n_features))
    dispatches = rng.uniform(0.0, 500.0, (k, n_units + 2)) * (rng.random((k, n_units + 2)) < 0.8)
    model = ValueModel(basis=basis, horizon=3, n_units=n_units,
                       weights={(2, mi): w for mi, w in zip(ints.tolist(), W)},
                       fingerprint="", seed=0, samples=1, regularization=0.0)
    got = _tail_values(model, 2, ints, dispatches)
    want = [float(np.dot(w, x)) for w, x in zip(W, basis_matrix(basis, dispatches))]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def _seeded_fleet(n_units, seed):
    """example2_case1's units tiled to n_units, a and b perturbed by the seed."""
    s = _tiled_fleet(n_units)
    rng = np.random.default_rng(seed)
    return dataclasses.replace(s, units=tuple(
        dataclasses.replace(u, a=u.a * rng.uniform(0.98, 1.02), b=u.b * rng.uniform(0.98, 1.02))
        for u in s.units))


@pytest.fixture(scope="module")
def decision_models():
    """(scenario, trained model): the bundled fleets, a seeded 8-unit
    fleet and example2_case1 with ramps enforced, whose decisions read
    merged ramped candidate lists."""
    fleets = [load_bundled_scenario(name) for name in BUNDLED_SCENARIOS]
    fleets += [_seeded_fleet(8, 7), _with_ramps(load_bundled_scenario("example2_case1"), 0.5)]
    return [(s, train(s, TrainConfig(samples=5 if s.ramp_enforced else 20, seed=1)))
            for s in fleets]


def _reference_decision(model, stages, t, i_prev, p_prev):
    """The one-step argmin priced one candidate at a time, Q + kappa +
    float(np.dot(w, x)); None when no mode at t is feasible."""
    kappa = stages.kappa_row(mode_to_int(i_prev))
    ints, q, dispatches = stages.row(t, p_prev)
    if not len(ints):
        return None
    values = []
    for mi, qv, dispatch in zip(ints.tolist(), q.tolist(), dispatches):
        tail = 0.0
        if t < model.horizon:
            x = basis_matrix(model.basis, [dispatch])[0]
            tail = float(np.dot(model.weights[t + 1, mi], x))
        values.append(qv + kappa[mi] + tail)
    k = tie_band(values)[1]
    return int_to_mode(ints.item(k), len(i_prev)), dispatches[k].tobytes()


@SUITE
@given(st.data())
def test_decisions_are_the_per_candidate_argmin(decision_models, data):
    # `decide` and `schedule_step` price candidates on stacked arrays and
    # must pick the mode and dispatch bytes of the per-candidate loop,
    # from random states of every fleet
    s, model = data.draw(st.sampled_from(decision_models))
    n = s.n_units
    t = data.draw(st.integers(1, s.horizon))
    i_prev = data.draw(st.tuples(*[st.integers(0, 1)] * n))
    frac = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n + 2, max_size=n + 2))
    per = s.period(max(t - 1, 1))
    p_prev = np.array([u.p_min + f * (u.p_max - u.p_min) if on else 0.0
                       for u, on, f in zip(s.units, i_prev, frac)]
                      + [frac[n] * per.dg_max, frac[n + 1] * per.dr_max])
    stages = model.stages_for(s)
    want = _reference_decision(model, stages, t, i_prev, p_prev)
    if want is None:
        with pytest.raises(UcdError):
            schedule_step(model, s, t, i_prev, p_prev)
        return
    mode, dispatch = decide(model, stages, t, i_prev, p_prev)
    assert (mode, dispatch.tobytes()) == want
    mode, dispatch = schedule_step(model, s, t, i_prev, p_prev)
    assert (mode, dispatch.tobytes()) == want
