"""Exact solvers: mode-tree enumeration and layered-graph DP.

Both return certified optima. Enumeration walks the mode tree carrying
the dispatch state, so it is exact even with ramp coupling. With ramps
enforced the walk is a branch and bound: the ramp-relaxed value table is
an admissible lower bound (ramp rows only add constraints), and a child
is skipped when its bound cannot reach the tie band of the cheapest tail
found so far. With ramps relaxed the walk stays exhaustive, as graph
DP's independent reference. Without ramp rows the stage cost depends
only on (t, I), so graph DP is a shortest path over 2^N nodes per layer,
each layer one vectorised min over K + Q + V (K the switching matrix)
on the layer's feasible modes.
Each top-level call solves a ramp-relaxed (t, mode) at most once,
through one `Stages`, whose stage rows (`Stages.row`) every walk reads.
An exact tail from any state is `enumerate_tail`, on the caller's table
or a new one; with ramps relaxed, `Stages.values()` holds every tail at
once. Every argmin in the package goes through `tie_band`, which breaks
ties toward the smallest mode read as a binary integer, so sequences
tie-break to the lexicographically smallest one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import quota_rebate, switching_cost, switching_matrix, switching_row
from .errors import BudgetExceededError, UcdError
from .hybrid import Schedule, schedule_text
from .qp import (_check_dispatch, _commitments, _meets_ramps, _ramp_limits, _solved, int_to_mode,
                 mode_to_int)
from .scenario import Scenario, _per_object, _period_index

__all__ = [
    "OracleResult",
    "Stages",
    "enumerate_optimal",
    "enumerate_tail",
    "enumerate_schedule_costs",
    "graph_dp_optimal",
    "DEFAULT_BUDGET",
    "tie_band",
]

DEFAULT_BUDGET = 10_000_000

# two costs within this relative band count as tied and fall through to
# the lexicographic rule, keeping the oracles, the closed loop and the
# compare table on the same argmin
TIE_RTOL = 1e-9


def tie_band(values):
    """(mask, argmin): the mask marks the entries within
    TIE_RTOL * max(1, |min|) of the minimum, and the argmin is its first
    true entry, so ties go to the earliest (smallest mode) entry."""
    v = np.asarray(values, dtype=float)
    best = v.min()
    mask = v <= best + TIE_RTOL * max(1.0, abs(best))
    return mask, int(np.argmax(mask))


@dataclass(frozen=True)
class OracleResult:
    schedule: Schedule
    total_cost: float            # includes the quota rebate
    stage_cost: float            # sum of Q + kappa only
    evaluations: int
    method: str


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def charge(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceededError(self.limit)


# id(scenario) -> {i_prev: switching row}, by `_per_object`
_KAPPA_ROWS = {}


class Stages:
    """Per-period stage data of one scenario, for one top-level call or,
    as a model's table, across closed-loop decisions.

    A stage row holds a period's feasible modes in one form, as
    `qp._solved` returns it: the mode ints (intp, ascending), Q and the
    dispatch matrix, one entry or row per mode. Graph DP, the exact
    walks, training and every closed-loop decision read it (`row`); a
    mode tuple is `qp._commitments(n)[mode int]`. So a decision prices
    every candidate in a fixed number of numpy calls (`clho._step`), and
    `values` and `best_next` read a row's feasible columns only: the
    others are inf, a minimum is exact and the ints ascend, so each
    keeps its bits and its argmin. A period's ramp-relaxed row is solved
    on first use, through `qp.solve` (the `qp` module docstring says
    why), and kept read-only; so is a row of the switching matrix,
    shared by every table of the scenario object.

    With ramps enforced and p_prev given, only the relaxed row's modes
    can be feasible, and a relaxed dispatch that meets its ramp rows
    from p_prev is the ramped optimum (`qp._meets_ramps` says why). The
    other modes are solved under ramps on the lean path of `qp._solved`
    and take their places in a copy of the row, which drops those found
    infeasible; with none, the relaxed row is returned.
    """

    def __init__(self, s: Scenario):
        self.s = s
        self._rows = {}
        self._kappa = _per_object(_KAPPA_ROWS, s, dict)

    def row(self, t: int, p_prev=None):
        """The stage row at t entered from dispatch p_prev (None for the
        ramp-relaxed row): the table's own read-only arrays, or a new
        merged row where a ramp row binds a relaxed twin."""
        row = self._rows.get(t)
        if row is None:
            row = self._rows[t] = _solved(self.s, t, None, range(1 << self.s.n_units))
            for a in row:
                a.flags.writeable = False
        limits = _ramp_limits(self.s, p_prev)
        if limits is None:
            return row
        ints, q, dispatches = row
        modes = _commitments(self.s.n_units)
        met = [_meets_ramps(modes[v], d, limits)
               for v, d in zip(ints.tolist(), dispatches.tolist())]
        if all(met):
            return row
        keep = np.array(met)
        again_ints, again_q, again_d = _solved(self.s, t, limits, ints[~keep].tolist())
        at = ints.searchsorted(again_ints)
        keep[at] = True
        q, dispatches = q.copy(), dispatches.copy()
        q[at], dispatches[at] = again_q, again_d
        return ints[keep], q[keep], dispatches[keep]

    def kappa_row(self, i_prev: int) -> np.ndarray:
        """Row i_prev of the switching matrix, built on first use and
        shared, read-only, by every table of the scenario object."""
        row = self._kappa.get(i_prev)
        if row is None:
            row = self._kappa[i_prev] = switching_row(self.s, i_prev)
            row.flags.writeable = False
        return row

    def values(self, first: int = 1) -> np.ndarray:
        """value[t, ip]: optimal ramp-relaxed tail stage cost entering
        period t with previous mode ip, for t = first..T+1 (row T+1 is 0,
        rows before `first` are left 0 and their periods unsolved);
        computed for every ip, reachable or not, inf with no feasible
        mode at t."""
        T = self.s.horizon
        K = switching_matrix(self.s)
        value = np.zeros((T + 2, 1 << self.s.n_units))
        for t in range(T, first - 1, -1):
            ints, q, _ = self.row(t)
            value[t] = (K[:, ints] + q + value[t + 1, ints]).min(1, initial=np.inf)
        return value

    def best_next(self, value: np.ndarray, t: int, i_prev: int) -> int:
        """Mode int that opens the optimal ramp-relaxed tail entering t
        from previous mode i_prev, given the table from `values()`; mode
        0 when no tail is finite, where every mode ties at inf."""
        ints, q, _ = self.row(t)
        v = self.kappa_row(i_prev)[ints] + q + value[t + 1, ints]
        return int(ints[tie_band(v)[1]]) if np.isfinite(v).any() else 0


class _Bound:
    """Branch-and-bound state of one tail search: `value`, a lower bound
    on every tail (the ramp-relaxed table), and `incumbent`, the cost
    of the cheapest complete tail known (inf until one is)."""

    __slots__ = ("value", "incumbent")

    def __init__(self, value, incumbent):
        self.value = value
        self.incumbent = incumbent

    def cuts(self, spent, t, mi):
        """True when no tail that has spent `spent` and enters t from mode
        mi can land in the tie band of the incumbent. x + band(x) never
        decreases in x, so a tail in the final band of the optimum (which
        is at most the incumbent) is never cut."""
        inc = self.incumbent
        return spent + self.value[t, mi] > inc + TIE_RTOL * max(1.0, abs(inc))


def _incumbent(s, t, ip, p_prev, stages, value):
    """Cost of the ramp-relaxed optimal path from (mode int ip, p_prev)
    entering t, re-dispatched under ramps; inf when a step of it has no
    feasible dispatch under them. Each step is solved as a ramped
    candidate, one mode per call."""
    cost = 0.0
    for tt in range(t, s.horizon + 1):
        mi = stages.best_next(value, tt, ip)
        _, q, dispatches = _solved(s, tt, _ramp_limits(s, p_prev), (mi,))
        if not len(q):
            return np.inf
        p_prev = dispatches[0]
        cost += q.item(0) + stages.kappa_row(ip).item(mi)
        ip = mi
    return cost


def _best_tail(s, t, ip, p_prev, budget, stages, spent=0.0, bound=None):
    """Exact optimal continuation from state (mode int ip, p_prev)
    entering period t, having spent `spent` since the tail's start.
    Returns (stage cost sum, mode int sequence). With a `_Bound`, a child
    the bound cuts is skipped and each leaf offers its cost as the
    incumbent; without one the walk is exhaustive. A leaf, a cut child
    and a dead end (a state with no feasible mode at t) each charge one
    evaluation, so the budget bounds the walk."""
    if t > s.horizon:
        budget.charge()
        if bound is not None and spent < bound.incumbent:
            bound.incumbent = spent
        return 0.0, ()
    ints, q, dispatches = stages.row(t, p_prev)
    if not len(ints):
        budget.charge()
        return np.inf, None
    found, kappa = [], stages.kappa_row(ip)
    for mi, qv, dispatch in zip(ints.tolist(), q.tolist(), dispatches):
        step = qv + kappa.item(mi)
        if bound is not None and bound.cuts(spent + step, t + 1, mi):
            budget.charge()
            continue
        sub, seq = _best_tail(s, t + 1, mi, dispatch, budget, stages, spent + step, bound)
        if seq is not None:
            found.append((step + sub, mi, seq))
    if not found:
        return np.inf, None
    # candidates arrive in ascending mode order, so the first entry in
    # the band heads the lexicographically smallest sequence
    cost, mi, seq = found[tie_band([f[0] for f in found])[1]]
    return cost, (mi,) + seq


def enumerate_optimal(s: Scenario, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact optimum by walking the mode tree from the initial state:
    exhaustive with ramps relaxed, branch and bound with ramps enforced.
    The budget caps the evaluations, one per leaf reached, per child the
    bound cuts and per dead end (a state with no feasible mode), so it
    bounds the walk; BudgetExceededError when it runs out."""
    b = _Budget(budget)
    cost, seq = _tail(Stages(s), 1, mode_to_int(s.initial_commitment), s.initial_dispatch, b)
    if seq is None:
        raise UcdError("no feasible schedule exists for this scenario")
    return OracleResult(
        schedule=Schedule(seq), total_cost=cost - quota_rebate(s), stage_cost=cost,
        evaluations=b.used, method="enumerate",
    )


def enumerate_tail(s: Scenario, t: int, i_prev, p_prev,
                   budget: int = DEFAULT_BUDGET, stages: Stages | None = None):
    """Exact tail: optimal cost and mode sequence from an arbitrary state
    entering period t, walked like `enumerate_optimal` and under the same
    budget. Tail costs carry no rebate (it is a horizon constant,
    charged once by whoever assembles the full objective). `stages`, a
    table of `s` the caller already holds, spares re-solving its rows.
    A t that is not an integer in 1..T+1 (T+1 enters the empty tail)
    raises ScenarioError; a previous dispatch other than N or N+2 finite
    entries >= 0, or a table of another scenario object, ValueError."""
    t = _period_index(t, s.horizon + 1)
    _check_dispatch(p_prev, s.n_units)
    if stages is None:
        stages = Stages(s)
    elif stages.s is not s:
        raise ValueError("stages must be a table of the scenario object s")
    return _tail(stages, t, mode_to_int(i_prev, s.n_units), p_prev, _Budget(budget))


def _tail(stages, t, ip, p_prev, budget):
    """The walk from one state, previous mode int ip, on the table's
    scenario. With ramps enforced it is bounded by rows t+1..T of the
    ramp-relaxed table and starts from the relaxed path's incumbent,
    which caches row t too."""
    s = stages.s
    bound = None
    if s.ramp_enforced:
        value = stages.values(first=t + 1)
        bound = _Bound(value, _incumbent(s, t, ip, p_prev, stages, value))
    cost, seq = _best_tail(s, t, ip, p_prev, budget, stages, 0.0, bound)
    if seq is None:
        return np.inf, None
    return cost, tuple(int_to_mode(v, s.n_units) for v in seq)


def enumerate_schedule_costs(s: Scenario, budget: int = DEFAULT_BUDGET):
    """Every feasible schedule as (text, total cost), in lexicographic
    order. Costs include the quota rebate so they match run_schedule.
    The budget caps the evaluations, one per schedule listed and one per
    dead end (a prefix with no feasible mode next); BudgetExceededError
    when it runs out."""
    b = _Budget(budget)
    stages = Stages(s)
    rebate = quota_rebate(s)
    modes = _commitments(s.n_units)
    out = []

    def walk(t, i_prev, p_prev, prefix, acc):
        if t > s.horizon:
            b.charge()
            out.append((schedule_text(prefix), float(acc - rebate)))
            return
        ints, q, dispatches = stages.row(t, p_prev)
        if not len(ints):
            b.charge()
        for mi, qv, dispatch in zip(ints.tolist(), q.tolist(), dispatches):
            mode = modes[mi]
            step = qv + switching_cost(s, i_prev, mode)
            prefix.append(mode)
            walk(t + 1, mode, dispatch, prefix, acc + step)
            prefix.pop()

    walk(1, s.initial_commitment, np.array(s.initial_dispatch), [], 0.0)
    return out


def graph_dp_optimal(s: Scenario) -> OracleResult:
    """Shortest path on the layered commitment graph.

    Exact precisely when ramps are relaxed (stage cost depends on (t, I)
    only); refuses to run otherwise.
    """
    if s.ramp_enforced:
        raise UcdError("graph DP requires ramp_enforced: false (stage costs "
                       "must not depend on the previous dispatch)")
    stages = Stages(s)
    for t in range(1, s.horizon + 1):
        if not len(stages.row(t)[0]):
            raise UcdError(f"no feasible commitment at period t={t}")
    value = stages.values()

    ip = mode_to_int(s.initial_commitment)
    total = float(value[1, ip])
    if not np.isfinite(total):
        raise UcdError("no feasible schedule exists for this scenario")
    seq = []
    for t in range(1, s.horizon + 1):
        ip = stages.best_next(value, t, ip)
        seq.append(int_to_mode(ip, s.n_units))
    return OracleResult(
        schedule=Schedule(tuple(seq)), total_cost=total - quota_rebate(s), stage_cost=total,
        evaluations=s.horizon << s.n_units, method="graph",
    )
