"""Exact solvers: exhaustive enumeration and layered-graph DP.

Both return certified optima. Enumeration walks the full mode tree
carrying the dispatch state, so it is exact even with ramp coupling.
Without ramp rows the stage cost depends only on (t, I), so graph DP is
a shortest path over 2^N nodes per layer, each layer one vectorised min
over K + Q + V (K the switching matrix). Each top-level call solves a
ramp-relaxed (t, mode) at most once, through one `Stages`. Every argmin
in the package goes through `tie_band`, which breaks ties toward the
smallest mode read as a binary integer, so sequences tie-break to the
lexicographically smallest one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import quota_rebate, switching_cost, switching_matrix, switching_row
from .errors import BudgetExceededError, UcdError
from .hybrid import Schedule, int_to_mode, mode_to_int, schedule_text
from .qp import mode_candidates
from .scenario import Scenario

__all__ = [
    "OracleResult",
    "Stages",
    "enumerate_optimal",
    "enumerate_tail",
    "enumerate_schedule_costs",
    "graph_dp_optimal",
    "exact_value_table",
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


class Stages:
    """Per-period stage data of one scenario, for one top-level call.

    A period's row is solved on first use and cached, unless ramps can
    couple it to the previous dispatch (ramps enforced and p_prev given).
    """

    def __init__(self, s: Scenario):
        self.s = s
        self._rows = {}
        self._kappa = {}

    def candidates(self, t: int, p_prev=None):
        """Feasible (mode int, mode, dispatch, Q) at t, ascending mode int."""
        if self.s.ramp_enforced and p_prev is not None:
            return _tagged(mode_candidates(self.s, t, p_prev))
        if t not in self._rows:
            self._rows[t] = _tagged(mode_candidates(self.s, t, None))
        return self._rows[t]

    def q(self, t: int) -> np.ndarray:
        """Ramp-relaxed Q at t over all 2^N modes, inf where infeasible."""
        out = np.full(1 << self.s.n_units, np.inf)
        for mi, _, _, q in self.candidates(t):
            out[mi] = q
        return out

    def kappa_row(self, i_prev: int) -> np.ndarray:
        """Row i_prev of the switching matrix, built on first use."""
        if i_prev not in self._kappa:
            self._kappa[i_prev] = switching_row(self.s, i_prev)
        return self._kappa[i_prev]

    def values(self) -> np.ndarray:
        """value[t, ip]: optimal ramp-relaxed tail stage cost entering
        period t with previous mode ip, for t = 1..T+1 (row T+1 is 0);
        computed for every ip, reachable or not."""
        T = self.s.horizon
        K = switching_matrix(self.s)
        value = np.zeros((T + 2, 1 << self.s.n_units))
        for t in range(T, 0, -1):
            value[t] = (K + self.q(t) + value[t + 1]).min(1)
        return value

    def best_next(self, value: np.ndarray, t: int, i_prev: int) -> int:
        """Mode int that opens the optimal ramp-relaxed tail entering t
        from previous mode i_prev, given the table from `values()`."""
        return tie_band(self.kappa_row(i_prev) + self.q(t) + value[t + 1])[1]


def _tagged(cands):
    return [(mode_to_int(m), m, d, q) for m, d, q in cands]


def _best_tail(s, t, i_prev, p_prev, budget, stages):
    """Exact optimal continuation from state (i_prev, p_prev) entering
    period t. Returns (stage cost sum, mode int sequence)."""
    if t > s.horizon:
        budget.charge()
        return 0.0, ()
    found = []
    for mi, mode, dispatch, q in stages.candidates(t, p_prev):
        sub, seq = _best_tail(s, t + 1, mode, dispatch, budget, stages)
        if seq is not None:
            found.append((q + switching_cost(s, i_prev, mode) + sub, mi, seq))
    if not found:
        return np.inf, None
    # candidates arrive in ascending mode order, so the first entry in
    # the band heads the lexicographically smallest sequence
    cost, mi, seq = found[tie_band([f[0] for f in found])[1]]
    return cost, (mi,) + seq


def enumerate_optimal(s: Scenario, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Method of exhaustion over the full mode tree."""
    b = _Budget(budget)
    cost, seq = _tail(s, 1, s.initial_commitment, s.initial_dispatch, b, Stages(s))
    if seq is None:
        raise UcdError("no feasible schedule exists for this scenario")
    return OracleResult(
        schedule=Schedule(seq), total_cost=cost - quota_rebate(s), stage_cost=cost,
        evaluations=b.used, method="enumerate",
    )


def enumerate_tail(s: Scenario, t: int, i_prev, p_prev,
                   budget: int = DEFAULT_BUDGET):
    """Exact tail: optimal cost and mode sequence from an arbitrary state
    entering period t. Tail costs carry no rebate (it is a horizon
    constant, charged once by whoever assembles the full objective)."""
    return _tail(s, t, i_prev, p_prev, _Budget(budget), Stages(s))


def _tail(s, t, i_prev, p_prev, budget, stages):
    cost, seq = _best_tail(s, t, tuple(int(x) for x in i_prev),
                           np.asarray(p_prev, dtype=float), budget, stages)
    if seq is None:
        return np.inf, None
    return cost, tuple(int_to_mode(v, s.n_units) for v in seq)


def enumerate_schedule_costs(s: Scenario, budget: int = DEFAULT_BUDGET):
    """Every feasible schedule as (text, total cost), in lexicographic
    order. Costs include the quota rebate so they match run_schedule."""
    b = _Budget(budget)
    stages = Stages(s)
    rebate = quota_rebate(s)
    out = []

    def walk(t, i_prev, p_prev, prefix, acc):
        if t > s.horizon:
            b.charge()
            out.append((schedule_text(prefix), float(acc - rebate)))
            return
        for _, mode, dispatch, q in stages.candidates(t, p_prev):
            step = q + switching_cost(s, i_prev, mode)
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
        if not stages.candidates(t):
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


def exact_value_table(s: Scenario, states=None, samples: int = 3, seed: int = 0,
                      budget: int = DEFAULT_BUDGET):
    """Exact tail costs for a set of states.

    states: iterable of (t, commitment, dispatch) triples; when omitted,
    `samples` random dispatch states are drawn per (t, feasible previous
    mode) the way the trainer samples. Returns {(t, mode bits, dispatch
    tuple): {"value": float, "argmin": first tail mode}}. With ramps
    relaxed the tails are read from the graph-DP value table and the
    budget goes unused; with ramps enforced each is enumerated under it.
    """
    rng = np.random.default_rng(seed)
    stages = Stages(s)
    if states is None:
        states = []
        for t in range(1, s.horizon + 1):
            per = s.period(max(t - 1, 1))
            prev = ([s.initial_commitment] if t == 1
                    else [m for _, m, _, _ in stages.candidates(t - 1)])
            for i_prev in prev:
                for _ in range(samples):
                    p = np.zeros(s.n_units + 2)
                    for nn, u in enumerate(s.units):
                        if i_prev[nn]:
                            p[nn] = rng.uniform(u.p_min, u.p_max)
                    p[s.n_units] = rng.uniform(0.0, per.dg_max) if per.dg_max > 0 else 0.0
                    p[s.n_units + 1] = rng.uniform(0.0, per.dr_max) if per.dr_max > 0 else 0.0
                    states.append((t, i_prev, p))
    value = None if s.ramp_enforced else stages.values()
    table = {}
    for t, i_prev, p_prev in states:
        if value is None:
            cost, seq = _tail(s, t, i_prev, p_prev, _Budget(budget), stages)
            first = seq[0] if seq else None
        else:
            cost, first = _table_tail(stages, value, t, mode_to_int(i_prev))
        key = (t, tuple(int(x) for x in i_prev),
               tuple(float(v) for v in np.asarray(p_prev)))
        table[key] = {"value": float(cost), "argmin": first}
    return table


def _table_tail(stages, value, t, ip):
    """(cost, first mode) of the ramp-relaxed exact tail entering t from
    previous mode ip: what enumeration returns, read off the table."""
    if t > stages.s.horizon:
        return 0.0, None
    cost = value[t, ip]
    if not np.isfinite(cost):
        return cost, None
    return cost, int_to_mode(stages.best_next(value, t, ip), stages.s.n_units)
