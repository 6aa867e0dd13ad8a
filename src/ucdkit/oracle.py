"""Exact solvers: exhaustive enumeration and layered-graph DP.

Both return certified optima. Enumeration walks the full mode tree
carrying the dispatch state, so it is exact even with ramp coupling;
the graph DP exploits that without ramp rows the stage cost depends
only on (t, I), collapsing the problem to a shortest path over 2^N
nodes per layer. Ties are broken toward the lexicographically smallest
sequence of modes read as binary integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import quota_rebate, running_cost, switching_cost
from .errors import BudgetExceededError, UcdError
from .hybrid import Schedule, int_to_mode, mode_to_int, schedule_text
from .qp import mode_candidates
from .scenario import Scenario

__all__ = [
    "OracleResult",
    "enumerate_optimal",
    "enumerate_tail",
    "enumerate_schedule_costs",
    "graph_dp_optimal",
    "exact_value_table",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10_000_000

# two costs within this relative band count as tied and fall through to
# the lexicographic rule, keeping the oracles, the closed loop and the
# compare table on the same argmin
TIE_RTOL = 1e-9


def tie_tol(value: float) -> float:
    """Absolute tie band around a cost: TIE_RTOL relative, floor 1."""
    return TIE_RTOL * max(1.0, abs(value))


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


def _candidates(s, t, p_prev, cache):
    """Feasible (mode, dispatch, Q) at t; cached on t when the dispatch
    cannot depend on the previous state."""
    if cache is None:
        return mode_candidates(s, t, p_prev)
    got = cache.get(t)
    if got is None:
        got = mode_candidates(s, t, None)
        cache[t] = got
    return got


def _best_tail(s, t, i_prev, p_prev, budget, cache):
    """Exact optimal continuation from state (i_prev, p_prev) entering
    period t. Returns (stage cost sum, mode tuple sequence)."""
    if t > s.horizon:
        budget.charge()
        return 0.0, ()
    best = np.inf
    best_seq = None
    for mode, dispatch, q in _candidates(s, t, p_prev, cache):
        step = q + switching_cost(s, i_prev, mode)
        sub, seq = _best_tail(s, t + 1, mode, dispatch, budget, cache)
        if seq is None:
            continue
        tot = step + sub
        cand = (mode_to_int(mode),) + seq
        if best_seq is None or tot < best - tie_tol(best) or (
            abs(tot - best) <= tie_tol(best) and cand < best_seq
        ):
            best = tot
            best_seq = cand
    if best_seq is None:
        return np.inf, None
    return best, best_seq


def enumerate_optimal(s: Scenario, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Method of exhaustion over the full mode tree."""
    b = _Budget(budget)
    cache = None if s.ramp_enforced else {}
    cost, seq = _best_tail(
        s, 1, s.initial_commitment, np.array(s.initial_dispatch), b, cache
    )
    if seq is None:
        raise UcdError("no feasible schedule exists for this scenario")
    sched = Schedule(tuple(int_to_mode(v, s.n_units) for v in seq))
    return OracleResult(
        schedule=sched, total_cost=cost - quota_rebate(s), stage_cost=cost,
        evaluations=b.used, method="enumerate",
    )


def enumerate_tail(s: Scenario, t: int, i_prev, p_prev,
                   budget: int = DEFAULT_BUDGET):
    """Exact tail: optimal cost and mode sequence from an arbitrary state
    entering period t. Tail costs carry no rebate (it is a horizon
    constant, charged once by whoever assembles the full objective)."""
    b = _Budget(budget)
    cache = None if s.ramp_enforced else {}
    cost, seq = _best_tail(s, t, tuple(int(x) for x in i_prev),
                           np.asarray(p_prev, dtype=float), b, cache)
    if seq is None:
        return np.inf, None
    return cost, tuple(int_to_mode(v, s.n_units) for v in seq)


def enumerate_schedule_costs(s: Scenario, budget: int = DEFAULT_BUDGET):
    """Every feasible schedule as (text, total cost), in lexicographic
    order. Costs include the quota rebate so they match run_schedule."""
    b = _Budget(budget)
    cache = None if s.ramp_enforced else {}
    rebate = quota_rebate(s)
    out = []

    def walk(t, i_prev, p_prev, prefix, acc):
        if t > s.horizon:
            b.charge()
            out.append((schedule_text(prefix), float(acc - rebate)))
            return
        for mode, dispatch, q in _candidates(s, t, p_prev, cache):
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
    n = s.n_units
    T = s.horizon
    evals = 0
    layers = []
    for t in range(1, T + 1):
        cands = mode_candidates(s, t, None)
        evals += 1 << n
        if not cands:
            raise UcdError(f"no feasible commitment at period t={t}")
        layers.append([(mode_to_int(m), m, q) for m, _, q in cands])

    # value[t][ip] = optimal tail stage cost entering period t with
    # previous mode ip; computed for every ip, reachable or not
    n_modes = 1 << n
    value = np.zeros((T + 2, n_modes))
    for t in range(T, 0, -1):
        for ip in range(n_modes):
            prev_bits = int_to_mode(ip, n)
            best = np.inf
            for mi, mode, q in layers[t - 1]:
                v = switching_cost(s, prev_bits, mode) + q + value[t + 1, mi]
                if v < best:
                    best = v
            value[t, ip] = best

    ip = mode_to_int(s.initial_commitment)
    total = float(value[1, ip])
    if not np.isfinite(total):
        raise UcdError("no feasible schedule exists for this scenario")
    seq = []
    prev_bits = s.initial_commitment
    for t in range(1, T + 1):
        target = value[t, mode_to_int(prev_bits)]
        chosen = None
        for mi, mode, q in layers[t - 1]:  # ascending mode int: lex tie-break
            v = switching_cost(s, prev_bits, mode) + q + value[t + 1, mi]
            if abs(v - target) <= tie_tol(target):
                chosen = mode
                break
        if chosen is None:
            # tolerance windows can miss by a hair; fall back to the argmin
            v_best = np.inf
            for mi, mode, q in layers[t - 1]:
                v = switching_cost(s, prev_bits, mode) + q + value[t + 1, mi]
                if v < v_best:
                    v_best = v
                    chosen = mode
        seq.append(chosen)
        prev_bits = chosen
    sched = Schedule(tuple(seq))
    return OracleResult(
        schedule=sched, total_cost=total - quota_rebate(s), stage_cost=total,
        evaluations=evals, method="graph",
    )


def exact_value_table(s: Scenario, states=None, samples: int = 3, seed: int = 0,
                      budget: int = DEFAULT_BUDGET):
    """Exact tail costs for a set of states.

    states: iterable of (t, commitment, dispatch) triples; when omitted,
    `samples` random dispatch states are drawn per (t, feasible previous
    mode) the way the trainer samples. Returns {(t, mode bits, dispatch
    tuple): {"value": float, "argmin": first tail mode}}.
    """
    rng = np.random.default_rng(seed)
    if states is None:
        states = []
        prev_layers = {1: [s.initial_commitment]}
        for t in range(2, s.horizon + 1):
            prev_layers[t] = [m for m, _, _ in mode_candidates(s, t - 1, None)]
        for t in range(1, s.horizon + 1):
            per = s.period(max(t - 1, 1))
            for i_prev in prev_layers[t]:
                for _ in range(samples):
                    p = np.zeros(s.n_units + 2)
                    for nn, u in enumerate(s.units):
                        if i_prev[nn]:
                            p[nn] = rng.uniform(u.p_min, u.p_max)
                    p[s.n_units] = rng.uniform(0.0, per.dg_max) if per.dg_max > 0 else 0.0
                    p[s.n_units + 1] = rng.uniform(0.0, per.dr_max) if per.dr_max > 0 else 0.0
                    states.append((t, i_prev, p))
    table = {}
    for t, i_prev, p_prev in states:
        cost, seq = enumerate_tail(s, t, i_prev, p_prev, budget)
        key = (t, tuple(int(x) for x in i_prev),
               tuple(float(v) for v in np.asarray(p_prev)))
        table[key] = {
            "value": float(cost),
            "argmin": None if seq is None or not seq else seq[0],
        }
    return table
