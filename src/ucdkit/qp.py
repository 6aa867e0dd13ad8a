"""Per-period economic dispatch as a strictly convex QP.

For a fixed commitment vector I the lower-level problem picks the cheapest
dispatch: committed units plus the DG and DR coordinates are free, everything
else is eliminated (fixed at exactly 0, not constrained to 0). Constraint
rows, in order:

  balance        sum of free coordinates = demand
  reserve_lo     sum p_min over committed + dg + dr <= demand - reserve_lo
  reserve_hi     sum p_max over committed + dg + dr >= demand + reserve_hi
  cap_lo/cap_hi  p_min <= x_n <= p_max per committed unit
  ramp_dn/ramp_up  -ramp_down <= x_n - prev_n <= ramp_up, only when ramps are
                 enforced and the unit ran in the previous period (prev_n > 0)
  dg_lo/dg_hi    0 <= dg <= dg cap
  penetration    (1 - eta) dg - eta * sum of committed thermal <= 0
  dr_lo/dr_hi    0 <= dr <= dr cap

The reserve rows only carry coefficients on the dg/dr coordinates; their
thermal part is a constant, so with neither resource present they degenerate
to pure feasibility checks, which the kernel handles as zero-normal rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import _kernels
from .costs import running_cost
from .errors import InfeasibleModeError, QpNumericalError
from .scenario import Scenario

__all__ = [
    "QpProblem",
    "QpSolution",
    "assemble",
    "solve",
    "kkt_residual",
    "mode_dynamics",
    "mode_candidates",
    "KKT_TOL",
]

KKT_TOL = 1e-8       # certified residual bound on every optimal solution
FEAS_TOL = 1e-9
PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class QpProblem:
    """Assembled dispatch QP for one (t, I) pair.

    Arrays cover only the free coordinates; ``free`` maps each column to
    its index in the length-N+2 dispatch vector.
    """

    t: int
    commitment: tuple[int, ...]
    free: tuple[int, ...]
    hdiag: np.ndarray
    glin: np.ndarray
    const: float
    beq: float
    G: np.ndarray          # (m, n_free) rows, G x <= h
    h: np.ndarray
    labels: tuple[str, ...]
    n_units: int

    @property
    def n_free(self) -> int:
        return len(self.free)


@dataclass(frozen=True)
class QpSolution:
    status: str                       # "optimal" | "infeasible"
    dispatch: np.ndarray | None       # length N+2, uncommitted coords exactly 0
    objective_value: float | None
    eq_multiplier: float | None
    ineq_multipliers: np.ndarray | None
    active_set: tuple[str, ...] = ()
    kkt: float | None = None
    iterations: int = 0
    certificate: dict = field(default_factory=dict)


def assemble(s: Scenario, t: int, commitment, p_prev=None) -> QpProblem:
    """Build the dispatch QP for period t under commitment I.

    p_prev supplies the previous dispatch for ramp coupling; passing None
    assembles the ramp-relaxed subproblem regardless of the scenario flag.
    """
    per = s.period(t)
    n_units = s.n_units
    entries = tuple(commitment)
    # checked before int(), which would read 1.9 as 1
    if len(entries) != n_units or not all(map((0, 1).__contains__, entries)):
        raise ValueError(f"commitment must be {n_units} binary entries, got {commitment!r}")
    bits = tuple(map(int, entries))
    p_e = s.cet.price
    on = [(n, s.units[n]) for n in range(n_units) if bits[n]]
    nc = len(on)
    dg_on = per.dg_max > 0.0
    dr_on = per.dr_max > 0.0
    free = [n for n, _ in on] + [n_units] * dg_on + [n_units + 1] * dr_on
    nf = len(free)

    hdiag = [2.0 * (u.a + p_e * u.alpha) for _, u in on]
    glin = [u.b + p_e * u.beta for _, u in on]
    if dg_on:
        hdiag.append(2.0 * s.dg.a)
        glin.append(s.dg.b)
    if dr_on:
        hdiag.append(2.0 * s.dr.a)
        glin.append(s.dr.b)
    const = sum(u.c + p_e * u.gamma for _, u in on)
    const += s.dg.c + s.dr.c

    pmin_sum = sum(u.p_min for _, u in on)
    pmax_sum = sum(u.p_max for _, u in on)

    # rows in order, G x <= h; G is +1 at the flat indices in `plus`, -1
    # at those in `minus`, 0 elsewhere save for the penetration row
    labels = ["reserve_lo", "reserve_hi"]
    h = [per.demand - per.reserve_lo - pmin_sum, pmax_sum - per.demand - per.reserve_hi]
    plus = list(range(nc, nf))
    minus = list(range(nf + nc, 2 * nf))
    ramped = s.ramp_enforced and p_prev is not None
    names = _unit_labels(n_units)
    for col, (n, u) in enumerate(on):
        at = len(h) * nf + col
        plus.append(at)
        minus.append(at + nf)
        h += (u.p_max, -u.p_min)
        hi, lo, up, dn = names[n]
        labels += (hi, lo)
        if ramped and p_prev[n] > 0.0:
            if u.ramp_up is not None:
                plus.append(len(h) * nf + col)
                h.append(float(p_prev[n]) + u.ramp_up)
                labels.append(up)
            if u.ramp_down is not None:
                minus.append(len(h) * nf + col)
                h.append(u.ramp_down - float(p_prev[n]))
                labels.append(dn)
    if dg_on:
        pen = len(h) + 2
        plus.append(len(h) * nf + nc)
        minus.append(len(h) * nf + nf + nc)
        h += (per.dg_max, 0.0, 0.0)
        labels += ("dg_hi", "dg_lo", "penetration")
    if dr_on:
        plus.append(len(h) * nf + nf - 1)
        minus.append(len(h) * nf + 2 * nf - 1)
        h += (per.dr_max, 0.0)
        labels += ("dr_hi", "dr_lo")

    G = np.zeros(len(h) * nf)
    G.put(plus, 1.0)
    G.put(minus, -1.0)
    G = G.reshape(len(h), nf)
    if dg_on:
        G[pen, :nc] = -s.eta_max
        G[pen, nc] = 1.0 - s.eta_max
    return QpProblem(
        t=t, commitment=bits, free=tuple(free),
        hdiag=np.array(hdiag, dtype=float), glin=np.array(glin, dtype=float),
        const=float(const), beq=float(per.demand), G=G, h=np.array(h, dtype=float),
        labels=tuple(labels), n_units=n_units,
    )


@cache
def _unit_labels(n_units):
    """Per unit, the labels of its cap_hi, cap_lo, ramp_up and ramp_dn rows."""
    return [tuple(f"{row}[{n}]" for row in ("cap_hi", "cap_lo", "ramp_up", "ramp_dn"))
            for n in range(n_units)]


def _expand(q: QpProblem, x: np.ndarray) -> np.ndarray:
    full = np.zeros(q.n_units + 2)
    full[list(q.free)] = x
    return full


def solve(q: QpProblem) -> QpSolution:
    """Solve the assembled QP.

    Returns the unique minimizer with multipliers and a certified KKT
    residual, or an infeasible verdict with the offending row. A kernel
    breakdown (never observed on well-formed problems) raises
    QpNumericalError rather than returning an uncertified point.
    """
    nf = q.n_free
    m = len(q.h)
    if nf == 0:
        # nothing to dispatch: feasible iff the balance and the constant
        # rows hold with every coordinate at 0
        tol = FEAS_TOL * max(1.0, abs(q.beq))
        if abs(q.beq) > tol:
            return QpSolution(
                status="infeasible", dispatch=None, objective_value=None,
                eq_multiplier=None, ineq_multipliers=None,
                certificate={"row": "balance", "violation": abs(q.beq)},
            )
        for i in range(m):
            if q.h[i] < -FEAS_TOL:
                return QpSolution(
                    status="infeasible", dispatch=None, objective_value=None,
                    eq_multiplier=None, ineq_multipliers=None,
                    certificate={"row": q.labels[i], "violation": -float(q.h[i])},
                )
        return QpSolution(
            status="optimal", dispatch=np.zeros(q.n_units + 2),
            objective_value=q.const, eq_multiplier=0.0,
            ineq_multipliers=np.zeros(m), active_set=(), kkt=0.0,
        )

    # kernel convention: C x >= b with the balance equality first
    C = np.empty((m + 1, nf))
    b = np.empty(m + 1)
    C[0] = 1.0
    b[0] = q.beq
    np.negative(q.G, out=C[1:])
    np.negative(q.h, out=b[1:])
    max_iter = 100 + 50 * (m + 1)
    status, x, w, iters, bad = _kernels.qp_core(
        q.hdiag, q.glin, C, b, FEAS_TOL, PIVOT_TOL, max_iter,
    )
    if status == _kernels.INFEASIBLE:
        label = "balance" if bad == 0 else q.labels[bad - 1]
        slack = float(np.dot(C[bad], x) - b[bad])
        return QpSolution(
            status="infeasible", dispatch=None, objective_value=None,
            eq_multiplier=None, ineq_multipliers=None,
            certificate={"row": label, "violation": max(0.0, -slack)},
            iterations=iters,
        )
    if status != _kernels.OPTIMAL:
        raise QpNumericalError(
            f"QP kernel failed at t={q.t}, commitment "
            f"{''.join(map(str, q.commitment))} (status {status}, {iters} iterations)"
        )

    lam = -float(w[0])
    mu = w[1:].copy()
    obj = float(0.5 * np.dot(q.hdiag * x, x) + np.dot(q.glin, x) + q.const)
    slack = q.G @ x - q.h
    active = tuple(label for label, mi, si in zip(q.labels, mu.tolist(), slack.tolist())
                   if mi > 0.0 or si > -1e-7)
    resid = _residual(q, x, lam, mu, slack)
    if resid > KKT_TOL:
        raise QpNumericalError(
            f"KKT residual {resid:.3e} exceeds {KKT_TOL:.0e} at t={q.t}, "
            f"commitment {''.join(map(str, q.commitment))}"
        )
    return QpSolution(
        status="optimal", dispatch=_expand(q, x), objective_value=obj,
        eq_multiplier=lam, ineq_multipliers=mu, active_set=active,
        kkt=float(resid), iterations=iters,
    )


def kkt_residual(q: QpProblem, sol: QpSolution) -> float:
    """Max-norm KKT residual of an optimal solution: stationarity, primal
    feasibility (equality and inequality), dual feasibility, and
    complementary slackness."""
    if sol.status != "optimal":
        raise ValueError("kkt_residual is defined for optimal solutions only")
    if q.n_free == 0:
        return abs(q.beq)
    x = sol.dispatch[list(q.free)]
    return _residual(q, x, sol.eq_multiplier, sol.ineq_multipliers, q.G @ x - q.h)


def _residual(q, x, lam, mu, slack):
    """kkt_residual on the free coordinates x, given slack = G x - h."""
    stat = q.hdiag * x + q.glin + lam + (q.G.T @ mu if len(mu) else 0.0)
    r = float(np.abs(stat).max())
    r = max(r, abs(float(x.sum()) - q.beq))
    if len(mu):
        r = max(r, float(slack.max(initial=0.0)))
        r = max(r, float((-mu).max(initial=0.0)))
        r = max(r, float(np.abs(mu * slack).max(initial=0.0)))
    return r


def mode_dynamics(s: Scenario, t: int, commitment, p_prev=None) -> np.ndarray:
    """Dispatch the mode: f_I(p_prev), the unique cost-minimizing dispatch.

    Raises InfeasibleModeError when the commitment admits no feasible
    dispatch at period t from the given previous state.
    """
    sol = solve(assemble(s, t, commitment, p_prev))
    if sol.status != "optimal":
        cert = sol.certificate
        detail = f"row {cert.get('row')}" if cert else ""
        raise InfeasibleModeError(t, commitment, detail)
    return sol.dispatch


@cache
def _commitments(n):
    """Every commitment of n units as a tuple, indexed by its binary
    integer (unit 1 = MSB); built once per n, so every candidate of every
    period and stage table holds one of the same 2^n tuples."""
    return [tuple((v >> (n - 1 - i)) & 1 for i in range(n)) for v in range(1 << n)]


def mode_candidates(s: Scenario, t: int, p_prev=None, modes=None):
    """All feasible (commitment, dispatch, running_cost) triples at period t,
    ordered by the commitment read as a binary integer (unit 1 = MSB).
    `modes`, ascending mode ints, limits the solves to those commitments."""
    commitments = _commitments(s.n_units)
    out = []
    for v in range(len(commitments)) if modes is None else modes:
        bits = commitments[v]
        sol = solve(assemble(s, t, bits, p_prev))
        if sol.status == "optimal":
            out.append((bits, sol.dispatch, running_cost(s, bits, sol.dispatch)))
    return out
