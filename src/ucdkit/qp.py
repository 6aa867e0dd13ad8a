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
    bits = tuple(int(b) for b in commitment)
    if len(bits) != n_units or any(b not in (0, 1) for b in bits):
        raise ValueError(f"commitment must be {n_units} binary entries, got {commitment!r}")
    p_e = s.cet.price

    committed = [n for n in range(n_units) if bits[n]]
    free = list(committed)
    dg_on = per.dg_max > 0.0
    dr_on = per.dr_max > 0.0
    dg_col = dr_col = -1
    if dg_on:
        dg_col = len(free)
        free.append(n_units)
    if dr_on:
        dr_col = len(free)
        free.append(n_units + 1)
    nf = len(free)

    hdiag = np.empty(nf)
    glin = np.empty(nf)
    for col, n in enumerate(free):
        if n < n_units:
            u = s.units[n]
            hdiag[col] = 2.0 * (u.a + p_e * u.alpha)
            glin[col] = u.b + p_e * u.beta
        elif n == n_units:
            hdiag[col] = 2.0 * s.dg.a
            glin[col] = s.dg.b
        else:
            hdiag[col] = 2.0 * s.dr.a
            glin[col] = s.dr.b
    const = sum(s.units[n].c + p_e * s.units[n].gamma for n in committed)
    const += s.dg.c + s.dr.c

    pmin_sum = sum(s.units[n].p_min for n in committed)
    pmax_sum = sum(s.units[n].p_max for n in committed)

    rows = []
    rhs = []
    labels = []

    def add(coeffs, bound, label):
        row = np.zeros(nf)
        for col, v in coeffs:
            row[col] = v
        rows.append(row)
        rhs.append(bound)
        labels.append(label)

    virt_cols = [c for c in (dg_col, dr_col) if c >= 0]
    add([(c, 1.0) for c in virt_cols], per.demand - per.reserve_lo - pmin_sum, "reserve_lo")
    add([(c, -1.0) for c in virt_cols], pmax_sum - per.demand - per.reserve_hi, "reserve_hi")

    for col, n in enumerate(free):
        if n >= n_units:
            continue
        u = s.units[n]
        add([(col, 1.0)], u.p_max, f"cap_hi[{n}]")
        add([(col, -1.0)], -u.p_min, f"cap_lo[{n}]")
        if s.ramp_enforced and p_prev is not None and p_prev[n] > 0.0:
            if u.ramp_up is not None:
                add([(col, 1.0)], float(p_prev[n]) + u.ramp_up, f"ramp_up[{n}]")
            if u.ramp_down is not None:
                add([(col, -1.0)], u.ramp_down - float(p_prev[n]), f"ramp_dn[{n}]")

    if dg_on:
        add([(dg_col, 1.0)], per.dg_max, "dg_hi")
        add([(dg_col, -1.0)], 0.0, "dg_lo")
        pen = [(dg_col, 1.0 - s.eta_max)]
        pen += [(col, -s.eta_max) for col, n in enumerate(free) if n < n_units]
        add(pen, 0.0, "penetration")
    if dr_on:
        add([(dr_col, 1.0)], per.dr_max, "dr_hi")
        add([(dr_col, -1.0)], 0.0, "dr_lo")

    G = np.array(rows, dtype=float).reshape(len(rows), nf)
    h = np.array(rhs, dtype=float)
    return QpProblem(
        t=t, commitment=bits, free=tuple(free), hdiag=hdiag, glin=glin,
        const=float(const), beq=float(per.demand), G=G, h=h,
        labels=tuple(labels), n_units=n_units,
    )


def _expand(q: QpProblem, x: np.ndarray) -> np.ndarray:
    full = np.zeros(q.n_units + 2)
    for col, n in enumerate(q.free):
        full[n] = x[col]
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
    C[0, :] = 1.0
    b[0] = q.beq
    C[1:, :] = -q.G
    b[1:] = -q.h
    max_iter = 100 + 50 * (m + 1)
    status, x, w, iters, bad = _kernels.qp_core(
        q.hdiag, q.glin, C, b, 1, FEAS_TOL, PIVOT_TOL, max_iter,
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
    mu = np.asarray(w[1:]).copy()
    obj = float(0.5 * np.dot(q.hdiag * x, x) + np.dot(q.glin, x) + q.const)
    slacks = q.G @ x - q.h
    active = tuple(
        q.labels[i] for i in range(m) if mu[i] > 0.0 or slacks[i] > -1e-7
    )
    sol = QpSolution(
        status="optimal", dispatch=_expand(q, x), objective_value=obj,
        eq_multiplier=lam, ineq_multipliers=mu, active_set=active,
        iterations=iters,
    )
    resid = kkt_residual(q, sol)
    if resid > KKT_TOL:
        raise QpNumericalError(
            f"KKT residual {resid:.3e} exceeds {KKT_TOL:.0e} at t={q.t}, "
            f"commitment {''.join(map(str, q.commitment))}"
        )
    object.__setattr__(sol, "kkt", float(resid))
    return sol


def kkt_residual(q: QpProblem, sol: QpSolution) -> float:
    """Max-norm KKT residual of an optimal solution: stationarity, primal
    feasibility (equality and inequality), dual feasibility, and
    complementary slackness."""
    if sol.status != "optimal":
        raise ValueError("kkt_residual is defined for optimal solutions only")
    if q.n_free == 0:
        return abs(q.beq)
    x = np.array([sol.dispatch[n] for n in q.free])
    lam = sol.eq_multiplier
    mu = sol.ineq_multipliers
    stat = q.hdiag * x + q.glin + lam + (q.G.T @ mu if len(mu) else 0.0)
    r = float(np.max(np.abs(stat)))
    r = max(r, abs(float(np.sum(x)) - q.beq))
    if len(mu):
        slack = q.G @ x - q.h
        r = max(r, float(np.max(slack, initial=0.0)))
        r = max(r, float(np.max(-mu, initial=0.0)))
        r = max(r, float(np.max(np.abs(mu * slack), initial=0.0)))
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


def mode_candidates(s: Scenario, t: int, p_prev=None, modes=None):
    """All feasible (commitment, dispatch, running_cost) triples at period t,
    ordered by the commitment read as a binary integer (unit 1 = MSB).
    `modes`, ascending mode ints, limits the solves to those commitments."""
    n = s.n_units
    out = []
    for v in range(1 << n) if modes is None else modes:
        bits = tuple((v >> (n - 1 - i)) & 1 for i in range(n))
        sol = solve(assemble(s, t, bits, p_prev))
        if sol.status == "optimal":
            out.append((bits, sol.dispatch, running_cost(s, bits, sol.dispatch)))
    return out
