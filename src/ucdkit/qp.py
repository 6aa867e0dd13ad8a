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

Templates. Most of a problem depends on its mode alone: the free columns,
the cost terms, the labels, the committed p_min and p_max sums, `G` and
the kernel's form of it. `assemble` builds these once per scenario
object, commitment, DG and DR presence and set of units with ramp rows,
and afterwards fills only the period's `h` and `beq`; `solve` builds
only the kernel's right-hand side. The template also carries the
kernel's per-mode constants (`_kernels.Rows`), filled as rows enter a
working set. Each is the expression an uncached solve evaluates, so
every result keeps its bits. Templates are keyed on the scenario
object's identity and dropped when it is collected; an equal but
distinct scenario (a re-parse, a `dataclasses.replace`) gets its own.
`hdiag`, `glin` and `G` of an assembled problem are shared with every
problem of its template and read-only; `h` is its own. A problem not
made by `assemble` (built by hand, or changed with `dataclasses.replace`)
has no template and gets new kernel constants on each solve.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cache
from math import isfinite

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
    # the kernel's form of the rows, shared with every problem of the same
    # template; replace() leaves it None, so a changed problem gets its own
    rows: _kernels.Rows | None = field(default=None, init=False, repr=False, compare=False)

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
    Everything but the period's bounds `h` and `beq` comes from the mode's
    template (see the module docstring). A commitment other than N binary
    entries raises ValueError, and so does a p_prev that ramp rows are
    built from other than N or N+2 finite entries >= 0.
    """
    n_units = s.n_units
    entries = tuple(commitment)
    # checked before int(), which would read 1.9 as 1
    if len(entries) != n_units or not all(map((0, 1).__contains__, entries)):
        raise ValueError(f"commitment must be {n_units} binary entries, got {commitment!r}")
    return _assemble(s, t, tuple(map(int, entries)), _ramp_source(s, p_prev))


def _check_dispatch(p, n_units: int) -> list:
    """p, the dispatch entering a period, as a list of floats. Raise
    ValueError unless it has n_units or n_units + 2 entries, each finite
    and >= 0. A negative entry would silently drop its unit's ramp rows,
    and a short vector would fail later with an IndexError."""
    try:
        vals = p.tolist()           # an array; a list or a tuple has no tolist
    except AttributeError:
        vals = [float(v) for v in p]
    # min catches a negative entry, and a nan in first place; isfinite the rest
    if not (len(vals) in (n_units, n_units + 2) and min(vals) >= 0.0
            and all(map(isfinite, vals))):
        raise ValueError(f"previous dispatch must be {n_units} or {n_units + 2} "
                         f"finite entries >= 0, got {p!r}")
    return vals


def _ramp_source(s, p_prev):
    """p_prev as `_check_dispatch` returns it when ramp rows are built
    from it (ramps enforced and p_prev given); None otherwise."""
    if not s.ramp_enforced or p_prev is None:
        return None
    return _check_dispatch(p_prev, s.n_units)


def _ramp_limits(s, bits, prev):
    """The ramp rows of mode `bits` from `prev`, a `_ramp_source` list:
    (n, hi, lo) per committed unit n that ran in the previous period, for
    x_n <= hi and -x_n <= lo, a bound None where the unit has no limit.
    `assemble` writes these floats into h; `_meets_ramps` reads them."""
    return [(n, None if u.ramp_up is None else prev[n] + u.ramp_up,
             None if u.ramp_down is None else u.ramp_down - prev[n])
            for n, u in enumerate(s.units) if bits[n] and prev[n] > 0.0]


def _meets_ramps(s, mode, dispatch, prev):
    """True when `dispatch`, mode's ramp-relaxed optimum, meets every ramp
    row of mode from `prev`, a `_ramp_source` list, with no tolerance.

    The ramped QP then has the same unique minimizer, and the kernel
    returns it with the same bits when each ramp row is one the unit's
    box implies (p_prev + ramp_up >= p_max, ramp_down - p_prev >= -p_min):
    such a row follows its cap row and shares its normal, so its slack is
    never below the cap row's (rounding b - x is monotone in b), and x
    sits on the cap row to rounding, far inside the feasibility
    tolerance, while that row is in the working set. The kernel enforces
    the most violated row, ties to the lower index, so the ramp row never
    enters the working set, and every step, the polish and the result
    match the relaxed solve. A ramp row that could bind but is slack at
    the optimum may enter and leave the working set on the way; that the
    bits still match then is measured, not proven: the tests hold ramped
    candidate sets, tails and schedule tables to references that solve
    every ramped candidate set in full.
    """
    for n, hi, lo in _ramp_limits(s, mode, prev):
        if hi is not None and not dispatch[n] <= hi:
            return False
        if lo is not None and not -dispatch[n] <= lo:
            return False
    return True


def _assemble(s, t, bits, prev):
    """`assemble` of binary `bits`, with `prev` from `_ramp_source`."""
    per = s.period(t)
    dg_on = per.dg_max > 0.0
    dr_on = per.dr_max > 0.0
    limits = () if prev is None else _ramp_limits(s, bits, prev)
    tpl = _template(s, bits, dg_on, dr_on, tuple(n for n, _, _ in limits))
    h = tpl.h.copy()
    h[0] = per.demand - per.reserve_lo - tpl.pmin_sum
    h[1] = tpl.pmax_sum - per.demand - per.reserve_hi
    bounds = [v for _, hi, lo in limits for v in (hi, lo) if v is not None]
    for i, v in zip(tpl.ramp_at, bounds):
        h[i] = v
    if dg_on:
        h[tpl.dg_row] = per.dg_max
    if dr_on:
        h[tpl.dr_row] = per.dr_max
    q = QpProblem(
        t=t, commitment=tpl.bits, free=tpl.free, hdiag=tpl.hdiag, glin=tpl.glin,
        const=tpl.const, beq=float(per.demand), G=tpl.G, h=np.array(h, dtype=float),
        labels=tpl.labels, n_units=s.n_units,
    )
    object.__setattr__(q, "rows", tpl.rows)
    return q


# id(scenario) -> _Store; an entry lives as long as its scenario object,
# which is never hashed by value
_TEMPLATES = {}


class _Store:
    """A scenario object's templates, and what they share: G holds no
    unit data, so every mode with as many committed units, the same DG
    and DR rows and the same ramp rows shares one G, one kernel form C
    and one set of row normals, and every Rows keeps its floats in one
    pool."""

    __slots__ = ("templates", "rows", "floats")

    def __init__(self):
        self.templates = {}     # (bits, dg on, dr on, ramped units) -> _Template
        self.rows = {}          # layout of G's rows -> (G, C, row normals)
        self.floats = {}        # the Rows' float pool


def _template(s, *key):
    """The template of key = (bits, dg on, dr on, ramped units) for the
    scenario object s, built on first use."""
    store = _TEMPLATES.get(id(s))
    if store is None:
        store = _TEMPLATES[id(s)] = _Store()
        weakref.finalize(s, _TEMPLATES.pop, id(s), None)
    tpl = store.templates.get(key)
    if tpl is None:
        tpl = store.templates[key] = _Template(s, *key, store)
    return tpl


class _Template:
    """What a dispatch QP takes from its mode alone: the free columns,
    cost terms, row labels, `G`, the kernel's `Rows`, and `h` with its
    period entries left at 0.0 and their positions."""

    __slots__ = ("bits", "free", "hdiag", "glin", "const", "pmin_sum", "pmax_sum",
                 "G", "labels", "h", "ramp_at", "dg_row", "dr_row", "rows")

    def __init__(self, s, bits, dg_on, dr_on, ramped, store):
        n_units = s.n_units
        p_e = s.cet.price
        on = [(n, s.units[n]) for n in range(n_units) if bits[n]]
        nc = len(on)
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

        # rows in order, G x <= h; G is +1 at the flat indices in `plus`, -1
        # at those in `minus`, 0 elsewhere save for the penetration row
        labels = ["reserve_lo", "reserve_hi"]
        h = [0.0, 0.0]
        plus = list(range(nc, nf))
        minus = list(range(nf + nc, 2 * nf))
        ramp_at = []            # the ramp rows, in the order of `_ramp_limits`' bounds
        layout = [nc, dg_on, dr_on]     # what G depends on: the rows of each column
        names = _unit_labels(n_units)
        for col, (n, u) in enumerate(on):
            at = len(h) * nf + col
            plus.append(at)
            minus.append(at + nf)
            h += (u.p_max, -u.p_min)
            hi, lo, up, dn = names[n]
            labels += (hi, lo)
            if n in ramped:
                if u.ramp_up is not None:
                    plus.append(len(h) * nf + col)
                    ramp_at.append(len(h))
                    h.append(0.0)
                    labels.append(up)
                if u.ramp_down is not None:
                    minus.append(len(h) * nf + col)
                    ramp_at.append(len(h))
                    h.append(0.0)
                    labels.append(dn)
                layout.append((col, u.ramp_up is not None, u.ramp_down is not None))
        self.dg_row = self.dr_row = None
        if dg_on:
            pen = len(h) + 2
            self.dg_row = len(h)
            plus.append(len(h) * nf + nc)
            minus.append(len(h) * nf + nf + nc)
            h += (0.0, 0.0, 0.0)
            labels += ("dg_hi", "dg_lo", "penetration")
        if dr_on:
            self.dr_row = len(h)
            plus.append(len(h) * nf + nf - 1)
            minus.append(len(h) * nf + 2 * nf - 1)
            h += (0.0, 0.0)
            labels += ("dr_hi", "dr_lo")

        layout = tuple(layout)
        if layout not in store.rows:
            G = np.zeros(len(h) * nf)
            G.put(plus, 1.0)
            G.put(minus, -1.0)
            G = G.reshape(len(h), nf)
            if dg_on:
                G[pen, :nc] = -s.eta_max
                G[pen, nc] = 1.0 - s.eta_max
            store.rows[layout] = (_read_only(G), _kernel_form(G), {})
        self.G, C, normals = store.rows[layout]
        self.bits, self.free, self.labels = bits, tuple(free), tuple(labels)
        self.hdiag = _read_only(np.array(hdiag, dtype=float))
        self.glin = _read_only(np.array(glin, dtype=float))
        self.const = float(const)
        self.pmin_sum = sum(u.p_min for _, u in on)
        self.pmax_sum = sum(u.p_max for _, u in on)
        self.h, self.ramp_at = h, tuple(ramp_at)
        self.rows = _kernels.Rows(self.hdiag, self.glin, C, normals, store.floats)


def _read_only(a):
    a.flags.writeable = False
    return a


def _kernel_form(G):
    """The kernel's form of G x <= h: C x >= b with the balance equality
    first, C = [1; -G], read-only."""
    C = np.empty((len(G) + 1, G.shape[1]))
    C[0] = 1.0
    np.negative(G, out=C[1:])
    return _read_only(C)


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

    # kernel convention: C x >= b with the balance equality first; a
    # problem that is not assemble's own (built by hand or replaced)
    # gets a new kernel form
    rows = q.rows or _kernels.Rows(q.hdiag, q.glin, _kernel_form(q.G))
    b = np.empty(m + 1)
    b[0] = q.beq
    np.negative(q.h, out=b[1:])
    max_iter = 100 + 50 * (m + 1)
    status, x, w, iters, bad = _kernels.qp_core(
        q.hdiag, q.glin, rows, b, FEAS_TOL, PIVOT_TOL, max_iter,
    )
    if status == _kernels.INFEASIBLE:
        label = "balance" if bad == 0 else q.labels[bad - 1]
        slack = float(np.dot(rows.C[bad], x) - b[bad])
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
    dispatch at period t from the given previous state, and ValueError
    on a malformed commitment or previous dispatch, as `assemble` does.
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


def mode_candidates(s: Scenario, t: int, p_prev=None):
    """All feasible (commitment, dispatch, running_cost) triples at period t,
    ordered by the commitment read as a binary integer (unit 1 = MSB).
    p_prev is checked once per call, as in `assemble`."""
    return _solved(s, t, _ramp_source(s, p_prev), range(1 << s.n_units))


def _solved(s, t, prev, modes):
    """The triples of `mode_candidates` for `modes`, ascending mode ints,
    from `prev` as `_ramp_source` returns it."""
    commitments = _commitments(s.n_units)
    out = []
    for v in modes:
        bits = commitments[v]
        sol = solve(_assemble(s, t, bits, prev))
        if sol.status == "optimal":
            out.append((bits, sol.dispatch, running_cost(s, bits, sol.dispatch)))
    return out
