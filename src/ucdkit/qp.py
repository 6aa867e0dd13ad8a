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

Templates. Most of a problem depends on its mode alone: the free
columns, the cost terms, the labels, the committed p_min and p_max sums,
`G` and the kernel's form of it. `assemble` builds these once per
scenario object, commitment, DG and DR presence and set of units with
ramp rows, and afterwards fills only the period's `h` and `beq`; `solve`
builds only the kernel's right-hand side. The template also carries the
kernel's per-mode constants, step directions and polish factorizations
(`_kernels.Rows`). Each is the expression an uncached solve evaluates,
so every result keeps its bits. Templates are keyed on the scenario
object's identity and dropped when it is collected; an equal but
distinct scenario (a re-parse, a `dataclasses.replace`) gets its own.
A scenario object's first template checks it with `validate_scenario`,
so every solver refuses an invalid scenario built in code with the
ScenarioError a parse raises. `hdiag`, `glin` and `G` of an assembled
problem are shared with every problem of its template and read-only;
`h` is its own. A problem not made by `assemble` (built by hand, or
changed with `dataclasses.replace`) has no template and gets new kernel
constants on each solve.

Two paths solve a problem through one kernel call with its failure
checks and KKT certificate (`_certified`), so both give the same bytes.
`assemble` and `solve` are public and fully reported; `mode_dynamics`
and ramp-relaxed rows take them. A mode solved from a previous dispatch
with ramps enforced takes the lean path: its bounds go from the
template straight to `_certified`, from ramp bounds computed once per
previous dispatch (`_ramp_limits`), and no QpProblem or QpSolution is
built. `_solved` solves a period's modes on either path and returns
their stage row, the one form `oracle.Stages.row` hands out. Every stage
table solves its own 2^N relaxed grid, on a large fleet mostly to
infeasible verdicts, so the public path is kept cheap: `_record` fills
each record's __dict__ rather than calling the frozen dataclass
__init__, and `solve` hands the kernel `h` as assembled. Relaxed rows
stay on `solve` for the benchmark: its tracer counts solves there, and
its tests pin their number (2,304 for graph DP, `train` and `simulate`
on relaxed example2_case1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from math import isfinite, isnan, nan
from operator import mul, neg

import numpy as np

from . import _kernels
from ._kernels import FEAS_TOL
from .costs import running_cost
from .errors import InfeasibleModeError, QpNumericalError
from .scenario import Scenario, _per_object, _require_valid

__all__ = [
    "QpProblem",
    "QpSolution",
    "assemble",
    "solve",
    "kkt_residual",
    "mode_dynamics",
    "mode_candidates",
    "mode_to_int",
    "int_to_mode",
    "KKT_TOL",
]

KKT_TOL = 1e-8       # certified residual bound on every optimal solution


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


def _record(cls, fields):
    """An instance of the frozen dataclass cls holding `fields`, which
    names every field of cls, defaults and `rows` included: what its
    generated __init__ makes, without one object.__setattr__ per field.
    `assemble` and `solve` build every QpProblem and QpSolution here."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def assemble(s: Scenario, t: int, commitment, p_prev=None) -> QpProblem:
    """Build the dispatch QP for period t under commitment I.

    p_prev supplies the previous dispatch for ramp coupling; passing None
    assembles the ramp-relaxed subproblem regardless of the scenario flag.
    Everything but the period's bounds `h` and `beq` comes from the mode's
    template (see the module docstring). A commitment `mode_to_int`
    refuses raises its ValueError, and so does a p_prev that ramp rows are
    built from other than N or N+2 finite entries >= 0.
    """
    bits = int_to_mode(mode_to_int(commitment, s.n_units), s.n_units)
    return _assemble(s, t, bits, _ramp_limits(s, p_prev), s.period(t), _store(s))


def mode_to_int(bits, n_units=None) -> int:
    """Commitment vector as a binary integer, unit 1 in the most
    significant position ([0,1] -> 1, [1,0] -> 2, [1,1] -> 3). An entry
    other than 0 or 1 raises ValueError; int() alone would read 1.9 as 1.
    Given n_units, so does a vector of another length, which would
    otherwise read as some other mode. Every entry point that takes a
    commitment checks it here."""
    if n_units is None or len(bits) == n_units:
        v = 0
        for b in bits:
            if b not in (0, 1):
                break
            v = (v << 1) | int(b)
        else:
            return v
    size = "" if n_units is None else f"{n_units} "
    raise ValueError(f"commitment must have {size}entries each 0 or 1 (binary), got {bits!r}")


def int_to_mode(v: int, n: int) -> tuple[int, ...]:
    """The commitment of n units whose binary integer is v, the inverse
    of `mode_to_int`."""
    return tuple((v >> (n - 1 - i)) & 1 for i in range(n))


def _check_dispatch(p, n_units: int) -> list:
    """p, the dispatch entering a period, as a list of floats. Raise
    ValueError unless it has n_units or n_units + 2 entries, each finite
    and >= 0. A negative entry would silently drop its unit's ramp rows,
    and a short vector would fail later with an IndexError. The one check
    of a dispatch vector; `_full_dispatch` pads what it passes."""
    try:
        vals = p.tolist()           # an array; a list or a tuple has no tolist
    except AttributeError:
        vals = [float(v) for v in p]
    # min catches a negative entry, and a nan in first place; isfinite the rest
    if not (len(vals) in (n_units, n_units + 2) and min(vals, default=0.0) >= 0.0
            and all(map(isfinite, vals))):
        raise ValueError(f"previous dispatch must be {n_units} or {n_units + 2} "
                         f"finite entries >= 0, got {p!r}")
    return vals


def _full_dispatch(p, n_units: int) -> np.ndarray:
    """p, checked by `_check_dispatch`, as an array of n_units + 2 floats:
    a thermal-only vector gets DG and DR at 0."""
    vals = _check_dispatch(p, n_units)
    return np.array(vals + [0.0, 0.0] if len(vals) == n_units else vals, dtype=float)


def _ramp_limits(s, p_prev):
    """The ramp bounds p_prev sets, for every mode at once: (n, hi, lo)
    per unit n that ran in the previous period (p_prev[n] > 0), for
    x_n <= hi and -x_n <= lo, a bound None where the unit has no limit.
    A mode has the ramp rows of its committed units among them. None
    when no ramp row is built (ramps relaxed, or p_prev None); otherwise
    p_prev is checked by `_check_dispatch`. `_Store.filled` writes these
    floats into h, and `_meets_ramps` reads them."""
    if not s.ramp_enforced or p_prev is None:
        return None
    prev = _check_dispatch(p_prev, s.n_units)
    return [(n, None if u.ramp_up is None else prev[n] + u.ramp_up,
             None if u.ramp_down is None else u.ramp_down - prev[n])
            for n, u in enumerate(s.units) if prev[n] > 0.0]


def _meets_ramps(mode, dispatch, limits):
    """True when `dispatch`, mode's ramp-relaxed optimum, meets every ramp
    row of mode among `limits` (`_ramp_limits`), with no tolerance.

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
    for n, hi, lo in limits:
        if not mode[n]:
            continue
        if hi is not None and not dispatch[n] <= hi:
            return False
        if lo is not None and not -dispatch[n] <= lo:
            return False
    return True


def _assemble(s, t, bits, limits, per, store):
    """`assemble` of binary `bits`, with ramp rows from `limits`
    (`_ramp_limits`), at period t's data `per`, from the scenario's
    template store."""
    tpl, h = store.filled(s, per, bits, limits)
    return _record(QpProblem, {
        "t": t, "commitment": tpl.bits, "free": tpl.free, "hdiag": tpl.hdiag,
        "glin": tpl.glin, "const": tpl.const, "beq": float(per.demand), "G": tpl.G,
        "h": h, "labels": tpl.labels, "n_units": s.n_units, "rows": tpl.rows,
    })


# id(scenario) -> _Store, by `_per_object`: a scenario is never hashed by value
_TEMPLATES = {}


class _Store:
    """A scenario object's templates, and what they share: G holds no
    unit data, so every mode with as many committed units, the same DG
    and DR rows and the same ramp rows shares one G, one kernel form C
    and one set of row normals. Making one validates the scenario (see
    the module docstring)."""

    __slots__ = ("templates", "rows")

    def __init__(self, s):
        _require_valid(s)
        self.templates = {}     # (bits, dg on, dr on, ramped units) -> _Template
        self.rows = {}          # layout of G's rows -> (G, C, row normals)

    def filled(self, s, per, bits, limits):
        """(template, h): the template of mode `bits` at period data
        `per`, built on first use, and its `h` for that period as an
        array of floats, with the ramp rows of the mode's units among
        `limits` (`_ramp_limits`, or None for none)."""
        mine = () if limits is None else [r for r in limits if bits[r[0]]]
        key = (bits, per.dg_max > 0.0, per.dr_max > 0.0, tuple(r[0] for r in mine))
        tpl = self.templates.get(key)
        if tpl is None:
            tpl = self.templates[key] = _Template(s, *key, self)
        h = tpl.h.copy()
        h[0] = per.demand - per.reserve_lo - tpl.pmin_sum
        h[1] = tpl.pmax_sum - per.demand - per.reserve_hi
        bounds = [v for _, hi, lo in mine for v in (hi, lo) if v is not None]
        for i, v in zip(tpl.ramp_at, bounds):
            h[i] = v
        if tpl.dg_row is not None:
            h[tpl.dg_row] = per.dg_max
        if tpl.dr_row is not None:
            h[tpl.dr_row] = per.dr_max
        return tpl, np.array(h, dtype=float)


def _store(s):
    """The template store of the scenario object s, made on first use."""
    return _per_object(_TEMPLATES, s, lambda: _Store(s))


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
        self.rows = _kernels.Rows(self.hdiag, self.glin, C, normals)


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


def _expand(free, x, n_units):
    """The length-N+2 dispatch with x on the free coordinates, 0 elsewhere."""
    full = np.zeros(n_units + 2)
    full.put(free, x)
    return full


def solve(q: QpProblem) -> QpSolution:
    """Solve the assembled QP.

    Returns the unique minimizer with multipliers and a certified KKT
    residual, or an infeasible verdict with the offending row. A kernel
    breakdown (never observed on well-formed problems) raises
    QpNumericalError rather than returning an uncertified point, and so
    does a residual that is not at most KKT_TOL, a NaN included
    (`_certified`).
    """
    if q.n_free == 0:
        # nothing to dispatch: feasible iff the balance and the constant
        # rows hold with every coordinate at 0
        bad = _idle_violation(q.h, q.beq)
        if bad is not None:
            row, violation = bad
            return _infeasible(q.labels, row, violation, 0)
        return _record(QpSolution, {
            "status": "optimal", "dispatch": np.zeros(q.n_units + 2),
            "objective_value": q.const, "eq_multiplier": 0.0,
            "ineq_multipliers": np.zeros(len(q.h)), "active_set": (),
            "kkt": _idle_residual(q.h, q.beq), "iterations": 0, "certificate": {},
        })

    # a problem that is not assemble's own (built by hand or replaced)
    # gets a new kernel form
    rows = q.rows or _kernels.Rows(q.hdiag, q.glin, _kernel_form(q.G))
    x, mu, iters, info = _certified(q.t, q.commitment, rows, q.G, q.h, q.beq)
    if mu is None:
        bad, b = info
        slack = float(np.dot(rows.C[bad], x) - b[bad])
        return _infeasible(q.labels, bad, max(0.0, -slack), iters)
    lam, hx, slack, resid = info
    obj = 0.5 * float(np.dot(hx, x)) + float(np.dot(q.glin, x)) + q.const
    active = tuple(label for label, mi, si in zip(q.labels, mu.tolist(), slack)
                   if mi > 0.0 or si > -1e-7)
    return _record(QpSolution, {
        "status": "optimal", "dispatch": _expand(q.free, x, q.n_units),
        "objective_value": obj, "eq_multiplier": lam, "ineq_multipliers": mu,
        "active_set": active, "kkt": resid, "iterations": iters, "certificate": {},
    })


def _infeasible(labels, row, violation, iters):
    """The infeasible QpSolution whose certificate names `row` (0 the
    balance, i + 1 the row of labels[i]) and its violation."""
    return _record(QpSolution, {
        "status": "infeasible", "dispatch": None, "objective_value": None,
        "eq_multiplier": None, "ineq_multipliers": None, "active_set": (),
        "kkt": None, "iterations": iters,
        "certificate": {"row": "balance" if row == 0 else labels[row - 1],
                        "violation": violation},
    })


def _idle_violation(h, beq):
    """For a problem with no free coordinate: None when the balance and
    every row of h hold at x = 0, else (row, violation), row 0 the
    balance and row i + 1 that of h[i]."""
    if abs(beq) > FEAS_TOL * max(1.0, abs(beq)):
        return 0, abs(beq)
    for i, v in enumerate(h):
        if v < -FEAS_TOL:
            return i + 1, -float(v)
    return None


def _idle_residual(h, beq):
    """kkt_residual of the idle optimum x = 0 of a problem with no free
    coordinate: max(|beq|, -h_i for h_i < 0, 0), the violations that
    `_idle_violation` accepts within FEAS_TOL."""
    return max([abs(float(beq)), *(-float(v) for v in h)])


def _certified(t, commitment, rows, G, h, beq):
    """Solve the problem of `rows` (its C, hdiag and glin), G x <= h with
    h an array of floats, and sum x = beq, and certify it: the kernel
    call, failure checks and KKT certificate of `solve` and `_solved` alike.
    Returns (x, mu, iters, info): mu None and info (bad row, b) on an
    infeasible verdict; at an optimum, mu the row multipliers and info
    (lam, hdiag * x, `_slack`, residual). A kernel failure, or a residual
    not at most KKT_TOL, a NaN included, raises QpNumericalError naming t
    and the commitment."""
    # kernel convention: C x >= b with the balance equality first, b = (beq, -h)
    b = np.empty(len(h) + 1)
    b[0] = beq
    np.negative(h, out=b[1:], dtype=float)
    status, x, w, iters, bad = _kernels.qp_core(rows.hdiag, rows.glin, rows, b,
                                                100 + 50 * len(b))
    if status == _kernels.INFEASIBLE:
        return x, None, iters, (bad, b)
    if status != _kernels.OPTIMAL:
        raise QpNumericalError(
            f"QP kernel failed at t={t}, commitment "
            f"{''.join(map(str, commitment))} (status {status}, {iters} iterations)"
        )
    lam = -float(w[0])
    mu = w[1:].copy()
    hx = rows.hdiag * x
    slack = _slack(G, h, x)
    resid = _residual(G, rows.glin, beq, x, hx, lam, mu, slack)
    if not resid <= KKT_TOL:
        raise QpNumericalError(
            f"KKT residual {resid:.3e} exceeds {KKT_TOL:.0e} at t={t}, "
            f"commitment {''.join(map(str, commitment))}"
        )
    return x, mu, iters, (lam, hx, slack, resid)


def kkt_residual(q: QpProblem, sol: QpSolution) -> float:
    """Max-norm KKT residual of an optimal solution: stationarity, primal
    feasibility (equality and inequality), dual feasibility, and
    complementary slackness."""
    if sol.status != "optimal":
        raise ValueError("kkt_residual is defined for optimal solutions only")
    if q.n_free == 0:
        return _idle_residual(q.h, q.beq)
    x = sol.dispatch[list(q.free)]
    return _residual(q.G, q.glin, q.beq, x, q.hdiag * x, sol.eq_multiplier,
                     sol.ineq_multipliers, _slack(q.G, q.h, x))


def _slack(G, h, x):
    """G x - h as a list of floats, h an array or a list."""
    return (G @ x - h).tolist()


def _residual(G, glin, beq, x, hx, lam, mu, slack):
    """kkt_residual on the free coordinates x of the problem of G, glin
    and beq, given hx = hdiag * x and slack = `_slack(G, h, x)`. numpy
    sums G' mu and x as BLAS and its pairwise sum order them; the rest
    runs on Python floats, whose elementwise operations round as numpy's
    do. NaN when x, lam or mu holds one."""
    stat = [a + g + lam + b
            for a, g, b in zip(hx.tolist(), glin.tolist(), (G.T @ mu).tolist())]
    if isnan(sum(stat)):        # max() keeps a NaN only in first place
        return nan
    ml = mu.tolist()
    return max(chain(map(abs, stat), (abs(float(x.sum()) - beq),), slack, map(neg, ml),
                     map(abs, map(mul, ml, slack))))


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
    """Every commitment of n units, indexed by its binary integer; built
    once per n, so every mode tuple read off a stage row is one of the
    same 2^n tuples."""
    return [int_to_mode(v, n) for v in range(1 << n)]


def mode_candidates(s: Scenario, t: int, p_prev=None):
    """All feasible (commitment, dispatch, running_cost) triples at period t,
    ordered by the commitment read as a binary integer (unit 1 = MSB).
    p_prev is checked once per call, as in `assemble`."""
    ints, q, dispatches = _solved(s, t, _ramp_limits(s, p_prev), range(1 << s.n_units))
    modes = _commitments(s.n_units)
    return [(modes[v], d, qv) for v, qv, d in zip(ints.tolist(), q.tolist(), dispatches)]


def _solved(s, t, limits, modes):
    """The stage row (mode ints, Q, dispatches: intp, float and (k, N+2)
    float arrays) of the feasible modes among `modes` (ascending), with
    the ramp rows of `limits` (`_ramp_limits`): relaxed modes (limits
    None) through `solve`, ramped ones on the lean path."""
    n = s.n_units
    commitments = _commitments(n)
    per, store = s.period(t), _store(s)
    beq = float(per.demand)
    ints, qs, dispatches = [], [], []
    for v in modes:
        bits = commitments[v]
        if limits is None:
            dispatch = solve(_assemble(s, t, bits, None, per, store)).dispatch
        else:
            tpl, h = store.filled(s, per, bits, limits)
            if tpl.free:
                x, mu, _, _ = _certified(t, bits, tpl.rows, tpl.G, h, beq)
                dispatch = None if mu is None else _expand(tpl.free, x, n)
            else:
                dispatch = None if _idle_violation(h, beq) else np.zeros(n + 2)
        if dispatch is not None:
            ints.append(v)
            qs.append(running_cost(s, bits, dispatch))
            dispatches.append(dispatch)
    return (np.array(ints, dtype=np.intp), np.array(qs, dtype=float),
            np.array(dispatches, dtype=float).reshape(len(ints), n + 2))
