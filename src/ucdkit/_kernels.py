"""Dense dual active-set QP kernel (Goldfarb & Idnani, Math. Prog. 27, 1983).

The dispatch subproblem is a strictly convex QP with a diagonal Hessian,
one balance equality and a handful of inequality rows (boxes, reserves,
ramp windows, penetration). The kernel starts from the unconstrained
minimizer, pulls in the most violated row one at a time, and takes
primal/dual steps until every row is satisfied with nonnegative
multipliers. Infeasibility falls out as a violated row whose normal is
spanned by the working set with a nonnegative dual ray (no step can
help), so no phase-one subproblem is needed. A final KKT solve on the
active set strips the drift of the incremental steps.

Kernel convention: rows are C[i] . x >= b[i], except row 0, the balance,
an equality (sign-flipped as needed, never dropped, multiplier free).
Returned multipliers w satisfy H x + g - C^T w = 0 with w >= 0 on
inequality rows.

Working-set systems of one or two rows, two thirds of the linear solves
on an 8-unit fleet's (t, mode) grid, are solved inline on Python floats.
Larger ones are factored (`_factor`) and replayed once (`_replay`); the
polish factors its KKT matrix once per working set and replays it on
each right-hand side.

What a call computes from the rows and H alone is kept in a `Rows`,
which a caller passes for C and may reuse; `Rows` tells what it keeps.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress
from math import copysign, inf, isfinite
from operator import mul

import numpy as np

__all__ = ["Rows", "qp_core", "OPTIMAL", "INFEASIBLE", "NUMERIC_FAIL", "FEAS_TOL", "PIVOT_TOL"]

# status codes returned by the kernel
OPTIMAL = 0
INFEASIBLE = 1
NUMERIC_FAIL = 2

FEAS_TOL = 1e-9      # a row holds when its slack is >= -FEAS_TOL
PIVOT_TOL = 1e-10    # relative pivot and step threshold


def _factor(A, tol_piv):
    """Gaussian elimination with partial pivoting of A, as one bytes
    object for `_replay`, or None at a pivot at or below
    tol_piv * max(1, max|A|), so that a near-singular system is reported
    rather than solved. Each row has the bits of the same elimination on
    a numpy array: Python floats round as numpy's elementwise ops do, and
    a row whose multiple of the pivot row is a zero is only updated where
    it holds -0.0 (nothing else can change, and elimination never makes a
    -0.0). The entry holds the eliminated rows as k doubles each, the
    multipliers below the diagonal (signed zeros kept) and U from it on;
    then the rows of A in pivot order, as unsigned ints; then the plan of
    a replay, read off the eliminated rows, in `_plan_codes(k)`: per row,
    the column of the one nonzero in its U tail, 0 for none or the code
    for more; per row, its count of nonzero multipliers; and row after
    row, the columns of those of each row that has a zero one."""
    k = len(A)
    M = [list(row) for row in A]
    tol = tol_piv * max(1.0, max(map(abs, chain.from_iterable(A)), default=0.0))
    Z = [None] * k          # per row, the columns that may hold -0.0, found when first needed
    P = list(range(k))      # per row, the row of A it started as
    full = True             # no multiplier or U entry a zero so far, as in a Gram system
    for c in range(k):
        col = [abs(row[c]) for row in M[c:]]
        big = max(col)
        if big <= tol:
            return None
        piv = c + col.index(big)                # first largest wins
        M[c], M[piv], Z[c], Z[piv], P[c], P[piv] = M[piv], M[c], Z[piv], Z[c], P[piv], P[c]
        top = M[c]
        d, tail = top[c], top[c + 1:]
        full = full and 0.0 not in tail
        for i in range(c + 1, k):
            row = M[i]
            f = row[c] = row[c] / d
            if f:
                row[c + 1:] = [a - f * b for a, b in zip(row[c + 1:], tail)]
                continue
            full = False
            if Z[i] is None:
                Z[i] = [j for j in range(c + 1, k) if not row[j] and copysign(1.0, row[j]) < 0.0]
            for j in Z[i]:
                if j > c:
                    row[j] -= f * top[j]
    entry = array("d", chain.from_iterable(M)).tobytes() + array("I", P).tobytes()
    if full:
        return entry + _full_plan(k)
    code, more = _plan_codes(k)
    T, counts, cols = [], [], []
    for i, row in enumerate(M):
        nzc = list(compress(range(k), row))     # the diagonal, a pivot, is among them
        n = nzc.index(i)
        tail = nzc[n + 1:]
        T.append(more if len(tail) > 1 else tail[0] if tail else 0)
        counts.append(n)
        if n < i:
            cols += nzc[:n]
    return entry + array(code, T + counts + cols).tobytes()


def _plan_codes(k):
    """(array type code, code of a U tail of two or more nonzeros) of the
    plan of k rows: unsigned bytes while a column fits one, unsigned ints
    past 255 rows."""
    return ("B", 255) if k <= 255 else ("I", 0xFFFFFFFF)


def _full_plan(k):
    """The plan of k rows that applies every multiplier and leaves every
    U row but the last two to numpy's dot: that of an elimination with no
    zero multiplier or U entry, and the one a non-finite replay takes."""
    code, more = _plan_codes(k)
    return array(code, [more] * (k - 2) + [k - 1, 0][-k:] + list(range(k))).tobytes()


def _replay(entry, rhs):
    """y of A y = rhs for entry = _factor(A), as a column of a new
    (k, k + 1) array, with the bits and strides of the numpy
    elimination's where y is finite. rhs is taken in pivot order and put
    through each row's multipliers in column order, a zero one changing
    only a -0.0: the operations the elimination would apply to a last
    column. A row whose entry is not -0.0 never becomes one, so only its
    nonzero multipliers are applied; a -0.0 row takes its full row.
    Back-substitution leaves a row to numpy's dot only where its U tail
    holds two or more nonzeros: with every y finite, an empty tail's dot
    is +0.0 and a one-term one's u * y + 0.0. That dot goes through BLAS,
    which may fuse a multiply and an add and picks its order of addition
    by length and stride: with numpy 2.4 on OpenBLAS 0.3.31 (x86-64,
    Haswell kernels), a length-2 dot differed from `a*c + b*d` on 30,751
    of 200,000 random pairs, so no Python sum reproduces its bits. A
    non-finite y is replayed again on `_full_plan(k)` (0 * inf is not 0)."""
    k = len(rhs)
    at = 8 * k * k + 4 * k                  # where the plan starts
    code, more = _plan_codes(k)
    plan = entry[at:] if code == "B" else array(code, entry[at:])
    LU = memoryview(entry)[:8 * k * k].cast("d")
    r = [rhs[a] for a in memoryview(entry)[8 * k * k:at].cast("I")]
    pos = 2 * k
    for i, n in enumerate(plan[k + 1:2 * k], 1):
        v = r[i]
        if n == i or not v and copysign(1.0, v) < 0.0:
            for rc, f in zip(r, LU[i * k:i * k + i]):
                if f or not v and copysign(1.0, v) < 0.0:
                    v -= f * rc
            r[i] = v
        elif n:
            base = i * k
            for j in plan[pos:pos + n]:
                v -= LU[base + j] * r[j]
            r[i] = v
        if n < i:
            pos += n
    tails = plan[:k]
    y = np.empty((k, k + 1))[:, k]          # the numpy elimination's strides
    # the first row with a dot; the rows after it feed one
    low = tails.index(more) if more in tails else -1
    if low >= 0:
        U = np.frombuffer(entry, count=k * k).reshape(k, k)
    for c in range(k - 1, -1, -1):
        j = tails[c]
        if j == more:
            dot = float(U[c, c + 1:] @ y[c + 1:])
        else:
            dot = LU[c * k + j] * r[j] + 0.0 if j else 0.0
        v = r[c] = (r[c] - dot) / LU[c * (k + 1)]
        if c > low >= 0:
            y[c] = v
    if not isfinite(sum(r)) and entry[at:] != (full := _full_plan(k)):
        return _replay(entry[:at] + full, rhs)
    y[:] = r
    return y


def _solve_list(A, rhs, tol_piv):
    """`_replay(_factor(A, tol_piv), rhs)` as a list of Python floats,
    or None where `_factor` gives None.

    One and two rows, most working-set systems, are solved inline: the
    same pivot choice, tolerance test, elimination and back-substitution
    as `_factor` and `_replay`, whose back-substitution at these sizes
    uses no numpy dot, so the result has the same bits without building
    an entry or an array.
    """
    if len(rhs) == 1:
        a = A[0][0]
        if abs(a) <= tol_piv * max(1.0, abs(a)):
            return None
        return [rhs[0] / a]
    if len(rhs) > 2:
        entry = _factor(A, tol_piv)
        return None if entry is None else _replay(entry, rhs).tolist()
    (a, b), (c, d) = A
    r0, r1 = rhs
    tol = tol_piv * max(1.0, max(abs(a), abs(b), abs(c), abs(d)))
    if abs(c) > abs(a):                     # first largest wins
        a, b, r0, c, d, r1 = c, d, r1, a, b, r0
    if abs(a) <= tol:
        return None
    f = c / a
    if f:
        d, r1 = d - f * b, r1 - f * r0
    else:                                   # only a -0.0 can change
        if not d and copysign(1.0, d) < 0.0:
            d -= f * b
        if not r1 and copysign(1.0, r1) < 0.0:
            r1 -= f * r0
    if abs(d) <= tol:
        return None
    y1 = r1 / d
    return [(r0 - (b * y1 + 0.0)) / a, y1]


def _step(N, npvec, hinv):
    """The step direction of entering row `npvec` against the working set
    of signed normals N, in entry order, as the bytes of C doubles: r,
    which solves G r = g for G = N Hinv N' (entry (a, b) is N[a] . Hinv
    N[b], a the row that entered first) and g = N Hinv npvec, then
    zn = npvec . z for z = Hinv(npvec - N' r), or -inf when z or zn is at
    most PIVOT_TOL (no primal step exists), then z when one does. None
    when G is singular to PIVOT_TOL."""
    z, r = list(map(mul, hinv, npvec)), []
    if N:
        hn = [list(map(mul, hinv, a)) for a in N]
        G = [[sum(map(mul, N[min(a, b)], hn[max(a, b)])) for b in range(len(N))]
             for a in range(len(N))]
        r = _solve_list(G, [sum(map(mul, a, z)) for a in N], PIVOT_TOL)
        if r is None:
            return None
        z = npvec
        for ra, a in zip(r[:-1], N):
            z = [zj - ra * aj for zj, aj in zip(z, a)]
        ra = r[-1]
        z = [h * (zj - ra * aj) for h, zj, aj in zip(hinv, z, N[-1])]
    zn = sum(map(mul, npvec, z))
    if max(map(abs, z)) > PIVOT_TOL and zn > PIVOT_TOL:
        return array("d", [*r, zn, *z]).tobytes()
    return array("d", [*r, -inf]).tobytes()


class Rows:
    """A QP's constraint rows with the kernel's constants for them.

    `C` is the (m, n) array of rows (`shape` is its shape, so a `Rows`
    reads like the array it stands for); `hdiag` and `glin` are the
    Hessian diagonal and linear term it goes with. A `Rows` keeps H^-1,
    the unconstrained minimizer x0, row normals and step directions, and
    no Gram entries: H^-1 and x0 as Python floats, and a row's normal
    once the row first enters a working set. `steps` keeps the step
    direction (see `_step`) of each entering row p and working set W met,
    the empty one included, under the bytes of (p, *W) (a tuple where a
    row index passes 255): it reads p, W in entry order and the balance
    row's sign, never x, the multipliers or b, so it holds for every
    period. `polish` keeps, under the bytes of W, the `_factor` of the
    final working set's KKT matrix, or None where it is singular, which
    reads W, the sign and `hdiag` alone. Nothing is kept against the
    balance row flipped to the other side of its equality: its product
    sums differ from the unflipped ones in the sign of a zero, and no key
    carries the sign.
    `normals` may be shared by every `Rows` of one C. A `Rows` never
    writes its arrays. `qp` keeps one per mode template (`qp._Template`).
    """

    __slots__ = ("C", "shape", "hdiag", "glin", "hinv", "x0", "normals", "steps", "polish")

    def __init__(self, hdiag, glin, C, normals=None):
        self.C, self.shape, self.hdiag, self.glin = C, C.shape, hdiag, glin
        self.normals = {} if normals is None else normals   # row -> normal, a list
        hinv = 1.0 / hdiag
        self.x0, self.hinv = (-glin * hinv).tolist(), hinv.tolist()
        self.steps = {}     # bytes((p, *W)) -> step direction
        self.polish = {}    # bytes(W) -> _factor of W's KKT matrix, or None

    def normal(self, p):
        """The normal of row p, as a list of Python floats."""
        npvec = self.normals.get(p)
        if npvec is None:
            npvec = self.normals[p] = self.C[p].tolist()
        return npvec


def qp_core(hdiag, glin, rows, bvec, max_iter):
    """Solve min 1/2 x'diag(hdiag)x + glin'x s.t. C x >= bvec, row 0 an equality.

    `rows` is the `Rows` of C made with hdiag and glin (both stay
    arguments: perfbench's tracer reads `rows` third); its constants
    serve this call and fill for the next. Returns (status, x, w,
    iterations, bad_row). For an optimum x and w are arrays, w the row
    multipliers in the >= convention described in the module docstring;
    otherwise x is the last iterate as a list, which may be the rows'
    own x0 and is not to be changed, and w is None. bad_row is the row
    certifying infeasibility (-1 otherwise). The iterations run on
    Python floats, which cost far less than numpy calls at these sizes.
    """
    R, C = rows, rows.C
    m, n = R.shape
    x, hinv, steps, polish = R.x0, R.hinv, R.steps, R.polish
    key_of = bytes if m <= 256 else tuple   # a byte per row index where they fit
    bl = bvec.tolist()
    W, u = [], []               # active rows (W[0] is the balance once added), multipliers
    sign = 1.0                  # on the balance row's normal
    N = []                      # signed normals of W
    lim = bvec.copy()           # bvec with -inf on the rows of W, so C x - lim skips them
    slack = np.empty(m)
    iters = 0

    while True:
        # next row to enforce: the balance first, then the most violated
        # inequality (ties go to the lowest row index)
        if W:
            C.dot(x, out=slack)
            slack -= lim
            p = int(slack.argmin())
            if slack[p] >= -FEAS_TOL:
                break  # all rows satisfied, multipliers nonnegative: done
        else:
            p = 0

        # the row's normal, the balance's flipped when x lies above it
        npvec = R.normal(p)
        if p == 0 and sum(map(mul, npvec, x)) - bl[0] > 0.0:
            sign, npvec = -1.0, [-v for v in npvec]
            steps, polish = {}, {}      # nothing against the flipped balance is kept
        bp, up = sign * bl[0] if p == 0 else bl[p], 0.0

        while True:
            iters += 1
            if iters > max_iter:
                return NUMERIC_FAIL, x, None, iters, p

            # step directions: r in the duals of W, z in primal space,
            # zn = npvec . z, or -inf when no primal step exists, kept in
            # the rows (see `Rows`)
            key = key_of((p, *W))
            step = steps.get(key)
            if step is None:
                step = _step(N, npvec, hinv)
                if step is None:
                    return NUMERIC_FAIL, x, None, iters, p
                steps[key] = step
            k, d = len(W), memoryview(step).cast("d")
            r, zn, z = d[:k], d[k], d[k + 1:]

            # dual step bound: first active inequality whose multiplier
            # hits 0 (the lowest index among equal ratios)
            t1, l1 = inf, -1
            for a in range(1, len(W)):
                if r[a] > PIVOT_TOL:
                    ta = u[a] / r[a]
                    if l1 < 0 or ta < t1:
                        t1, l1 = ta, a

            # primal step to reach the new row
            t2 = inf
            if zn > PIVOT_TOL:
                t2 = max(0.0, -(sum(map(mul, npvec, x)) - bp) / zn)

            if t1 == inf and t2 == inf:
                # the row's normal lies in span(W) with a nonnegative dual
                # ray: Farkas certificate, the constraint set is empty
                return INFEASIBLE, x, None, iters, p

            # a full primal step adds row p; otherwise relax the blocking
            # row (without moving x when no primal step exists) and retry
            t = min(t1, t2)
            if t2 < inf:
                x = [xj + t * zj for xj, zj in zip(x, z)]
            u = [ua - t * ra for ua, ra in zip(u, r)]
            up += t
            if t2 <= t1:
                if len(W) > n:
                    return NUMERIC_FAIL, x, None, iters, p
                W.append(p)
                u.append(up)
                N.append(npvec)
                lim[p] = -inf
                break
            lim[W[l1]] = bl[W[l1]]
            del W[l1], u[l1], N[l1]

    # polish: re-solve the KKT system of the final active set in one shot;
    # the top-right block carries -N so u keeps the convention H x + g - N u = 0.
    # Its factorization is kept in the rows (see `Rows`)
    k, key = len(W), key_of(W)
    if key in polish:
        fac = polish[key]
    else:
        K = [[0.0] * n + [-a[j] for a in N] for j in range(n)]
        for j, h in enumerate(R.hdiag.tolist()):
            K[j][j] = h
        fac = polish[key] = _factor(K + [a + [0.0] * k for a in N], PIVOT_TOL)
    sol = None if fac is None else _replay(
        fac, [-v for v in R.glin.tolist()] + [sign * bl[0]] + [bl[a] for a in W[1:]])
    # accept the polished point only if it kept the active multipliers
    # nonnegative and the inactive rows feasible
    if sol is not None:
        ys = sol.tolist()
        if (all(ys[n + a] >= -FEAS_TOL for a in range(1, k))
                and (C @ sol[:n] - lim).min() >= -FEAS_TOL):
            x, u = sol[:n], ys[n:]
    w_out = np.zeros(m)
    w_out[W] = u
    w_out[0] *= sign
    return OPTIMAL, np.asarray(x), w_out, iters, -1
