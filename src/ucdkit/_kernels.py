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
Larger ones, and the polish, keep `solve_pivoted`, whose
back-substitution leaves every row but the last two to numpy's dot.
That dot goes through BLAS, which may fuse a multiply and an add and
picks its order of addition by length and stride: with numpy 2.4 on
OpenBLAS 0.3.31 (x86-64, Haswell kernels), a length-2 dot differed from
`a*c + b*d` on 30,751 of 200,000 random pairs. So no Python sum
reproduces its bits, and only numpy itself does.

What a call computes from the rows, H and the linear term alone (H^-1,
the unconstrained minimizer, row normals, the balance row's H^-1 scaled
copy and the Gram entries of pairs of rows) is kept in a `Rows`, which a
caller passes for C and may reuse: the dispatch QP's template keeps one
per mode for every period of a scenario. Its caches fill as rows enter a
working set, and each entry is the expression an uncached call
evaluates, so a call returns the same bits either way.
"""

from __future__ import annotations

from itertools import chain
from math import copysign, inf
from operator import mul

import numpy as np

__all__ = ["Rows", "qp_core", "solve_pivoted", "OPTIMAL", "INFEASIBLE", "NUMERIC_FAIL"]

# status codes returned by the kernel
OPTIMAL = 0
INFEASIBLE = 1
NUMERIC_FAIL = 2


def solve_pivoted(A, rhs, tol_piv):
    """Solve A y = rhs by Gaussian elimination with partial pivoting.

    Returns None when a pivot is at or below tol_piv * max(1, max|A|),
    so a near-singular system is reported rather than solved. The result
    is bit for bit that of the same elimination on a numpy array: Python
    floats round as numpy's elementwise ops do, a row whose multiple of
    the pivot row is a zero is only updated where it holds -0.0 (nothing
    else can change, and elimination never makes a -0.0), and
    back-substitution keeps numpy's dot, whose order of addition a
    sequential sum does not follow (a one-term dot is the term + 0.0).
    """
    k = len(rhs)
    M = [[*row, v] for row, v in zip(A, rhs)]
    tol = tol_piv * max(1.0, max(map(abs, chain.from_iterable(A)), default=0.0))
    Z = [None] * k          # per row, the columns that may hold -0.0, found when first needed
    for c in range(k):
        col = [abs(row[c]) for row in M[c:]]
        big = max(col)
        if big <= tol:
            return None
        piv = c + col.index(big)                # first largest wins
        M[c], M[piv], Z[c], Z[piv] = M[piv], M[c], Z[piv], Z[c]
        top = M[c]
        d, tail = top[c], top[c + 1:]
        for i in range(c + 1, k):
            row = M[i]
            f = row[c] / d
            if f:
                row[c + 1:] = [a - f * b for a, b in zip(row[c + 1:], tail)]
                continue
            if Z[i] is None:
                Z[i] = [j for j in range(c + 1, k + 1) if not row[j] and copysign(1.0, row[j]) < 0.0]
            for j in Z[i]:
                if j > c:
                    row[j] -= f * top[j]
    D = np.array(M)
    y = D[:, k]
    for c in range(k - 1, -1, -1):
        row = M[c]
        if c < k - 2:
            dot = D[c, c + 1:k] @ y[c + 1:]
        else:
            dot = row[c + 1] * y[c + 1] + 0.0 if c < k - 1 else 0.0
        y[c] = (row[k] - dot) / row[c]
    return y


def _solve_list(A, rhs, tol_piv):
    """solve_pivoted(A, rhs, tol_piv) as a list of Python floats, or None.

    One and two rows, most working-set systems, are solved inline: the
    same pivot choice, tolerance test, elimination and back-substitution
    as solve_pivoted, whose back-substitution at these sizes uses no
    numpy dot, so the result has the same bits without building the
    augmented matrix or an array.
    """
    if len(rhs) == 1:
        a = A[0][0]
        if abs(a) <= tol_piv * max(1.0, abs(a)):
            return None
        return [rhs[0] / a]
    if len(rhs) > 2:
        y = solve_pivoted(A, rhs, tol_piv)
        return None if y is None else y.tolist()
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


class Rows:
    """A QP's constraint rows with the kernel's constants for them.

    `C` is the (m, n) array of rows (`shape` is its shape, so a `Rows`
    reads like the array it stands for); `hdiag` and `glin` are the
    Hessian diagonal and linear term it goes with. H^-1 and the
    unconstrained minimizer are kept as Python floats. Each row's normal
    and the Gram entry `N[a] . H^-1 N[p]` of a pair of rows are filled on
    first use, under int keys: a row is converted when it first enters a
    working set, and a pair's entry when one row enters with the other
    in the set. A row's H^-1 scaled copy is kept for the balance row
    alone, the only row whose copy a step reads; the others are made
    only to fill a Gram entry. The balance row flipped to the other side
    of its equality is never cached: its product sums differ from the
    unflipped ones in the sign of a zero. `normals` may be shared by
    every `Rows` of one C, and `pool` by any number of them: it holds one
    float object per value kept. A `Rows` never writes its arrays.
    """

    __slots__ = ("C", "shape", "hdiag", "glin", "hinv", "x0", "normals", "pool", "first",
                 "gram")

    def __init__(self, hdiag, glin, C, normals=None, pool=None):
        self.C, self.shape, self.hdiag, self.glin = C, C.shape, hdiag, glin
        self.normals = {} if normals is None else normals   # row -> normal, a list
        self.pool = {} if pool is None else pool
        hinv = 1.0 / hdiag
        pool = self.pool
        self.x0, self.hinv = ([pool.setdefault(v, v) if v else _kept(v, pool) for v in a.tolist()]
                              for a in (-glin * hinv, hinv))
        self.first = None   # the balance row's H^-1 scaled copy and Gram entry
        self.gram = {}      # a * m + p -> normal(a) . H^-1 normal(p)

    def normal(self, p):
        """The normal of row p, as a list of Python floats."""
        npvec = self.normals.get(p)
        if npvec is None:
            npvec = self.normals[p] = self.C[p].tolist()
        return npvec


def _kept(v, pool):
    """The pool's float object of v's value. Nonzero floats that compare
    equal have equal bits; a zero keeps its sign."""
    if v:
        return pool.setdefault(v, v)
    return _NEG_ZERO if copysign(1.0, v) < 0.0 else _ZERO


_ZERO, _NEG_ZERO = 0.0, -0.0


def qp_core(hdiag, glin, rows, bvec, tol_feas, tol_piv, max_iter):
    """Solve min 1/2 x'diag(hdiag)x + glin'x s.t. C x >= bvec, row 0 an equality.

    `rows` is the `Rows` of C made with hdiag and glin (both stay
    arguments: perfbench's tracer reads `rows` third); its constants
    serve this call and fill for the next. Returns (status, x, w,
    iterations, bad_row). w are row multipliers in the >= convention
    described in the module docstring; bad_row is the row certifying
    infeasibility (-1 otherwise). The iterations run on Python floats,
    which cost far less than numpy calls at these sizes.
    """
    R, C = rows, rows.C
    m, n = R.shape
    x, hinv, gram = R.x0, R.hinv, R.gram
    bl = bvec.tolist()
    W, u = [], []               # active rows (W[0] is the balance once added), multipliers
    sign = 1.0                  # on the balance row's normal
    N, G = [], []               # signed normals of W, and their Gram matrix N Hinv N'
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
            if slack[p] >= -tol_feas:
                break  # all rows satisfied, multipliers nonnegative: done
        else:
            p = 0

        # the row's normal, the balance's flipped when x lies above it;
        # then N Hinv npvec and npvec Hinv npvec. The balance enters
        # first and is never dropped, so only its step reads Hinv npvec
        npvec = R.normal(p)
        hnp, g = None, []
        if p == 0 and sum(map(mul, npvec, x)) - bl[0] > 0.0:
            sign, npvec = -1.0, [-v for v in npvec]
            hnp = list(map(mul, hinv, npvec))
            gpp = sum(map(mul, npvec, hnp))
        elif p == 0:
            if R.first is None:
                hnp = [_kept(v, R.pool) for v in map(mul, hinv, npvec)]
                R.first = hnp, _kept(sum(map(mul, npvec, hnp)), R.pool)
            hnp, gpp = R.first
        else:
            for a, na in zip(W, N):
                cached = a > 0 or sign > 0.0
                ga = gram.get(a * m + p) if cached else None
                if ga is None:
                    hnp = hnp or list(map(mul, hinv, npvec))
                    ga = sum(map(mul, na, hnp))
                    if cached:
                        ga = gram[a * m + p] = _kept(ga, R.pool)
                g.append(ga)
            gpp = gram.get(p * m + p)
            if gpp is None:
                hnp = hnp or list(map(mul, hinv, npvec))
                gpp = gram[p * m + p] = _kept(sum(map(mul, npvec, hnp)), R.pool)
        bp, up = sign * bl[0] if p == 0 else bl[p], 0.0

        while True:
            iters += 1
            if iters > max_iter:
                return NUMERIC_FAIL, np.array(x), np.zeros(m), iters, p

            # step directions: r in the duals of W, z in primal space;
            # r solves (N Hinv N') r = N Hinv npvec, z = Hinv(npvec - N' r)
            r, z = [], hnp
            if W:
                r = _solve_list(G, g, tol_piv)
                if r is None:
                    return NUMERIC_FAIL, np.array(x), np.zeros(m), iters, p
                z = npvec
                for ra, a in zip(r[:-1], N):
                    z = [zj - ra * aj for zj, aj in zip(z, a)]
                ra = r[-1]
                z = [h * (zj - ra * aj) for h, zj, aj in zip(hinv, z, N[-1])]

            # dual step bound: first active inequality whose multiplier
            # hits 0 (the lowest index among equal ratios)
            t1, l1 = inf, -1
            for a in range(1, len(W)):
                if r[a] > tol_piv:
                    ta = u[a] / r[a]
                    if l1 < 0 or ta < t1:
                        t1, l1 = ta, a

            # primal step to reach the new row
            t2 = inf
            zn = sum(map(mul, npvec, z))
            if max(map(abs, z)) > tol_piv and zn > tol_piv:
                t2 = max(0.0, -(sum(map(mul, npvec, x)) - bp) / zn)

            if t1 == inf and t2 == inf:
                # the row's normal lies in span(W) with a nonnegative dual
                # ray: Farkas certificate, the constraint set is empty
                return INFEASIBLE, np.array(x), np.zeros(m), iters, p

            # a full primal step adds row p; otherwise relax the blocking
            # row (without moving x when no primal step exists) and retry
            t = min(t1, t2)
            if t2 < inf:
                x = [xj + t * zj for xj, zj in zip(x, z)]
            u = [ua - t * ra for ua, ra in zip(u, r)]
            up += t
            if t2 <= t1:
                if len(W) > n:
                    return NUMERIC_FAIL, np.array(x), np.zeros(m), iters, p
                W.append(p)
                u.append(up)
                N.append(npvec)
                lim[p] = -inf
                for Ga, ga in zip(G, g):
                    Ga.append(ga)
                G.append(g + [gpp])
                break
            lim[W[l1]] = bl[W[l1]]
            del W[l1], u[l1], N[l1], G[l1], g[l1]
            for Ga in G:
                del Ga[l1]

    # polish: re-solve the KKT system of the final active set in one shot;
    # the top-right block carries -N so u keeps the convention H x + g - N u = 0
    k = len(W)
    K = [[0.0] * n + [-a[j] for a in N] for j in range(n)]
    for j, h in enumerate(R.hdiag.tolist()):
        K[j][j] = h
    sol = solve_pivoted(K + [a + [0.0] * k for a in N],
                        [-v for v in R.glin.tolist()] + [sign * bl[0]] + [bl[a] for a in W[1:]],
                        tol_piv)
    # accept the polished point only if it kept the active multipliers
    # nonnegative and the inactive rows feasible
    if sol is not None:
        ys = sol.tolist()
        if (all(ys[n + a] >= -tol_feas for a in range(1, k))
                and (C @ sol[:n] - lim).min() >= -tol_feas):
            x, u = sol[:n], ys[n:]
    w_out = np.zeros(m)
    w_out[W] = u
    w_out[0] *= sign
    return OPTIMAL, np.asarray(x), w_out, iters, -1
