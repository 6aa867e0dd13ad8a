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

Kernel convention: rows are C[i] . x >= b[i]; the first meq rows are
equalities (sign-flipped as needed, never dropped, multiplier free).
Returned multipliers w satisfy H x + g - C^T w = 0 with w >= 0 on
inequality rows.
"""

from __future__ import annotations

import numpy as np

__all__ = ["qp_core", "solve_pivoted", "OPTIMAL", "INFEASIBLE", "NUMERIC_FAIL"]

# status codes returned by the kernel
OPTIMAL = 0
INFEASIBLE = 1
NUMERIC_FAIL = 2


def solve_pivoted(A, rhs, tol_piv):
    """Solve A y = rhs by Gaussian elimination with partial pivoting.

    Returns None when a pivot is at or below tol_piv * max(1, max|A|),
    so a near-singular system is reported rather than solved.
    """
    k = len(rhs)
    M = np.empty((k, k + 1))          # augmented [A | rhs], eliminated in place
    M[:, :k] = A
    M[:, k] = rhs
    tol = tol_piv * max(1.0, float(abs(M[:, :k]).max(initial=0.0)))
    for c in range(k):
        piv = c + int(abs(M[c:, c]).argmax())   # first largest wins
        if abs(M[piv, c]) <= tol:
            return None
        if piv != c:
            M[[c, piv]] = M[[piv, c]]
        M[c + 1:, c:] -= M[c + 1:, c, None] / M[c, c] * M[c, c:]
    y = M[:, k]
    for c in range(k - 1, -1, -1):
        y[c] = (y[c] - M[c, c + 1:k] @ y[c + 1:]) / M[c, c]
    return y


def qp_core(hdiag, glin, C, bvec, meq, tol_feas, tol_piv, max_iter):
    """Solve min 1/2 x'diag(hdiag)x + glin'x s.t. C x >= bvec (meq leading equalities).

    Returns (status, x, w, iterations, bad_row). w are row multipliers in
    the >= convention described in the module docstring; bad_row is the
    row certifying infeasibility (-1 otherwise).
    """
    n, m = hdiag.shape[0], C.shape[0]
    hinv = 1.0 / hdiag
    x = -glin * hinv
    W, sig, u = [], [], []      # active rows, signs on their normals, multipliers
    w_out = np.zeros(m)
    iters = 0

    while True:
        # next row to enforce: equalities first, then the most violated
        # inequality (ties go to the lowest row index)
        if len(W) < meq:
            p = next(i for i in range(meq) if i not in W)
        else:
            slack = C @ x - bvec
            slack[W] = np.inf      # every equality is in W by now
            p = int(np.argmin(slack))
            if slack[p] >= -tol_feas:
                break  # all rows satisfied, multipliers nonnegative: done

        sp = -1.0 if p < meq and C[p] @ x - bvec[p] > 0.0 else 1.0
        npvec, bp, up = sp * C[p], sp * bvec[p], 0.0

        while True:
            iters += 1
            if iters > max_iter:
                return NUMERIC_FAIL, x, w_out, iters, p

            # step directions: r in the duals of W, z in primal space;
            # r solves (N' Hinv N) r = N' Hinv npvec, z = Hinv(npvec - N r)
            r, z = (), hinv * npvec
            if W:
                N = np.array(sig)[:, None] * C[W]
                NH = N * hinv
                r = solve_pivoted(NH @ N.T, NH @ npvec, tol_piv)
                if r is None:
                    return NUMERIC_FAIL, x, w_out, iters, p
                z = hinv * (npvec - r @ N)

            # dual step bound: first active inequality whose multiplier hits 0
            t1, l1 = min(((u[a] / r[a], a) for a in range(len(W))
                          if W[a] >= meq and r[a] > tol_piv), default=(np.inf, -1))

            # primal step to reach the new row
            t2 = np.inf
            zn = npvec @ z
            if np.abs(z).max() > tol_piv and zn > tol_piv:
                t2 = max(0.0, -(npvec @ x - bp) / zn)

            if t1 == np.inf and t2 == np.inf:
                # the row's normal lies in span(W) with a nonnegative dual
                # ray: Farkas certificate, the constraint set is empty
                return INFEASIBLE, x, w_out, iters, p

            # a full primal step adds row p; otherwise relax the blocking
            # row (without moving x when no primal step exists) and retry
            t = min(t1, t2)
            if t2 < np.inf:
                x = x + t * z
            u = [ua - t * ra for ua, ra in zip(u, r)]
            up += t
            if t2 <= t1:
                if len(W) > n:
                    return NUMERIC_FAIL, x, w_out, iters, p
                W.append(p)
                sig.append(sp)
                u.append(up)
                break
            del W[l1], sig[l1], u[l1]

    # polish: re-solve the KKT system of the final active set in one shot;
    # the top-right block carries -N so u keeps the convention H x + g - N u = 0
    k = len(W)
    N = np.array(sig)[:, None] * C[W]
    K = np.zeros((n + k, n + k))
    K[:n, :n] = np.diag(hdiag)
    K[:n, n:] = -N.T
    K[n:, :n] = N
    sol = solve_pivoted(K, np.concatenate([-glin, np.array(sig) * bvec[W]]), tol_piv)
    # accept the polished point only if it kept the active multipliers
    # nonnegative and the inactive rows feasible
    if sol is not None:
        slack = C @ sol[:n] - bvec
        slack[W] = 0.0
        if (all(sol[n + a] >= -tol_feas for a in range(k) if W[a] >= meq)
                and slack.min() >= -tol_feas):
            x, u = sol[:n], list(sol[n:])
    w_out[W] = np.multiply(sig, u)
    return OPTIMAL, x, w_out, iters, -1
