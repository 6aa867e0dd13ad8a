"""Stage cost pieces: fuel, emissions, switching, and their aggregates.

The per-period running cost Q prices committed units' fuel plus their
emissions at the carbon market price, and adds the DG and DR cost
curves. Switching between commitment vectors is charged in closed form:

    kappa_n(i_prev, i) = c_bank + (c_fix - c_bank + c_shut) * i_prev
                         - (c_fix + c_shut) * i_prev * i

which works out to c_bank for every period a unit sits off (banking,
including the period it restarts) and c_fix + c_shut at shutdown. The
quota rebate sum_n quota_n * price is a horizon-level constant and is
deliberately NOT part of Q; trajectory totals subtract it once.
"""

from __future__ import annotations

import numpy as np

from .scenario import Scenario, ThermalUnitParams, VirtualResourceParams

__all__ = [
    "fuel_cost",
    "emission",
    "resource_cost",
    "running_cost",
    "kappa",
    "switching_cost",
    "switching_matrix",
    "switching_row",
    "quota_rebate",
]


def fuel_cost(unit: ThermalUnitParams, p: float) -> float:
    """Fuel cost of one unit at output p MW, $/period."""
    return unit.a * p * p + unit.b * p + unit.c


def emission(unit: ThermalUnitParams, p: float) -> float:
    """Carbon emission of one unit at output p MW, ton/period."""
    return unit.alpha * p * p + unit.beta * p + unit.gamma


def resource_cost(vr: VirtualResourceParams, p: float) -> float:
    """DG or DR cost at output p MW, $/period."""
    return vr.a * p * p + vr.b * p + vr.c


def running_cost(s: Scenario, commitment, dispatch) -> float:
    """Per-period dispatch cost Q for commitment I and dispatch P.

    dispatch has length N+2 (thermal..., dg, dr). Outputs of
    uncommitted units do not contribute; the quota rebate is excluded.
    Summed on Python floats, which round as numpy's scalars do.
    """
    p_e = s.cet.price
    dispatch = np.asarray(dispatch, dtype=float).tolist()
    total = 0.0
    for n, u in enumerate(s.units):
        if commitment[n]:
            p = dispatch[n]
            total += fuel_cost(u, p) + p_e * emission(u, p)
    total += resource_cost(s.dg, dispatch[s.n_units])
    total += resource_cost(s.dr, dispatch[s.n_units + 1])
    return total


def kappa(unit: ThermalUnitParams, i_prev: int, i_now: int) -> float:
    """Switching charge for one unit moving from status i_prev to i_now.

    Factored so every corner of the truth table evaluates exactly: the
    expanded polynomial form leaves cancellation residue on stay-on.
    """
    return (
        unit.c_bank * (1 - i_prev)
        + (unit.c_fix + unit.c_shut) * i_prev * (1 - i_now)
    )


def switching_cost(s: Scenario, commit_prev, commit_now) -> float:
    """Total switching charge between consecutive commitment vectors."""
    return sum(
        kappa(u, int(commit_prev[n]), int(commit_now[n]))
        for n, u in enumerate(s.units)
    )


def switching_matrix(s: Scenario) -> np.ndarray:
    """K[i_prev, i] = switching_cost over all pairs of modes as binary
    integers (unit 1 = MSB), summed in unit order from the corners of
    kappa so each entry equals switching_cost bit for bit."""
    return switching_row(s, np.arange(1 << s.n_units))


def switching_row(s: Scenario, i_prev) -> np.ndarray:
    """Row K[i_prev] of switching_matrix alone (rows, for an array)."""
    n = s.n_units
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    K = np.zeros(np.shape(i_prev) + (1 << n,))
    for j, u in enumerate(s.units):
        corners = np.array([[kappa(u, a, b) for b in (0, 1)] for a in (0, 1)])
        K += corners[bits[i_prev, j, None], bits[:, j]]
    return K


def quota_rebate(s: Scenario) -> float:
    """Value of the free emission allowances, sum_n quota_n * price ($)."""
    return sum(u.quota for u in s.units) * s.cet.price

