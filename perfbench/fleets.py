"""Seeded synthetic fleets built from the bundled example2 units.

The generator tiles the five example2 units up to the requested fleet
size, perturbs each unit's fuel coefficients ``a`` and ``b`` by the seed,
and scales every period's demand and reserves by the ratio of the new
fleet's total ``p_max`` to the example's, so the fleet stays as tight
as the example at every size. Unit limits are never perturbed, so the
feasible (t, mode) pattern, and with it the amount of work, does not
depend on the seed; only costs and dispatch do.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

BASE_SCENARIO = "example2_case1"
# relative half-width of the seeded perturbation of a and b
COST_SPREAD = 0.02
# ramp limits, as a share of each unit's p_max; tight enough to bind on
# example2's load swings, loose enough that every training target and
# closed-loop step keeps a feasible successor
RAMP_FRAC = 0.5


def with_ramps(s):
    """The scenario with symmetric ramp limits on every unit, enforced."""
    units = tuple(
        replace(u, ramp_up=RAMP_FRAC * u.p_max, ramp_down=RAMP_FRAC * u.p_max)
        for u in s.units
    )
    return replace(s, units=units, ramp_enforced=True, name=s.name + "_ramped")


def synthetic_fleet(ucd, n_units: int, seed: int, ramps: bool = False):
    """An n_units fleet over example2's 24 periods, reproducible from seed.

    ``ucd`` is the imported ``ucdkit`` package. The result passes
    ``validate_scenario``; its serialization parses back to an equal
    fingerprint.
    """
    if n_units < 1:
        raise ValueError("a fleet needs at least one unit")
    base = ucd.load_bundled_scenario(BASE_SCENARIO)
    rng = np.random.default_rng(seed)
    k = len(base.units)
    units = []
    for i in range(n_units):
        u = base.units[i % k]
        fa, fb = 1.0 + COST_SPREAD * rng.uniform(-1.0, 1.0, size=2)
        units.append(replace(u, a=u.a * fa, b=u.b * fb))
    scale = sum(u.p_max for u in units) / sum(u.p_max for u in base.units)
    periods = tuple(
        replace(p, demand=p.demand * scale, reserve_lo=p.reserve_lo * scale,
                reserve_hi=p.reserve_hi * scale)
        for p in base.periods
    )
    commitment = tuple(base.initial_commitment[i % k] for i in range(n_units))
    dispatch = tuple(base.initial_dispatch[i % k] for i in range(n_units))
    s = replace(
        base, units=tuple(units), periods=periods,
        initial_commitment=commitment,
        initial_dispatch=dispatch + tuple(base.initial_dispatch[k:]),
        name=f"synthetic_n{n_units}_seed{seed}",
    )
    if ramps:
        s = with_ramps(s)
    problems = ucd.validate_scenario(s)
    if problems:
        raise ValueError("generated fleet is invalid: " + "; ".join(problems))
    return s
