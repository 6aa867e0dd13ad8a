"""Mode schedules and closed trajectories of the switched system.

A schedule fixes the commitment vector for every period; running it
chains the dispatch map f_I through the horizon and prices each stage
with the running cost Q plus the switching charge kappa. Totals subtract
the quota rebate once, so total_cost is the full horizon objective
including net carbon trading cost.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .costs import emission, quota_rebate, running_cost, switching_cost
from .errors import UcdError
from .qp import mode_dynamics
from .scenario import Scenario

__all__ = [
    "Schedule",
    "PeriodRecord",
    "Trajectory",
    "mode_to_int",
    "int_to_mode",
    "schedule_text",
    "parse_schedule",
    "run_schedule",
    "trajectory_csv",
]


def mode_to_int(bits, n_units=None) -> int:
    """Commitment vector as a binary integer, unit 1 in the most
    significant position ([0,1] -> 1, [1,0] -> 2, [1,1] -> 3). An entry
    other than 0 or 1 raises ValueError; int() alone would read 1.9 as 1.
    Given n_units, so does a vector of another length, which would
    otherwise read as some other mode."""
    if n_units is not None and len(bits) != n_units:
        raise ValueError(f"commitment must have {n_units} entries, got {bits!r}")
    v = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"commitment entries must be 0 or 1, got {bits!r}")
        v = (v << 1) | int(b)
    return v


def int_to_mode(v: int, n: int) -> tuple[int, ...]:
    return tuple((v >> (n - 1 - i)) & 1 for i in range(n))


@dataclass(frozen=True)
class Schedule:
    """A commitment vector per period."""

    modes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.modes:
            raise ValueError("schedule must cover at least one period")
        n = len(self.modes[0])
        for mode in self.modes:
            if len(mode) != n or any(b not in (0, 1) for b in mode):
                raise ValueError(f"malformed mode {mode!r}")

    @property
    def horizon(self) -> int:
        return len(self.modes)

    @property
    def n_units(self) -> int:
        return len(self.modes[0])


def schedule_text(modes) -> str:
    """Compact schedule form: one digit per period (the mode as a binary
    integer) when units fit in a digit, otherwise dash-joined bitstrings."""
    if isinstance(modes, Schedule):
        modes = modes.modes
    modes = list(modes)
    n = len(modes[0])
    if n <= 3:
        return "".join(str(mode_to_int(m)) for m in modes)
    return "-".join("".join(str(b) for b in m) for m in modes)


def parse_schedule(text: str, n_units: int, horizon: int | None = None) -> Schedule:
    """Parse either digit form ("122333") or separated bitstrings
    ("01-10-11" or "01,10,11")."""
    text = text.strip()
    if not text:
        raise UcdError("empty schedule text")
    if any(sep in text for sep in ",- "):
        tokens = [tok for tok in text.replace(",", " ").replace("-", " ").split() if tok]
        modes = []
        for tok in tokens:
            if len(tok) != n_units or any(ch not in "01" for ch in tok):
                raise UcdError(f"bad mode token {tok!r}: expected {n_units} bits")
            modes.append(tuple(int(ch) for ch in tok))
    else:
        if n_units > 3:
            raise UcdError("digit schedule form requires 3 or fewer units")
        modes = []
        for ch in text:
            v = int(ch, 10) if ch.isdigit() else -1
            if not 0 <= v < (1 << n_units):
                raise UcdError(f"bad schedule digit {ch!r} for {n_units} units")
            modes.append(int_to_mode(v, n_units))
    if horizon is not None and len(modes) != horizon:
        raise UcdError(f"schedule covers {len(modes)} periods, scenario has {horizon}")
    return Schedule(modes=tuple(modes))


@dataclass(frozen=True)
class PeriodRecord:
    t: int
    commitment: tuple[int, ...]
    dispatch: np.ndarray          # length N+2
    running: float
    switching: float
    emissions_ton: float


@dataclass(frozen=True)
class Trajectory:
    scenario_name: str
    schedule: Schedule
    periods: tuple[PeriodRecord, ...]
    running_total: float
    switching_total: float
    per_unit_tons: tuple[float, ...]
    emission_tons_total: float
    quota_rebate: float
    net_emission_cost: float      # priced emissions minus the rebate
    total_cost: float             # running + switching - rebate


def run_schedule(s: Scenario, schedule: Schedule | str) -> Trajectory:
    """Drive the switched system along a fixed schedule.

    The state entering period 1 is the scenario's initial dispatch and
    commitment; each period dispatches its mode from the previous state
    and accrues Q plus kappa. Raises InfeasibleModeError naming the first
    failing (t, I) when the schedule leaves the feasible set.
    """
    if isinstance(schedule, str):
        schedule = parse_schedule(schedule, s.n_units, s.horizon)
    if schedule.horizon != s.horizon or schedule.n_units != s.n_units:
        raise UcdError(
            f"schedule shape {schedule.horizon}x{schedule.n_units} does not match "
            f"scenario {s.horizon}x{s.n_units}"
        )
    p_prev = np.array(s.initial_dispatch, dtype=float)
    i_prev = s.initial_commitment
    records = []
    per_unit = np.zeros(s.n_units)
    run_sum = 0.0
    sw_sum = 0.0
    for t in range(1, s.horizon + 1):
        mode = schedule.modes[t - 1]
        dispatch = mode_dynamics(s, t, mode, p_prev)
        running = running_cost(s, mode, dispatch)
        switching = switching_cost(s, i_prev, mode)
        tons = 0.0
        for n, u in enumerate(s.units):
            if mode[n]:
                e = emission(u, dispatch[n])
                per_unit[n] += e
                tons += e
        records.append(PeriodRecord(
            t=t, commitment=mode, dispatch=dispatch,
            running=running, switching=switching, emissions_ton=tons,
        ))
        run_sum += running
        sw_sum += switching
        p_prev = dispatch
        i_prev = mode
    rebate = quota_rebate(s)
    priced = sum(
        (per_unit[n] - u.quota) * s.cet.price for n, u in enumerate(s.units)
    )
    return Trajectory(
        scenario_name=s.name,
        schedule=schedule,
        periods=tuple(records),
        running_total=run_sum,
        switching_total=sw_sum,
        per_unit_tons=tuple(float(v) for v in per_unit),
        emission_tons_total=float(per_unit.sum()),
        quota_rebate=rebate,
        net_emission_cost=float(priced),
        total_cost=run_sum + sw_sum - rebate,
    )


def trajectory_csv(traj: Trajectory) -> str:
    """Fixed-format CSV: t, I_1..I_N, P_1..P_N, P_DG, P_DR, Q, kappa,
    emissions_ton, cumulative_cost. Values at full precision."""
    n = len(traj.periods[0].commitment)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    header = (["t"] + [f"I_{i + 1}" for i in range(n)]
              + [f"P_{i + 1}" for i in range(n)] + ["P_DG", "P_DR", "Q", "kappa",
                 "emissions_ton", "cumulative_cost"])
    w.writerow(header)
    cum = 0.0
    for rec in traj.periods:
        cum += rec.running + rec.switching
        row = [rec.t] + [int(b) for b in rec.commitment]
        row += [repr(float(v)) for v in rec.dispatch]
        row += [repr(float(rec.running)), repr(float(rec.switching)),
                repr(float(rec.emissions_ton)), repr(float(cum))]
        w.writerow(row)
    return buf.getvalue()
