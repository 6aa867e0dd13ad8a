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
from .qp import int_to_mode, mode_dynamics, mode_to_int
from .scenario import Scenario

__all__ = [
    "Schedule",
    "PeriodRecord",
    "Trajectory",
    "mode_to_int",      # with int_to_mode, re-exported from qp
    "int_to_mode",
    "schedule_text",
    "parse_schedule",
    "run_schedule",
    "trajectory_csv",
]


@dataclass(frozen=True)
class Schedule:
    """A commitment vector per period, each as long as the first and
    checked by `mode_to_int`."""

    modes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.modes:
            raise ValueError("schedule must cover at least one period")
        for mode in self.modes:
            mode_to_int(mode, len(self.modes[0]))

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
            v = "0123456789".find(ch)       # ASCII digits only; -1 otherwise
            if not 0 <= v < (1 << n_units):
                raise UcdError(f"bad schedule digit {ch!r} for {n_units} units")
            modes.append(int_to_mode(v, n_units))
    if horizon is not None and len(modes) != horizon:
        raise UcdError(f"schedule covers {len(modes)} periods, scenario has {horizon}")
    return Schedule(modes=tuple(modes))


def _ascii_number(text: str, kind):
    """kind(text), kind int or float, for text in ASCII without
    underscores: both builtins also read other Unicode digits and
    underscores between digits, as CLI numbers may not (parse_schedule's
    digits are ASCII too). ValueError otherwise."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a number in ASCII digits")
    return kind(text)


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
