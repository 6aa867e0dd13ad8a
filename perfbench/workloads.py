"""The benchmark's workloads: set-up, one timed pass, and the answer check.

Every workload drives ucdkit in-process and single-threaded, through the
public API or ``ucdkit.cli.main``. A pass is a fixed amount of work drawn
from the seed, so repeated passes (and the traced pass) do identical
work. The answer check runs after the pass, untimed, and re-derives each
answer along a second path through the package:

* oracle schedules are re-evaluated with ``run_schedule`` (or re-rolled
  period by period from an arbitrary state for a tail);
* closed-loop totals, disturbed or not, are re-rolled with
  ``mode_dynamics`` and the cost functions;
* every decision's dispatch must meet demand and leave uncommitted
  units at zero, and the decisions' modes and summed cost (running plus
  switching, re-derived with the cost functions) are answers too;
* the CLI ``schedule`` table's per-row costs must equal the cost
  functions applied to its rows;
* a reported exact-tail gap must be ``n/a`` or >= -1e-6.

Decisions visit the periods in a fixed cycle, so the mix of latencies
does not depend on the seed; the seed draws the states they start from.

Every answer is also compared with the value recorded in
``answers.json`` (schedule text exactly, cost to 1e-6): answers that do
not depend on the seed once, seeded ones per input set.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout

import numpy as np

from fleets import synthetic_fleet, with_ramps
from steady import RawClock

COST_TOL = 1e-6
# a cost the CLI printed with 6 decimals carries up to 5e-7 of rounding
PRINTED_TOL = COST_TOL + 5e-7
STAGES = ("oracle", "train", "simulate")


class Pass:
    """Timings, decision latencies and outputs of one pass."""

    def __init__(self, clock=None):
        self.clock = clock or RawClock()
        self.wall = 0.0         # speed-normalised, probe time excluded
        self.raw_wall = 0.0     # as measured, probe time excluded
        self.elapsed = 0.0      # as measured
        self.stage_s = dict.fromkeys(STAGES, 0.0)
        self.decide_ms = []
        self.ops = 0
        self.disturbances = 0
        self.scored = 0
        self.out = {}
        self.answers = {}       # key -> (schedule text, cost, seeded?)
        self.failures = {}      # operation -> reason

    def timed(self, stage, fn, *args):
        """Call fn(*args) as one operation, adding its time to stage."""
        self.ops += 1
        t0 = time.perf_counter()
        out = fn(*args)
        _, dt = self.clock.span(t0, time.perf_counter())
        if stage is not None:
            self.stage_s[stage] += dt
        return out

    def decide(self, ucd, model, s, t, i_prev, p_prev):
        self.ops += 1
        t0 = time.perf_counter()
        out = ucd.schedule_step(model, s, t, i_prev, p_prev)
        _, dt = self.clock.span(t0, time.perf_counter())
        self.decide_ms.append(1e3 * dt)
        return out

    def expect(self, op, ok, why):
        if not ok and op not in self.failures:
            self.failures[op] = why

    def answer(self, key, text, cost, seeded):
        self.answers[key] = (text, float(cost), seeded)


def cli(ucd, argv):
    """(exit status, stdout) of one ``ucdkit`` command, run in-process."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = ucd.cli.main(list(argv))
    return rc, buf.getvalue()


def _close(a, b):
    return abs(a - b) <= COST_TOL


def rollout(ucd, s, t0, i_prev, p_prev, modes, overrides=None):
    """Stage cost (running + switching, no rebate) of driving modes from
    state (i_prev, p_prev) entering period t0, with optional realized
    dispatch overrides {t: vector}."""
    overrides = overrides or {}
    total = 0.0
    p_prev = np.asarray(p_prev, dtype=float)
    for k, mode in enumerate(modes):
        t = t0 + k
        planned = ucd.mode_dynamics(s, t, mode, p_prev)
        realized = overrides.get(t, planned)
        total += ucd.running_cost(s, mode, realized) + ucd.switching_cost(s, i_prev, mode)
        i_prev, p_prev = mode, np.asarray(realized, dtype=float)
    return total


def check_decisions(ucd, p, op, s, decisions):
    """decisions: (t, previous mode, mode, dispatch) per schedule_step
    call. Each must balance demand; their modes and summed running plus
    switching cost are recorded as one seeded answer."""
    cost = 0.0
    for t, i_prev, mode, dispatch in decisions:
        check_decision(p, op, s, t, mode, dispatch)
        cost += ucd.running_cost(s, mode, dispatch) + ucd.switching_cost(s, i_prev, mode)
    p.answer(op, ucd.schedule_text([d[2] for d in decisions]), cost, seeded=True)


def check_decision(p, op, s, t, mode, dispatch):
    demand = s.period(t).demand
    balanced = abs(float(np.sum(dispatch)) - demand) <= COST_TOL * max(1.0, demand)
    off_zero = all(dispatch[n] == 0.0 for n in range(s.n_units) if not mode[n])
    p.expect(op, balanced and off_zero,
             f"dispatch at t={t} misses demand or runs an uncommitted unit")


def check_gaps(p, op, gaps):
    """gaps: one exact-tail gap per scored disturbance, None when the
    oracle skipped it."""
    for gap in gaps:
        p.disturbances += 1
        if gap is not None:
            p.scored += 1
            p.expect(op, gap >= -COST_TOL, f"negative exact-tail gap {gap}")


def thermal_draw(rng, s, bits):
    """Dispatch of committed units uniform over their limits, others 0."""
    return np.array([rng.uniform(u.p_min, u.p_max) if bits[n] else 0.0
                     for n, u in enumerate(s.units)])


def random_bits(rng, n):
    return tuple(int(b) for b in rng.integers(0, 2, size=n))


def _write_and_reparse(ucd, s, path, p):
    """Write s as a .ucd file and parse it back, as the CLI would."""
    path.write_text(ucd.serialize_scenario(s), encoding="utf-8")
    back = ucd.parse_scenario(str(path))
    same = ucd.scenario_fingerprint(back) == ucd.scenario_fingerprint(s)
    p.expect("setup", same, f"{path.name}: fingerprint changed on round trip")
    return back


# ---------------------------------------------------------------------------


class BundledCli:
    """The CLI workflow on all five shipped fleets: what users run today."""

    name = "bundled_cli"
    decisions_per_fleet = 72     # three per period of the 24-period fleets
    train_samples = 100

    def setup(self, ucd, seed, workdir, p):
        return {"fleets": {n: ucd.load_bundled_scenario(n) for n in ucd.BUNDLED_SCENARIOS},
                "workdir": workdir, "seed": seed}

    def run_pass(self, ucd, ctx, p):
        for i, (name, s) in enumerate(ctx["fleets"].items()):
            rng = np.random.default_rng([ctx["seed"], 1, i])
            small = s.n_units <= 2
            model = str(ctx["workdir"] / f"{name}.model.json")
            k_dist = s.horizon // 2
            disturb = ",".join(f"{v:.1f}" for v in thermal_draw(rng, s, (1,) * s.n_units))
            from_t = int(rng.integers(2, s.horizon + 1))
            prev_mode = random_bits(rng, s.n_units)
            state = ",".join(f"{v:.1f}" for v in thermal_draw(rng, s, prev_mode))
            o = p.out[name] = {"k_dist": k_dist, "disturb": disturb, "from_t": from_t,
                               "prev_mode": prev_mode}
            o["validate"] = p.timed(None, cli, ucd, ["validate", name])
            graph = [] if small else ["--graph"]
            o["oracle"] = p.timed("oracle", cli, ucd, ["oracle", *graph, name])
            o["train"] = p.timed("train", cli, ucd, [
                "train", name, "--out", model, "--samples", str(self.train_samples)])
            o["simulate"] = p.timed("simulate", cli, ucd, [
                "simulate", name, "--model", model, "--disturb", f"t={k_dist}:{disturb}"])
            o["schedule"] = p.timed(None, cli, ucd, [
                "schedule", name, "--model", model, "--from-t", str(from_t),
                "--state", state, "--prev-mode", "".join(map(str, prev_mode))])
            oracle_text = o["oracle"][1].split(" ")[0]
            o["run"] = p.timed(None, cli, ucd, ["run", name, oracle_text])
            if small:
                o["compare"] = p.timed("oracle", cli, ucd, ["compare", name, "--model", model])
            vm = ucd.load_model(model, s)
            o["decisions"] = []
            for k in range(self.decisions_per_fleet):
                t = 1 + k % s.horizon
                i_prev = random_bits(rng, s.n_units)
                mode, dispatch = p.decide(ucd, vm, s, t, i_prev, thermal_draw(rng, s, i_prev))
                o["decisions"].append((t, i_prev, mode, dispatch))

    def verify(self, ucd, ctx, p):
        for name, s in ctx["fleets"].items():
            o = p.out[name]
            steps = [x for x in ("validate", "oracle", "train", "simulate", "schedule",
                                 "run", "compare") if x in o]
            for step in steps:
                p.expect(f"{name}/{step}", o[step][0] == 0, f"exit status {o[step][0]}")
            if any(o[step][0] != 0 for step in steps):
                continue
            p.expect(f"{name}/validate",
                     o["validate"][1] == f"ok: {s.n_units} units, {s.horizon} periods\n",
                     "unexpected validate output")

            text_oracle, cost = o["oracle"][1].split()
            p.answer(f"{name}/oracle", text_oracle, float(cost), seeded=False)
            traj = ucd.run_schedule(s, text_oracle)
            p.expect(f"{name}/oracle", abs(traj.total_cost - float(cost)) <= PRINTED_TOL,
                     "oracle cost differs from run_schedule of its schedule")
            p.expect(f"{name}/run", o["run"][1] == o["oracle"][1],
                     "run of the oracle schedule does not reproduce the oracle line")

            vm = ucd.load_model(ctx["workdir"] / f"{name}.model.json", s)
            plan = ucd.simulate(s, vm)
            plan_text = ucd.schedule_text(plan.schedule)
            p.answer(f"{name}/closed_loop", plan_text, plan.total_cost, seeded=False)
            p.expect(f"{name}/train", _close(
                plan.total_cost,
                rollout(ucd, s, 1, s.initial_commitment, s.initial_dispatch,
                        plan.schedule.modes) - ucd.quota_rebate(s)),
                "closed-loop total differs from its re-rolled schedule")

            lines = o["simulate"][1].splitlines()
            text, cost = lines[0].split()
            sched = ucd.parse_schedule(text, s.n_units, s.horizon)
            k = o["k_dist"]
            override = np.array([float(v) for v in o["disturb"].split(",")] + [0.0, 0.0])
            p.answer(f"{name}/simulate", text, float(cost), seeded=True)
            p.expect(f"{name}/simulate", sched.modes[:k] == plan.schedule.modes[:k],
                     "schedule before the disturbance departs from the plan")
            redo = rollout(ucd, s, 1, s.initial_commitment, s.initial_dispatch,
                           sched.modes, {k: override}) - ucd.quota_rebate(s)
            p.expect(f"{name}/simulate", abs(redo - float(cost)) <= PRINTED_TOL,
                     "disturbed total differs from its re-rolled schedule")
            gaps = [line.rsplit(" ", 1)[1] for line in lines[1:]]
            check_gaps(p, f"{name}/simulate", [None if g == "n/a" else float(g) for g in gaps])

            rows = [r.split(",") for r in o["schedule"][1].splitlines()[1:]]
            p.expect(f"{name}/schedule", len(rows) == s.horizon - o["from_t"] + 1,
                     "schedule printed the wrong number of periods")
            i_prev, total = o["prev_mode"], 0.0
            for f in rows:
                t, mode = int(f[0]), tuple(int(c) for c in f[1])
                dispatch = np.array([float(v) for v in f[2:4 + s.n_units]])
                q, kappa = float(f[-2]), float(f[-1])
                check_decision(p, f"{name}/schedule", s, t, mode, dispatch)
                p.expect(f"{name}/schedule", _close(q, ucd.running_cost(s, mode, dispatch))
                         and _close(kappa, ucd.switching_cost(s, i_prev, mode)),
                         f"printed costs at t={t} differ from the cost functions")
                i_prev, total = mode, total + q + kappa
            p.answer(f"{name}/schedule", ucd.schedule_text([
                tuple(int(c) for c in f[1]) for f in rows]), total, seeded=True)

            if "compare" in o:
                table = [r.split(",") for r in o["compare"][1].splitlines()[1:]]
                argmin = [r for r in table if r[2] == "1"]
                mine = [r for r in table if r[3] == "1"]
                p.expect(f"{name}/compare", bool(argmin) and argmin[0][0] == text_oracle
                         and _close(float(argmin[0][1]), traj.total_cost),
                         "compare's argmin differs from the oracle")
                p.expect(f"{name}/compare", len(mine) == 1 and mine[0][0] == plan_text
                         and _close(float(mine[0][1]), plan.total_cost),
                         "compare's closed-loop row differs from the simulated plan")
            check_decisions(ucd, p, f"{name}/decide", s, o["decisions"])


class RelaxedN8:
    """Synthetic 8-unit fleet, ramps off: 256 modes per period."""

    name = "relaxed_n8"
    n_units = 8
    train_samples = 20
    decisions = 110

    def setup(self, ucd, seed, workdir, p):
        s = synthetic_fleet(ucd, self.n_units, seed)
        return {"fleet": _write_and_reparse(ucd, s, workdir / f"{s.name}.ucd", p),
                "seed": seed}

    def run_pass(self, ucd, ctx, p):
        s = ctx["fleet"]
        rng = np.random.default_rng([ctx["seed"], 2])
        o = p.out
        o["best"] = p.timed("oracle", ucd.graph_dp_optimal, s)
        o["model"] = p.timed("train", ucd.train, s,
                             ucd.TrainConfig(samples=self.train_samples))
        # one late disturbance, so the run's exact tail is scored
        k = s.horizon - 1
        o["override"] = (k, tuple(thermal_draw(rng, s, (1,) * s.n_units)) + (0.0, 0.0))
        o["report"] = p.timed("simulate", ucd.simulate, s, o["model"],
                              ucd.DisturbanceScript((o["override"],)))
        o["decisions"] = []
        for k in range(self.decisions):
            t = 1 + k % s.horizon
            i_prev = random_bits(rng, s.n_units)
            mode, dispatch = p.decide(ucd, o["model"], s, t, i_prev,
                                      thermal_draw(rng, s, i_prev))
            o["decisions"].append((t, i_prev, mode, dispatch))

    def verify(self, ucd, ctx, p):
        s, o = ctx["fleet"], p.out
        best = o["best"]
        text = ucd.schedule_text(best.schedule)
        p.answer("graph_dp", text, best.total_cost, seeded=True)
        p.expect("graph_dp", _close(ucd.run_schedule(s, best.schedule).total_cost,
                                    best.total_cost),
                 "graph DP cost differs from run_schedule of its schedule")
        verify_simulate(ucd, s, p, o["report"], [o["override"]])
        check_decisions(ucd, p, "decide", s, o["decisions"])


class RampedN5:
    """example2_case1 with ramp limits enforced: nothing cacheable per (t, mode)."""

    name = "ramped_n5"
    train_samples = 2
    late = 21           # disturbance period; its exact tail fits the budget
    decisions = 110

    def setup(self, ucd, seed, workdir, p):
        s = with_ramps(ucd.load_bundled_scenario("example2_case1"))
        return {"fleet": _write_and_reparse(ucd, s, workdir / f"{s.name}.ucd", p),
                "seed": seed}

    def run_pass(self, ucd, ctx, p):
        s = ctx["fleet"]
        rng = np.random.default_rng([ctx["seed"], 3])
        o = p.out
        o["model"] = p.timed("train", ucd.train, s,
                             ucd.TrainConfig(samples=self.train_samples))
        o["plan"] = plan = p.timed("simulate", ucd.simulate, s, o["model"])
        rows = plan.rows
        o["override"] = (self.late, tuple(near(rng, s, rows[self.late - 1])))
        o["report"] = p.timed("simulate", ucd.simulate, s, o["model"],
                              ucd.DisturbanceScript((o["override"],)))
        row = rows[self.late - 1]
        o["tail_from"] = (row["mode"], near(rng, s, row))
        o["tail"] = p.timed("oracle", ucd.enumerate_tail, s, self.late + 1, *o["tail_from"])
        o["decisions"] = []
        for k in range(self.decisions):
            t = 2 + k % (s.horizon - 1)
            row = rows[t - 2]
            mode, dispatch = p.decide(ucd, o["model"], s, t, row["mode"], near(rng, s, row))
            o["decisions"].append((t, row["mode"], mode, dispatch))

    def verify(self, ucd, ctx, p):
        s, o = ctx["fleet"], p.out
        plan = o["plan"]
        p.answer("closed_loop", ucd.schedule_text(plan.schedule), plan.total_cost,
                 seeded=False)
        p.expect("simulate", _close(ucd.run_schedule(s, plan.schedule).total_cost,
                                    plan.total_cost),
                 "undisturbed closed-loop total differs from run_schedule")
        verify_simulate(ucd, s, p, o["report"], [o["override"]], plan)
        cost, seq = o["tail"]
        p.answer("enumerate_tail", ucd.schedule_text(seq), cost, seeded=True)
        mode, state = o["tail_from"]
        p.expect("enumerate_tail",
                 _close(rollout(ucd, s, self.late + 1, mode, state, seq), cost),
                 "exact tail cost differs from its re-rolled sequence")
        check_decisions(ucd, p, "decide", s, o["decisions"])


def near(rng, s, row, spread=0.05):
    """An off-plan state: a closed-loop row's realized dispatch, committed
    units moved by up to +-spread and kept within their limits."""
    out = np.array(row["realized"], dtype=float)
    for n, u in enumerate(s.units):
        if row["mode"][n]:
            out[n] = min(u.p_max, max(u.p_min, out[n] * (1.0 + rng.uniform(-spread, spread))))
    return out


def verify_simulate(ucd, s, p, report, overrides, plan=None):
    """A disturbed closed-loop run: total re-rolled, tails scored, and the
    periods before the first disturbance identical to the plan's."""
    over = {t: np.asarray(v, dtype=float) for t, v in overrides}
    text = ucd.schedule_text(report.schedule)
    p.answer("simulate", text, report.total_cost, seeded=True)
    redo = rollout(ucd, s, 1, s.initial_commitment, s.initial_dispatch,
                   report.schedule.modes, over) - ucd.quota_rebate(s)
    p.expect("simulate", _close(redo, report.total_cost),
             "disturbed total differs from its re-rolled schedule")
    if plan is not None:
        k = min(over)
        p.expect("simulate", report.schedule.modes[:k] == plan.schedule.modes[:k],
                 "schedule before the disturbance departs from the plan")
    check_gaps(p, "simulate", [c["gap"] for c in report.oracle_comparison])


WORKLOADS = {w.name: w for w in (BundledCli(), RelaxedN8(), RampedN5())}
