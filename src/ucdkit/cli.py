"""Command line front end.

Machine-readable results go to stdout, logs and errors to stderr. Exit
status: 0 success, 1 domain failure (bad scenario, infeasible mode,
mismatched model), 2 usage errors. Behavior is a pure function of the
arguments and named files; no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import __version__
from .clho import TrainConfig, load_model, save_model, schedule_step, train
from .costs import running_cost, switching_cost
from .errors import ScenarioError, UcdError
from .hybrid import _ascii_number, run_schedule, schedule_text, trajectory_csv
from .oracle import DEFAULT_BUDGET, enumerate_optimal, enumerate_schedule_costs, graph_dp_optimal
from .qp import _full_dispatch, assemble, mode_to_int, solve
from .scenario import BUNDLED_SCENARIOS, load_bundled_scenario, parse_scenario
from .simulate import DisturbanceScript, compare_with_oracle, simulate

__all__ = ["main"]

log = logging.getLogger(__name__)


def _load_scenario(arg: str):
    """A scenario file path, or the bare name of a bundled scenario."""
    import os

    if not os.path.exists(arg) and arg in BUNDLED_SCENARIOS:
        return load_bundled_scenario(arg)
    return parse_scenario(arg)


def _parse_mode(text: str, n_units: int):
    try:
        bits = tuple(map("01".index, text.strip()))
        mode_to_int(bits, n_units)
    except ValueError:
        raise UcdError(f"mode {text!r} is not {n_units} binary digits") from None
    return bits


def _parse_state(text: str, n_units: int) -> np.ndarray:
    try:
        vals = [_ascii_number(v, float) for v in text.split(",")]
    except ValueError as exc:
        raise UcdError(f"bad state vector {text!r}: {exc}") from exc
    try:
        return _full_dispatch(vals, n_units)
    except ValueError:
        if len(vals) in (n_units, n_units + 2):
            raise UcdError(f"state vector {text!r}: values must be finite and >= 0") from None
        raise UcdError(
            f"state vector has {len(vals)} entries; expected {n_units} or {n_units + 2}"
        ) from None


def _ascii_type(kind):
    """argparse type of an int or float option, in ASCII digits
    (`_ascii_number`); every numeric option takes one."""

    def parse(text: str):
        try:
            return _ascii_number(text, kind)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None

    return parse


_int, _float = _ascii_type(int), _ascii_type(float)


def _positive_int(text: str) -> int:
    """argparse type of an enumeration budget: a whole number >= 1."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def cmd_validate(args) -> int:
    try:
        s = _load_scenario(args.scenario)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(f"ok: {s.n_units} units, {s.horizon} periods")
    return 0


def cmd_dispatch(args) -> int:
    s = _load_scenario(args.scenario)
    mode = _parse_mode(args.mode, s.n_units)
    p_prev = _parse_state(args.prev, s.n_units) if args.prev is not None else None
    sol = solve(assemble(s, args.t, mode, p_prev))
    if sol.status != "optimal":
        cert = sol.certificate or {}
        detail = f" ({cert.get('row', 'infeasible')})" if cert else ""
        print(f"error: no feasible dispatch at t={args.t} for "
              f"commitment {args.mode}{detail}", file=sys.stderr)
        return 1
    width = s.n_units if not (s.has_dg() or s.has_dr()) else s.n_units + 2
    print(",".join(f"{v:.1f}" for v in sol.dispatch[:width]))
    return 0


def cmd_oracle(args) -> int:
    s = _load_scenario(args.scenario)
    if args.dump_table:
        print("schedule,total_cost")
        for txt, cost in enumerate_schedule_costs(s, budget=args.budget):
            print(f"{txt},{cost!r}")
        return 0
    if args.graph:
        res = graph_dp_optimal(s)
    else:
        res = enumerate_optimal(s, budget=args.budget)
    print(f"{schedule_text(res.schedule)} {res.total_cost:.6f}")
    return 0


def cmd_train(args) -> int:
    s = _load_scenario(args.scenario)
    cfg = TrainConfig(samples=args.samples, seed=args.seed,
                      regularization=args.regularization)
    model = train(s, cfg)
    save_model(model, args.out)
    log.info("trained %d weight rows, wrote %s",
             sum(len(ints) for ints, _ in model.weights.values()), args.out)
    print(args.out)
    return 0


def cmd_schedule(args) -> int:
    s = _load_scenario(args.scenario)
    t0 = args.from_t
    if not 1 <= t0 <= s.horizon:
        raise UcdError(f"--from-t {t0} outside 1..{s.horizon}")
    model = load_model(args.model, scenario=s, force=args.force)
    if args.state is not None:
        p_prev = _parse_state(args.state, s.n_units)
    else:
        p_prev = np.asarray(s.initial_dispatch)
    if args.prev_mode is not None:
        i_prev = _parse_mode(args.prev_mode, s.n_units)
    elif args.state is not None:
        i_prev = tuple(int(v > 0.0) for v in p_prev[: s.n_units])
    else:
        i_prev = s.initial_commitment
    print("t,mode," + ",".join(f"P_{n + 1}" for n in range(s.n_units)) + ",P_DG,P_DR,Q,kappa")
    for t in range(t0, s.horizon + 1):
        mode, dispatch = schedule_step(model, s, t, i_prev, p_prev)
        q = float(running_cost(s, mode, dispatch))
        k = float(switching_cost(s, i_prev, mode))
        bits = "".join(str(b) for b in mode)
        vals = ",".join(repr(float(v)) for v in dispatch)
        print(f"{t},{bits},{vals},{q!r},{k!r}")
        i_prev, p_prev = mode, dispatch
    return 0


def cmd_simulate(args) -> int:
    s = _load_scenario(args.scenario)
    model = load_model(args.model, scenario=s, force=args.force)
    script = DisturbanceScript.parse(args.disturb or [])
    report = simulate(s, model, script)
    if args.report:
        report.write_json(args.report)
        log.info("wrote %s", args.report)
    print(f"{schedule_text(report.schedule)} {report.total_cost:.6f}")
    for cmp_row in report.oracle_comparison:
        gap = cmp_row["gap"]
        shown = "n/a" if gap is None else f"{gap:.6f}"
        print(f"tail after t={cmp_row['after_t']}: gap {shown}")
    return 0


def cmd_compare(args) -> int:
    s = _load_scenario(args.scenario)
    model = load_model(args.model, scenario=s, force=args.force)
    report = compare_with_oracle(s, model, budget=args.budget)
    sys.stdout.write(report.csv())
    if report.matches is not None:
        log.info("closed loop %s the exact argmin (%s)",
                 "matches" if report.matches else "misses",
                 report.oracle_schedule)
    return 0


def cmd_run(args) -> int:
    s = _load_scenario(args.scenario)
    traj = run_schedule(s, args.sequence)
    if args.csv:
        sys.stdout.write(trajectory_csv(traj))
    else:
        print(f"{schedule_text(traj.schedule)} {traj.total_cost:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ucdkit",
        description="unit commitment and dispatch via optimal mode switching",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    p.add_argument("-v", "--verbose", action="store_true", help="log at INFO")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check a scenario file")
    q.add_argument("scenario")
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("dispatch", help="optimal dispatch for one period and mode")
    q.add_argument("scenario")
    q.add_argument("--t", type=_int, required=True, help="period, 1-indexed")
    q.add_argument("--mode", required=True, help="commitment bits, e.g. 11")
    q.add_argument("--prev", help="previous dispatch, comma separated")
    q.set_defaults(func=cmd_dispatch)

    q = sub.add_parser("oracle", help="exact optimal schedule")
    q.add_argument("scenario")
    g = q.add_mutually_exclusive_group()
    g.add_argument("--enumerate", action="store_true",
                   help="mode-tree search, exhaustive with ramps relaxed and "
                        "pruned by the ramp-relaxed value table with ramps "
                        "enforced (default)")
    g.add_argument("--graph", action="store_true", help="layered-graph shortest path")
    q.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                   help="most evaluations: leaves reached, children the bound cuts "
                        "and dead ends (schedules and dead ends, with --dump-table)")
    q.add_argument("--dump-table", action="store_true",
                   help="CSV of every feasible schedule and its cost")
    q.set_defaults(func=cmd_oracle)

    q = sub.add_parser("train", help="fit the value approximation")
    q.add_argument("scenario")
    q.add_argument("--out", required=True, help="model JSON path")
    q.add_argument("--samples", type=_int, default=100)
    q.add_argument("--seed", type=_int, default=0)
    q.add_argument("--regularization", type=_float, default=0.0)
    q.set_defaults(func=cmd_train)

    q = sub.add_parser("schedule", help="closed-loop plan from a state")
    q.add_argument("scenario")
    q.add_argument("--model", required=True)
    q.add_argument("--from-t", type=_int, default=1, dest="from_t")
    q.add_argument("--state", help="dispatch entering from-t, comma separated")
    q.add_argument("--prev-mode", dest="prev_mode",
                   help="commitment entering from-t (default: inferred)")
    q.add_argument("--force", action="store_true",
                   help="use the model even if the fingerprint differs")
    q.set_defaults(func=cmd_schedule)

    q = sub.add_parser("simulate", help="closed-loop run with disturbances")
    q.add_argument("scenario")
    q.add_argument("--model", required=True)
    q.add_argument("--disturb", action="append", metavar="t=K:v1,v2,...",
                   help="override realized dispatch after period K (repeatable)")
    q.add_argument("--report", help="write a JSON run report here")
    q.add_argument("--force", action="store_true")
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("compare", help="closed loop vs exhaustive table")
    q.add_argument("scenario")
    q.add_argument("--model", required=True)
    q.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                   help="most evaluations of the exhaustive table: schedules "
                        "listed plus dead ends")
    q.add_argument("--force", action="store_true")
    q.set_defaults(func=cmd_compare)

    q = sub.add_parser("run", help="evaluate a fixed schedule")
    q.add_argument("scenario")
    q.add_argument("sequence", help='schedule text, e.g. "122333" or "01-10-11"')
    q.add_argument("--csv", action="store_true", help="per-period trajectory CSV")
    q.set_defaults(func=cmd_run)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except UcdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
