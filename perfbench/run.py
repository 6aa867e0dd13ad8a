#!/usr/bin/env python3
"""ucdkit's benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``bundled_cli``  the CLI workflow on the five shipped fleets;
* ``relaxed_n8``   a seeded synthetic 8-unit fleet, ramps off;
* ``ramped_n5``    example2_case1 with ramp limits enforced.

The package is imported from ``src/`` of the checkout this file sits in,
never from an installed copy. A run sets up ``SETUP_REPEATS`` times
(import, fleet generation, writing and re-reading ``.ucd`` files), then
repeats identical passes of the workload while the next one still fits
in ``--seconds`` (at least one). After each pass the answers are checked;
any wrong or failed operation makes ``correct`` false and the exit
status 1.

``--trace 0`` prints the end-to-end metrics: medians over passes of the
pass wall time and of its oracle, train and simulate stages, the median
set-up time, decision latency at p50 and p90 (every pass makes at least
110 decisions, so at least 11 lie beyond p90), peak RSS, and the share
of disturbances whose exact-tail gap was scored. Times are
speed-normalised (``steady.py``); the table also shows the raw wall time
and the fail rate (failed operations / attempted, also carried by the
``failed`` and ``attempted`` fields of the result).

``--trace 1`` runs one untraced pass and then the same pass traced (see
``spans.py``), and prints the per-layer metrics. Which end-to-end metric
each should move, and on which workload:

* ``scenario.*`` (parse, fingerprint) -> setup_s, wall_s on bundled_cli;
* ``costs.*`` -> oracle_s, train_s on relaxed_n8; simulate_s on bundled_cli;
* ``qp.*`` -> oracle_s, train_s, simulate_s on relaxed_n8 and bundled_cli;
  decide_ms_* everywhere. ``qp.distinct_ratio`` is distinct (t, mode,
  constraint data) problems per solve: what a stage table would remove;
* ``kernels.*`` -> train_s on ramped_n5; oracle_s on relaxed_n8;
  ``kernels.row_col_products`` is the computed sum of m*n over calls;
* ``oracle.*`` -> oracle_s on relaxed_n8; simulate_s, tail_scored_frac
  on bundled_cli;
* ``clho.*`` -> train_s on relaxed_n8; decide_ms_* on all;
* ``simulate.*`` -> simulate_s on bundled_cli and ramped_n5;
* ``hybrid.run_schedule_s``, ``cli.self_s`` -> wall_s on bundled_cli;
* ``trace.overhead_ratio`` is traced / untraced normalised wall of the
  same pass; ``trace.covered_ratio`` is the sum of every layer's self
  time over the traced elapsed time (the rest is the benchmark's loop).

``--seed N`` draws input set ``N mod INPUT_SETS``. ``answers.json``
holds the answers of every input set (``record_answers.py`` records
them), so every answer of every run is compared with a recorded one;
an answer without a record is a failure.

Lines before the last describe the run (environment stamp, a readable
metric table); the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ANSWERS = HERE / "answers.json"
SETUP_REPEATS = 9
INPUT_SETS = 16


def import_ucdkit():
    """Import ucdkit afresh from this checkout's src/ (modules already
    loaded from it are dropped first, so every call pays the import)."""
    for name in [n for n in sys.modules if n == "ucdkit" or n.startswith("ucdkit.")]:
        del sys.modules[name]
    ucd = importlib.import_module("ucdkit")
    importlib.import_module("ucdkit.cli")
    if Path(ucd.__file__).resolve().parent != SRC / "ucdkit":
        raise ImportError(f"ucdkit imported from {ucd.__file__}, not from {SRC}")
    return ucd


def git_commit():
    # the ceiling stops git at the checkout: a checkout that is not a
    # repository must not report the commit of a repository around it
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def env_stamp():
    kernels = sys.modules.get("ucdkit._kernels")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        # a package without the attribute has only the numpy kernel
        "backend": getattr(kernels, "BACKEND", "numpy"),
        "commit": git_commit(),
    }


def load_answers(workload):
    doc = json.loads(ANSWERS.read_text(encoding="utf-8"))
    return doc.get(workload, {"fixed": {}, "seeds": {}})


def check_answers(p, recorded, inputs):
    """Compare the pass's answers with the ones recorded for the fixed
    inputs and for input set ``inputs``; an unrecorded answer fails."""
    from workloads import COST_TOL

    by_seed = recorded.get("seeds", {}).get(str(inputs), {})
    for key, (text, cost, seeded) in p.answers.items():
        want = (by_seed if seeded else recorded.get("fixed", {})).get(key)
        if want is None:
            p.expect(key, False, "no recorded answer")
            continue
        p.expect(key, want[0] == text and abs(want[1] - cost) <= COST_TOL,
                 f"got {text} {cost!r}, recorded {want[0]} {want[1]!r}")


def setup(workload, inputs, workdir, p, clock):
    t0 = time.perf_counter()
    ucd = import_ucdkit()
    ctx = workload.setup(ucd, inputs, workdir, p)
    return clock.span(t0, time.perf_counter())[1], ucd, ctx


def one_pass(workload, ucd, ctx, recorded, inputs, clock, tracer=None):
    from workloads import Pass

    p = Pass(clock)
    t0 = time.perf_counter()
    try:
        workload.run_pass(ucd, ctx, p)
    except Exception as exc:   # any failure of the program under test
        p.ops += 1
        p.expect("pass", False, f"{type(exc).__name__}: {exc}")
    p.elapsed = time.perf_counter() - t0
    p.raw_wall, p.wall = clock.span(t0, t0 + p.elapsed)
    if p.failures:
        return p
    if tracer is not None:
        tracer.paused = True
    try:
        workload.verify(ucd, ctx, p)
        check_answers(p, recorded, inputs)
    except Exception as exc:
        p.expect("verify", False, f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.paused = False
    return p


def e2e_metrics(setups, passes):
    decide = [ms for p in passes for ms in p.decide_ms]
    disturbances = sum(p.disturbances for p in passes)

    def med(f):
        return statistics.median(f(p) for p in passes)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (med(lambda p: p.wall), "s"),
        "oracle_s": (med(lambda p: p.stage_s["oracle"]), "s"),
        "train_s": (med(lambda p: p.stage_s["train"]), "s"),
        "simulate_s": (med(lambda p: p.stage_s["simulate"]), "s"),
        "decide_ms_p50": (float(numpy.percentile(decide, 50)), "ms"),
        "decide_ms_p90": (float(numpy.percentile(decide, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "tail_scored_frac": (sum(p.scored for p in passes) / max(disturbances, 1), "ratio"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ucdkit" / "__init__.py").is_file():
        print(f"error: no ucdkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from spans import Tracer
    from steady import SteadyClock
    from workloads import WORKLOADS, Pass

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    recorded = load_answers(workload.name)
    inputs = args.seed % INPUT_SETS
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    clock = SteadyClock()
    try:
        with clock:
            setup_check = Pass()
            setups = []
            for _ in range(1 if args.trace else SETUP_REPEATS):
                dt, ucd, ctx = setup(workload, inputs, workdir, setup_check, clock)
                setups.append(dt)
            print("env " + json.dumps(env_stamp()))

            passes = []
            t_start = time.perf_counter()
            if args.trace:
                passes.append(one_pass(workload, ucd, ctx, recorded, inputs, clock))
                tracer = Tracer()
                with tracer:
                    passes.append(one_pass(workload, ucd, ctx, recorded, inputs, clock,
                                           tracer))
            else:
                while True:
                    passes.append(one_pass(workload, ucd, ctx, recorded, inputs, clock))
                    if passes[-1].failures or (time.perf_counter() - t_start
                                               + passes[-1].raw_wall > args.seconds):
                        break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass    # another run is using it

    failures = dict(setup_check.failures)
    for p in passes:
        failures.update(p.failures)
    attempted = sum(p.ops for p in passes) + len(setups)
    failed = min(attempted, sum(len(p.failures) for p in passes)
                 + len(setup_check.failures))
    if args.trace:
        metrics = tracer.metrics(passes[1].elapsed, passes[1].wall / passes[0].wall)
    else:
        metrics = e2e_metrics(setups, passes)
        metrics["fail_rate"] = (failed / attempted, "ratio")
        metrics["wall_raw_s"] = (statistics.median(p.raw_wall for p in passes), "s")

    print(f"workload {workload.name} seed {args.seed} (input set {inputs}): "
          f"{len(passes)} pass(es), "
          f"{sum(len(p.decide_ms) for p in passes)} decisions, "
          f"{attempted} operations, {failed} failed")
    for op, why in sorted(failures.items()):
        print(f"  FAILED {op}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")

    names = _declared_metrics("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def _declared_metrics(section):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in doc[section]]


if __name__ == "__main__":
    sys.exit(main())
