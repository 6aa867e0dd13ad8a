#!/usr/bin/env python3
"""Re-record perfbench/answers.json from the code in this checkout.

Runs one checked pass of every workload on each of the run's input sets
(``run.INPUT_SETS``), keeps the answers that do not depend on the inputs
once (they must agree across input sets) and the seeded ones per input
set. Only re-record after a change that is meant to alter answers, and
say so in the change.

Usage: python3 perfbench/record_answers.py
"""

from __future__ import annotations

import json
import sys

import run


def main():
    sys.path.insert(0, str(run.SRC))
    from steady import RawClock
    from workloads import WORKLOADS, Pass

    doc = {}
    workdir = run.ROOT / ".bench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    for name, workload in WORKLOADS.items():
        fixed, seeds = {}, {}
        for inputs in range(run.INPUT_SETS):
            check = Pass()
            _, ucd, ctx = run.setup(workload, inputs, workdir, check, RawClock())
            p = run.one_pass(workload, ucd, ctx, {"fixed": {}, "seeds": {}}, inputs,
                             RawClock())
            problems = {**check.failures, **{k: v for k, v in p.failures.items()
                                             if v != "no recorded answer"}}
            if problems:
                raise SystemExit(f"{name} input set {inputs}: {problems}")
            for key, (text, cost, seeded) in p.answers.items():
                if seeded:
                    seeds.setdefault(str(inputs), {})[key] = [text, cost]
                elif fixed.setdefault(key, [text, cost]) != [text, cost]:
                    raise SystemExit(f"{name}: {key} changed with the inputs")
            print(f"{name} input set {inputs}: {len(p.answers)} answers", file=sys.stderr)
        doc[name] = {"fixed": fixed, "seeds": seeds}
    run.shutil.rmtree(workdir, ignore_errors=True)
    run.ANSWERS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
