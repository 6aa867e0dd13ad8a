#!/usr/bin/env python3
"""Compare saved runs of perfbench/run.py: base against new, per metric.

Each file holds the standard output of one run. Runs whose environment
stamps name different kernel backends are refused: the numba kernel is
about 65x faster than the numpy one, so such a comparison would measure
the backend, not the change.

Usage: python3 perfbench/compare.py --base A.txt [...] --new B.txt [...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_run(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), None)
    if env is None or not lines:
        raise ValueError(f"{path}: not the output of perfbench/run.py")
    return env, json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)

    sides = {side: [read_run(p) for p in getattr(args, side)] for side in ("base", "new")}
    backends = {env["backend"] for runs in sides.values() for env, _ in runs}
    if len(backends) > 1:
        print(f"refused: runs use different kernel backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    for side, runs in sides.items():
        if not all(res["correct"] for _, res in runs):
            print(f"refused: a {side} run has wrong answers", file=sys.stderr)
            return 2

    doc = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    spec = {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}
    names = sides["base"][0][1]["metrics"]
    print(f"{'metric':28s} {'base':>12s} {'new':>12s} {'change':>8s}")
    for name in names:
        base = statistics.median(r["metrics"][name]["value"] for _, r in sides["base"])
        new = statistics.median(r["metrics"][name]["value"] for _, r in sides["new"])
        change = (new - base) / base if base else 0.0
        worse = change if spec[name]["better"] == "lower" else -change
        flag = " WORSE" if worse > spec[name].get("bound", float("inf")) else ""
        print(f"{name:28s} {base:12.6g} {new:12.6g} {change:+8.1%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
