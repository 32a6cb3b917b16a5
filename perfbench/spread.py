"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it.

Runs the ``BENCHMARK.json`` command once per seed for each workload
named, and prints each metric's median and inter-quartile distance as
a share of the median next to its bound.  Run from the root of a
checkout::

    python3 perfbench/spread.py --runs 10 serve_small serve_scan
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import iqr_share

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="+")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", name, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=900)
            if out.returncode != 0:
                print(out.stdout, out.stderr, file=sys.stderr)
                return 1
            last = json.loads(out.stdout.strip().splitlines()[-1])
            print(f"{name} seed {seed}: correct={last['correct']} "
                  f"attempted={last['attempted']} failed={last['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in last["metrics"].items()),
                  flush=True)
            for key, metric in last["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        for key, vals in values.items():
            share = iqr_share(vals) if len(vals) > 1 else 0.0
            bound = bounds.get(key)
            if bound and key != "setup_s":
                worst = max(worst, share / bound)
            print(f"{name:12s} {key:32s} median {statistics.median(vals):.5g}"
                  f"  iqr/median {share:.4f}  bound {bound}", flush=True)
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
