#!/usr/bin/env python3
"""Repeat mode: run one workload over several seeds and summarise.

Usage, from the root of a source checkout::

    python3 perfbench/repeat.py --workload stream-risk --runs 10

For every metric it prints the median and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``) across the
runs, next to the metric's bound from ``BENCHMARK.json``.  A spread
below a third of the bound is what the bounds were chosen from; the
spread of ``setup_s`` is shown but not held to its bound.  The per-run
results and the summary are also written to
``.bench_build/repeat-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import iqr_share  # noqa: E402


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", f"{args.seconds:g}",
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        sys.stderr.write(f"seed {seed}: correct={result['correct']} "
                         f"attempted={result['attempted']} "
                         f"failed={result['failed']}\n")

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    summary = {}
    print(f"{'metric':36} {'median':>12} {'iqr/med':>8} {'bound':>6}  ok")
    for name in bounds:
        values = [run["metrics"][name]["value"] for run in runs]
        median, spread = iqr_share(values)
        bound = bounds[name]
        ok = ("-" if bound is None or name == "setup_s"
              else "yes" if spread < bound / 3.0 else "NO")
        summary[name] = {"median": median, "iqr_share": spread,
                         "bound": bound, "values": values}
        print(f"{name:36} {median:12.6g} {spread:8.4f} "
              f"{'-' if bound is None else bound:>6}  {ok}")
    shares = {run["failed"] / run["attempted"] for run in runs}
    print(f"correct in every run: {all(run['correct'] for run in runs)}; "
          f"failed shares seen: {sorted(shares)}")
    out = os.path.join(ROOT, ".bench_build",
                       f"repeat-{args.workload}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "runs": runs, "summary": summary},
                  fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
