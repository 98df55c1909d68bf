#!/usr/bin/env python3
"""Run one workload several times, one seed after another, and summarise.

    python3 perfbench/repeat.py --workload layered --runs 10 --seconds 35

Each run is a fresh ``run.py`` process.
Before each run a fixed pure-Python reference loop is timed in this process,
so that a run taken while the host was slow stands out.  The summary gives
each metric's median, quartiles (``statistics.quantiles(values, n=4)``) and
spread, the distance between the quartiles as a share of the median; the
bounds in ``BENCHMARK.json`` were set from it.  The runs are also written to
``.perfbench/repeat-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def reference_loop() -> float:
    """Seconds taken by a fixed amount of pure-Python work (about 0.1 s)."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--first-seed", type=int, default=0)
    args = ap.parse_args(argv)

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        ref = reference_loop()
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, "reference_ms": ref * 1000, **result})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed:3d} ref {ref * 1000:6.1f} ms  correct={result['correct']} "
              f"failed {result['failed']}/{result['attempted']}  {values}", flush=True)

    print(f"\n{args.workload}: {len(runs)} runs of {args.seconds}s")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    rows = [("reference_ms", [r["reference_ms"] for r in runs])]
    rows += [(name, [r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]]
    for name, values in rows:
        median, q1, q3, spread = summary(values)
        print(f"{name:28s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    out = Path(".perfbench") / f"repeat-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
