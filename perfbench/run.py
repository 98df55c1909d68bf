#!/usr/bin/env python3
"""splitkit benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload layered --seed 3 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A single process runs one operation at a time in a closed loop, repeating
whole rounds of the workload's operations until ``--seconds`` have passed
and at least ``MIN_OPS`` operations have completed.
``setup_s`` is the median of ``SETUP_STEPS`` identical set-up steps: the one
that starts the run, and the rest spread evenly over the timed loop, each in
a forked child while the loop's clock stops.  The host's speed changes in
phases of seconds, so steps taken back to back would all land in one phase.
Every answer is then checked (see ``check.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, end-to-end ones with ``--trace 0`` and per-layer ones, from a run
with every layer wrapped, with ``--trace 1``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = Path("src")
SETUP_STEPS = 11
MIN_OPS = 100  # completed operations per run, so that ten lie above the 90th percentile

WORKLOADS = ("sweep", "layered", "beyond")  # the keys of workloads.BUILDERS


def load():
    """Import the program and the benchmark modules that bind it, afresh."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("splitkit", "routes", "workloads")]:
        del sys.modules[name]
    return (importlib.import_module("workloads"), importlib.import_module("routes"),
            importlib.import_module("splitkit.errors"))


def set_up(workload: str, seed: int):
    """Import, generate and emit the instances, and warm every code path up.

    The warm-up runs the first operation of each (kind, route) pair.
    """
    workloads, routes, errors = load()
    ops = workloads.BUILDERS[workload](seed)
    firsts = {}
    for op in ops:
        firsts.setdefault((op.instance.kind, op.route), op)
    for op in firsts.values():
        try:
            routes.run_op(op.instance.kind, op.instance.text, op.sem, op.route)
        except errors.SplitkitError:
            pass
    return ops, routes, errors


def set_up_aside(workload: str, seed: int) -> float:
    """Time one more set-up step in a forked child.

    The run's own modules and memory stay as they are, so the step moves
    neither the timed operations nor the run's peak memory.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            t0 = time.perf_counter()
            set_up(workload, seed)
            os.write(write, repr(time.perf_counter() - t0).encode())
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read) as pipe:
        took = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("a set-up step failed")
    return float(took)


def timed_loop(ops, routes, errors, seconds: float, set_up_step, tracer=None):
    """Run whole rounds of ``ops``; returns the loop's results and the set-up steps taken."""
    latencies: list[float] = []
    answers: dict[int, str] = {}
    problems: list[str] = []
    setups: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    aside = 0.0  # time spent in set-up steps, kept out of the loop's clock
    step_every = seconds / SETUP_STEPS
    while True:
        for i, op in enumerate(ops):
            if (len(setups) < SETUP_STEPS - 1
                    and time.perf_counter() - start - aside >= (len(setups) + 1) * step_every):
                t0 = time.perf_counter()
                setups.append(set_up_step())
                aside += time.perf_counter() - t0
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                answer = routes.run_op(op.instance.kind, op.instance.text, op.sem, op.route)
            except errors.SplitkitError as err:
                answer = None
                if not op.expect_fail and len(problems) < 10:
                    problems.append(f"op {i} ({op.route}, {op.sem.value}) failed: {err!r}")
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            attempted += 1
            if answer is None:
                failed += 1
                continue
            latencies.append(t1 - t0)
            if answers.setdefault(i, answer) != answer:
                problems.append(f"op {i} answered differently in two rounds")
        if time.perf_counter() - start - aside >= seconds and len(latencies) >= MIN_OPS:
            break
    elapsed = time.perf_counter() - start - aside
    while len(setups) < SETUP_STEPS - 1:
        setups.append(set_up_step())
    return elapsed, latencies, answers, attempted, failed, problems, setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "splitkit" / "__init__.py").is_file():
        print("run from the root of a splitkit checkout: src/splitkit is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC.resolve()), str(HERE)]
    os.environ.pop("SPLITKIT_GUARD", None)  # the default guard of 20 is part of the workloads

    ops, routes, errors = set_up(args.workload, args.seed)
    first_setup = time.perf_counter() - _START

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    elapsed, latencies, answers, attempted, failed, problems, setups = timed_loop(
        ops, routes, errors, args.seconds, lambda: set_up_aside(args.workload, args.seed), tracer)
    setups.insert(0, first_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_layer = tracer.metrics() if tracer is not None else None

    import check

    problems += check.check_answers(ops, answers, check.References(args.workload))
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)

    if tracer is not None:
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in layers.LAYER_METRICS}
    else:
        metrics = {
            "ops_per_s": {"value": len(latencies) / elapsed, "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(latencies, n=10)[8] * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    mean_ms = 1000 * sum(latencies) / max(len(latencies), 1)
    print(f"{args.workload} seed {args.seed}: {attempted} ops ({failed} failed) in {elapsed:.2f}s, "
          f"mean {mean_ms:.3f} ms, setups {' '.join(f'{s:.3f}' for s in setups)}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
