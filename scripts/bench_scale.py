#!/usr/bin/env python3
"""Time the steps before any split, and a whole parametrised solve, as the knowledge base grows.

Shapes, each at several sizes:

- ``chain_head`` and ``chain_tail``: ``a`` attacks ``b`` and ``b`` attacks
  ``c`` through chains of L sentences (``links``), about 2L atoms, the
  rules of each chain listed from its head down or from its tail up;
- ``pairs``: P independent pairs in which ``x_i`` attacks ``y_i``
  (``links`` is P), 4P atoms.

Each row is one step on one instance, run in a fresh process whose address
space is capped at ``MEMORY_MIB`` and whose wall time, set-up included, is
capped at ``SECONDS``: ``parse`` (``io.parse_aba`` of the instance's
text), ``balanced`` (``find_balanced_splitting``) and ``quasi``
(``find_quasi_splitting``) on the framework built without the parser, and
``param`` and ``direct``, which run ``splitkit solve --mode param|direct
--semantics stb`` on the text in the process, parse and print included.
A row records the step's wall time, the process's peak resident size
(``ru_maxrss``) and its status: ``ok``, an error's type or exit code,
``memory`` when the cap was hit, or ``timeout``.  A row that hits a cap is
kept with its status and the limit as its time.

The run is stored under ``--label`` in ``--out``; runs under other labels
already in that file are kept, so one file can hold the same rows timed on
two trees of the program, each run with its own ``PYTHONPATH``:

    PYTHONPATH=src python3 scripts/bench_scale.py --label change
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

from bench_runs import parser, store

SHAPES = ("chain_head", "chain_tail", "pairs")
LINKS = {"chain_head": (500, 2000, 4000, 20000, 50000), "chain_tail": (500, 2000, 4000, 20000, 50000),
         "pairs": (250, 1000, 5000, 25000)}
STEPS = ("parse", "balanced", "quasi", "param", "direct")
SECONDS = 30.0  # wall-time cap of one row
MEMORY_MIB = 1024  # address-space cap of one row


def framework(shape: str, links: int):
    """One instance, built by ``Abaf.from_names``."""
    from splitkit.aba import Abaf

    if shape == "pairs":
        assumptions = {name: f"c_{name}" for i in range(links) for name in (f"x{i}", f"y{i}")}
        rules = [(f"c_y{i}", [f"x{i}"]) for i in range(links)]
    else:
        assumptions = {"a": "c_a", "b": "c_b", "c": "c_c"}
        rules = []
        for src, dst in (("a", "b"), ("b", "c")):
            chain = [src] + [f"{src}{i}" for i in range(1, links)] + [f"c_{dst}"]
            steps = [(chain[i + 1], [chain[i]]) for i in range(links)]
            rules += steps[::-1] if shape == "chain_head" else steps
    return Abaf.from_names(assumptions, rules)


def run_step(step: str, shape: str, links: int, path: str) -> None:
    """In the child: one step on the instance, whose text is at ``path``;
    prints its row."""
    import io as stdio
    from contextlib import redirect_stderr, redirect_stdout

    from splitkit import cli, finder, io
    from splitkit.errors import SplitkitError

    with open(path) as fh:
        text = fh.read()
    row = {"status": "ok"}
    fw = framework(shape, links) if step in ("balanced", "quasi") else None
    start = time.perf_counter()
    try:
        if step == "parse":
            fw = io.parse_aba(text)
            row["atoms"] = fw.n_atoms
        elif step == "balanced":
            row["size"] = len(finder.find_balanced_splitting(fw))
        elif step == "quasi":
            q = finder.find_quasi_splitting(fw)
            row["size"], row["k"] = len(q.s), q.k
        else:
            out, err = stdio.StringIO(), stdio.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(["solve", path, "--mode", step, "--semantics", "stb"])
            row["status"] = "ok" if code == 0 else f"exit {code}: {err.getvalue().strip()[:60]}"
            row["answer"] = out.getvalue()[:60]
    except MemoryError:
        row["status"] = "memory"
    except SplitkitError as err:
        row["status"] = type(err).__name__
    row["ms"] = round((time.perf_counter() - start) * 1000.0, 1)
    row["maxrss_mib"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(row), flush=True)


def row(step: str, shape: str, links: int, path: str) -> dict:
    """One step in a fresh process under both caps."""
    cap = MEMORY_MIB << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    try:
        done = subprocess.run([sys.executable, __file__, "--step", step, shape, str(links), path],
                              preexec_fn=limit, capture_output=True, text=True, timeout=SECONDS)
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "ms": SECONDS * 1000.0}
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:  # killed, or out of memory outside the step
        tail = (done.stderr.strip().splitlines() or ["?"])[-1]
        return {"status": "memory" if "MemoryError" in tail else f"failed: {tail}"}
    return json.loads(lines[-1])


def main() -> None:
    if sys.argv[1:2] == ["--step"]:
        step, shape, links, path = sys.argv[2:]
        run_step(step, shape, int(links), path)
        return
    ap = parser(__doc__, "BENCH_scale.json")
    ap.add_argument("--max-links", type=int, default=None, help="skip larger instances")
    args = ap.parse_args()
    from splitkit.io import emit_aba

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for shape in SHAPES:
            for links in LINKS[shape]:
                if args.max_links is not None and links > args.max_links:
                    continue
                path = os.path.join(tmp, f"{shape}_{links}.aba")
                with open(path, "w") as fh:
                    fh.write(emit_aba(framework(shape, links)))
                for step in STEPS:
                    r = {"shape": shape, "links": links, "step": step, **row(step, shape, links, path)}
                    rows.append(r)
                    print(json.dumps(r), flush=True)
    store(args, "scripts/bench_scale.py", {"seconds": SECONDS, "memory_mib": MEMORY_MIB, "rows": rows})


if __name__ == "__main__":
    main()
