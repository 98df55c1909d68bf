"""The ``--label`` and ``--out`` arguments of the timing scripts, and the step
that stores one run under its label in the output file.

Runs under other labels already in the file are kept, so one file can hold
the same rows timed on two trees of the program, each run with its own
``PYTHONPATH``.
"""

import argparse
import json
import os
import platform


def parser(doc: str, out: str) -> argparse.ArgumentParser:
    """A parser described by the first line of ``doc``, with ``--label`` and
    ``--out`` (default ``out``)."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this run, e.g. parent or change")
    ap.add_argument("--out", default=out)
    return ap


def store(args: argparse.Namespace, script: str, run: dict) -> None:
    """Write ``run``, after the host's Python version, machine and CPU count,
    under ``args.label`` in ``args.out``."""
    doc = {"script": script, "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["runs"][args.label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        **run,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
