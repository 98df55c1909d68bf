"""The scripts cited as evidence in ROADMAP.md and CHANGES.md still run, and
the benchmark's tracer still installs on the program.

Each runs as a subprocess on a small input, in a temporary directory, and
must exit 0; the first two assert their own split-versus-direct agreement.
The ``bench_*.py`` scripts write their timings to the temporary directory
and leave the committed ``BENCH_*.json`` files as they are.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("check_equivalence.py", ["--count", "40"]),
    ("bench_split.py", ["--label", "test", "--out", "k.json", "--stacks", "2", "--repeats", "1"]),
    ("bench_kernel.py", ["--label", "test", "--out", "k.json"]),
    ("bench_finder.py", ["--label", "test", "--out", "k.json"]),
    ("bench_oracle.py", ["--label", "test", "--out", "k.json"]),
    ("bench_scale.py", ["--label", "test", "--out", "k.json", "--max-links", "500"]),
])
def test_script_runs_clean(script, args, tmp_path):
    committed = ROOT / script.replace("bench_", "BENCH_").replace(".py", ".json")
    before = committed.read_bytes() if committed.exists() else None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    if script.startswith("bench_"):
        assert "test" in json.loads((tmp_path / "k.json").read_text())["runs"]
        assert committed.read_bytes() == before


def test_traced_operations_answer_as_untraced(monkeypatch):
    """The benchmark's tracer (``perfbench/layers.py``) rebinds program names
    in several modules, ``canonical_sets`` and the split modules'
    ``enumerate_extensions`` among them.  Installing it fails if a refactor
    drops one of those names, and a traced operation must answer exactly as
    an untraced one.  Every sampled operation answers, and the one on the
    stack that the walking finder could not cut answers as its known cut
    does."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import layers
    import routes
    import workloads
    from splitkit import io, split_aba
    from splitkit.errors import SplitkitError

    beyond = workloads.beyond(0)
    ops = workloads.layered(0)[::7] + beyond[::5]
    errors = []

    def answers():
        out = []
        for op in ops:
            try:
                out.append(routes.run_op(op.instance.kind, op.instance.text, op.sem, op.route))
            except SplitkitError as err:
                errors.append(err)
                out.append(f"{type(err).__name__}: {err}")
        return out

    untraced = answers()
    tracer = layers.Tracer()
    tracer.install(monkeypatch.setattr)
    assert answers() == untraced
    assert not errors
    stuck = beyond[50]
    assert stuck.expect_fail
    fw = io.parse_aba(stuck.instance.text)
    reference = split_aba.split_solve(fw, stuck.instance.cut, stuck.sem)
    assert untraced[ops.index(stuck)] == io.format_extensions(reference, fw.names)
    assert tracer.totals["split_aba.top_ms"] > 0 and tracer.totals["split_setaf.top_ms"] > 0
    assert tracer.totals["semantics.sets_out"] > 0
