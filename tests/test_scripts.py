"""The scripts cited as evidence in ROADMAP.md and CHANGES.md still run.

Each runs as a subprocess on a small input and must exit 0; both scripts
assert their own split-versus-direct agreement.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("check_equivalence.py", ["--count", "40"]),
    ("bench_split.py", ["--block", "4", "--seeds", "2"]),
])
def test_script_runs_clean(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
