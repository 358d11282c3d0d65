"""bench/stages.py wraps `singularity.verify_claim` to time each claim, so a
change to that function's signature must not silently break the table."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stage_table_runs():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "stages.py"), "3"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines()
            if line.startswith("| 3 |")]
    assert len(rows) == 1, proc.stdout
    assert "FAIL" not in rows[0]
    assert "A_17:" in rows[0] and "A_2:" in rows[0]
