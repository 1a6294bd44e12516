"""The scripts under scripts/ run against the current library API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_solve_sample_size():
    proc = run_script("solve_sample_size.py", "--deltas", "0.01")
    assert proc.returncode == 0, proc.stderr
    assert "family: h=3 p=16   eps=0.05" in proc.stdout
    assert "1026778" in proc.stdout


def test_oracle_sweep():
    proc = run_script("oracle_sweep.py", "--n-max", "4", "--h-max", "2", "--trials", "1")
    assert proc.returncode == 0, proc.stderr
    assert "all cells PASS" in proc.stdout
