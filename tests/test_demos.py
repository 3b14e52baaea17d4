"""The demos run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pipeline_walkthrough_ends_exact():
    out = run_demo("pipeline_walkthrough.py")
    fid = re.search(r"fidelity vs Gadget\(K_out\): ([0-9.]+)", out)
    assert fid, out
    assert float(fid.group(1)) >= 1 - 1e-9


def test_blind_delegation_runs():
    assert "dense p(1)" in run_demo("blind_delegation.py")
