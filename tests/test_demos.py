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


def test_attack_dichotomy_rates():
    # the demo's seeds fix both rates: the unpermuted tables give every
    # output key away, the permuted ones with 20-bit keys none
    out = run_demo("attack_dichotomy.py")
    rates = dict(re.findall(r"^(\w+)\t20\t\t([0-9.]+)\t", out, re.M))
    assert rates == {"unpermuted": "1.000", "permuted": "0.000"}, out


def test_abort_budget_largest_pipelines():
    # closed form at epsilon = 1%, N = 2, J = 1: the largest L per kappa_out
    out = run_demo("abort_budget.py")
    largest = dict(re.findall(r"^(\d+)\t\t(\d+)\t", out, re.M))
    assert largest == {"8": "2", "12": "32", "16": "512", "20": "8192"}, out
