"""Tests of the benchmark: exact counts, digests and the output contract.

Run from the repository root (about 30 s):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bqcsim.adversary  # noqa: E402,F401
import bqcsim.qfactory  # noqa: E402,F401
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

EXACT_COUNTS = ("oracle.prf_calls", "oracle.queries.client",
                "oracle.queries.server", "oracle.queries.attacker",
                "state.map_branches", "protocols.transcript_bytes",
                "state.peak_branches")


def traced(name: str, seed: int, n_steps: int = 2):
    """Exact counts and per-operation digests of the first steps."""
    tracer = Tracer()
    tracer.install(bqcsim)
    try:
        records = workloads.replay(workloads.WORKLOADS[name](seed), n_steps,
                                   tracer)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert all(r.failed == 0 for r in records)
    return {k: m[k] for k in EXACT_COUNTS}, [d for r in records
                                             for d in r.digests]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_and_digests_repeat_per_seed(name):
    counts, digests = traced(name, 11)
    assert traced(name, 11) == (counts, digests)
    assert all(counts[k] > 0 for k in ("oracle.prf_calls",
                                       "state.peak_branches"))
    _, other = traced(name, 12)
    assert not set(other) & set(digests)


def test_tracer_restores_every_patched_name():
    import bqcsim.protocols as protocols
    import bqcsim.gadget_prep as gadget_prep

    before = (gadget_prep.pad_hadamard, protocols.HonestServer.respond_combine)
    tracer = Tracer()
    tracer.install(bqcsim)
    assert gadget_prep.pad_hadamard is not before[0]
    assert gadget_prep.pad_hadamard is protocols.pad_hadamard
    tracer.uninstall()
    assert (gadget_prep.pad_hadamard,
            protocols.HonestServer.respond_combine) == before


def test_chi2_sf_matches_scipy():
    from scipy.stats import chi2

    for x in (0.5, 7.0, 14.0, 40.5, 60.0):
        assert workloads.chi2_sf_7(x) == pytest.approx(chi2.sf(x, 7),
                                                       rel=1e-9)


def test_binomial_sf_matches_scipy():
    from scipy.stats import binom

    for k, n in ((0, 10), (1, 143), (3, 100), (6, 400)):
        assert workloads.binomial_sf(k, n, 2.0 ** -8) == pytest.approx(
            binom.sf(k - 1, n, 2.0 ** -8), rel=1e-9)


def test_honest_abort_is_counted_but_not_failed():
    wl = workloads.Pipeline(5)
    step = next(islice(wl.steps(), 71, None))  # an L=4 run with a zero tail
    rec = workloads.run_step(wl, step, workloads.HostClock())
    assert (rec.aborted, rec.failed) == (1, 0)
    assert [pc.ok for pc in wl.pooled_checks()] == [True]


def bench_json(cwd: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_metric_in_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = bench_json(ROOT, "attack", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {(m["name"], m["unit"]) for m in spec[key]} == {
        (k, v["unit"]) for k, v in out["metrics"].items()}


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
