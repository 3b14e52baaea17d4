"""bqcsim benchmark: closed-loop workloads with output checks and tracing.

Run from the root of a checkout:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

``--workload`` is ``pipeline``, ``ubqc``, ``attack`` or ``all`` (the three
in turn). With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced replay. Human-readable lines, each naming a
metric and its unit, come before it. Results and spans are also written to
``bench/out/``. See ``bench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 7


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import bqcsim from this checkout's ``src``, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "bqcsim").is_dir():
        fail(f"no bqcsim sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import bqcsim.adversary  # noqa: F401  (loads every layer module)
    import bqcsim.qfactory  # noqa: F401
    if not Path(bqcsim.qfactory.__file__).resolve().is_relative_to(src):
        fail("bqcsim was not imported from this checkout")
    import numpy  # noqa: F401
    import workloads
    return bqcsim, workloads


def measure_setup(workload: str, seed: int, clock) -> list[tuple]:
    """Cold set-up times: a fresh interpreter imports and builds inputs.

    The child prints ``perf_counter()`` once it is ready to start its first
    operation; the clock is system-wide, so the difference to the parent's
    start time is the set-up time. Returns (wall seconds, scale to the
    reference host speed) per probe.
    """
    probes = []
    for _ in range(SETUP_PROBES):
        clock.samples = []
        clock.bracket()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        ready = float(proc.stdout.split()[-1])
        clock.bracket()
        probes.append((ready - t0, clock.scale()))
    return probes


def environment(seed: int) -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    import numpy
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def median_and_tail(values: list[float]) -> tuple[float, str]:
    """Median, and the highest percentile with at least 10 samples beyond."""
    values = sorted(values)
    n = len(values)
    if n < 11:
        return statistics.median(values), f"n={n}, no tail percentile"
    rank = n - 11
    pct = 100 * rank / (n - 1)
    return statistics.median(values), f"p{pct:.0f}={values[rank]:.6g} s, n={n}"


def per_op(records, kind, scaled=True) -> list[float]:
    """Time per operation of each ``kind`` step that ran without an abort."""
    return [r.scaled_op_s if scaled else r.op_s
            for r in records if r.kind == kind and not r.aborted]


def check_summary(wl, records) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, report lines) over all checks."""
    attempted = sum(r.ops for r in records)
    failed = sum(r.failed for r in records)
    lines = []
    for pc in wl.pooled_checks():
        lines.append(f"check {pc.name}: {'ok' if pc.ok else 'MISSED'} "
                     f"({pc.detail})")
        if not pc.ok:
            failed += pc.ops
    failed = min(failed, attempted)
    return failed == 0, attempted, failed, lines


def human_lines(name: str, records, peak: int) -> list[str]:
    """The end-to-end metrics under their workload-specific names.

    Times are scaled to the reference host speed; raw wall-clock medians
    follow in parentheses.
    """
    import workloads

    heavy, light = per_op(records, "heavy"), per_op(records, "light")
    h_med, h_tail = median_and_tail(heavy)
    l_med, l_tail = median_and_tail(light)
    h_raw = statistics.median(per_op(records, "heavy", scaled=False))
    l_raw = statistics.median(per_op(records, "light", scaled=False))
    if name == "pipeline":
        return [f"pipeline_L8_s {h_med:.6f} s ({h_tail}; wall {h_raw:.6f} s)",
                f"pipeline_L4_s {l_med:.6f} s ({l_tail}; wall {l_raw:.6f} s)",
                f"pipeline_peak_branches {peak} count"]
    if name == "ubqc":
        shots = workloads.UBQC_SHOTS
        return [f"ubqc_shots_per_s {shots / h_med:.3f} shots/s (median "
                f"delegation {h_med:.6f} s, {h_tail}; wall "
                f"{shots / h_raw:.3f} shots/s)",
                f"ubqc_1shot_s {l_med:.6f} s ({l_tail}; wall {l_raw:.6f} s)",
                f"ubqc_peak_branches {peak} count"]
    return [f"free_lunch_trials_per_s {1 / h_med:.3f} trials/s (median of "
            f"{len(heavy)} batches; wall {1 / h_raw:.3f} trials/s)",
            f"cheat_trials_per_s {1 / l_med:.3f} trials/s (median of "
            f"{len(light)} batches; wall {1 / l_raw:.3f} trials/s)",
            f"attack_peak_branches {peak} count"]


def units() -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 bqcsim, workloads) -> dict:
    from tracing import Tracer

    wl = workloads.WORKLOADS[name](seed)
    env = environment(seed)
    print(f"workload {name}", flush=True)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    OUT.mkdir(exist_ok=True)

    if not trace:
        setup = measure_setup(name, seed, workloads.HostClock())
        setup_s = statistics.median(t * scale for t, scale in setup)
        extra = {"setup_probes": setup}
        records = workloads.run_for(wl, seconds)
        correct, attempted, failed, lines = check_summary(wl, records)
        # peak state size: an exact count, read by replaying with spans
        tracer = Tracer()
        tracer.install(bqcsim)
        try:
            peak = workloads.peak_branches(workloads.WORKLOADS[name](seed),
                                           tracer)
        finally:
            tracer.uninstall()
        lines += [f"setup_s {setup_s:.6f} s (wall "
                  f"{statistics.median(t for t, _ in setup):.6f} s)"]
        lines += human_lines(name, records, peak)
        lines.append(f"failed_ratio {failed / attempted:.6f} ratio")
        values = {
            "setup_s": setup_s,
            "heavy_op_s": statistics.median(per_op(records, "heavy")),
            "light_op_s": statistics.median(per_op(records, "light")),
            "peak_branches": peak,
        }
    else:
        extra = {}
        # untraced first half, then a traced replay of the same steps
        plain = records = workloads.run_for(wl, seconds / 2)
        replayed = workloads.WORKLOADS[name](seed)
        clock = workloads.HostClock()
        tracer = Tracer(clock.now)
        tracer.install(bqcsim)
        try:
            traced = workloads.replay(replayed, len(plain), tracer,
                                      clock=clock)
        finally:
            tracer.uninstall()
        correct, attempted, failed, lines = check_summary(wl, plain)
        ok2, _, failed2, lines2 = check_summary(replayed, traced)
        lines += [f"traced {line}" for line in lines2]
        mismatched = sum(a != b for p, t in zip(plain, traced)
                         for a, b in zip(p.digests, t.digests))
        lines.append(f"check transcript_digests: "
                     f"{'ok' if not mismatched else 'MISSED'} "
                     f"({attempted - mismatched}/{attempted} match)")
        correct = correct and ok2 and not mismatched
        failed = min(attempted, max(failed, failed2) + mismatched)
        t_plain = sum(r.scaled_op_s * r.ops for r in plain)
        t_traced = sum(r.scaled_op_s * r.ops for r in traced)
        values = tracer.metrics()
        values["trace.overhead_s"] = t_traced - t_plain
        values["trace.overhead_share"] = (t_traced - t_plain) / t_plain
        values["trace.spans"] = len(tracer.start)
        values["trace.host_scale"] = statistics.median(r.scale
                                                       for r in traced)
        tracer.write(OUT / f"{tag}.spans.npz")
        lines.append(f"trace.overhead_s {t_traced - t_plain:.6f} s "
                     f"(traced {t_traced:.3f} s - untraced {t_plain:.3f} s, "
                     f"scaled to the reference host speed)")
        lines.append(f"failed_ratio {failed / attempted:.6f} ratio")

    for line in lines:
        print(line, flush=True)
    unit = units()
    metrics = {k: {"value": v, "unit": unit[k]} for k, v in values.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"workload": name, "env": env, "seconds": seconds,
         "report": lines, **extra, **result,
         "steps": [(r.kind, r.ops, r.seconds, r.scale) for r in records]},
        indent=1, sort_keys=True) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["pipeline", "ubqc", "attack", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    bqcsim, workloads = import_library()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print(perf_counter())
        return 0

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace),
                               bqcsim, workloads) for n in names}
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{k}": v for n, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
