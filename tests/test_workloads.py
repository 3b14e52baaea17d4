"""The benchmark workloads (bench/workloads.py) still run on this library.

Each workload calls library entry points that no other test reaches the
same way (``state.gadget_state``, ``SparseState.fidelity``,
``expected_helper_count``, ``run_with_adversary``, ``succ_ubqc`` with 10,000
shots). Replaying the first steps of every workload here makes a library
change that breaks one of them fail in this suite, not only in the
benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["pipeline", "ubqc", "attack"])
def test_first_steps_of_each_workload_pass_their_checks(name):
    workloads = load_workloads()
    workload = workloads.WORKLOADS[name](seed=11)
    records = workloads.replay(workload, 2)
    assert [r.kind for r in records] == ["heavy", "light"]
    assert sum(r.failed for r in records) == 0
    assert all(r.ops == len(r.digests) for r in records)
    for check in workload.pooled_checks():
        assert check.ok, (check.name, check.detail)
