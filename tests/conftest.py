"""Helpers shared by the test modules."""

import cmath
import math

import pytest

from bqcsim import oracle
from bqcsim.protocols import Transcript
from bqcsim.qfactory import OCTANT
from bqcsim.state import _Component


# Narrower widths than PipelineConfig's defaults, as the bench's PIPELINE
# passes: the pinned hash counts, digests and statistical-gate data of the
# tests that use them were taken at these inputs.
SMALL_PIPELINE = dict(key_width=4, kappa_out=8, pad_base=4, test_rounds=1)


def run_alone(step, *args):
    """``step(*args)`` as a run of its own: (its output, its Transcript).

    The output is None when the run is rejected.
    """
    tr = Transcript()
    return tr.run(step, *args), tr


def expand(state) -> dict:
    """A SparseState's whole product as one map, keyed in register order."""
    return state._expand([n for n, _ in state.registers])


def norm(state) -> float:
    """The norm of a SparseState, over the whole product of its components."""
    return math.sqrt(sum(abs(a) ** 2 for a in expand(state).values()))


def set_branches(state, mapping) -> None:
    """Replace a SparseState by a unit-norm map, keyed in register order."""
    comp = _Component([n for n, _ in state.registers], dict(mapping))
    state._where = dict.fromkeys(comp.names, comp)
    state._refactor(comp)


def fidelity_vs_angle(qb) -> float:
    """A PreparedQubit's overlap with (|0> + exp(i*theta)|1>)/sqrt(2)."""
    target = cmath.exp(1j * OCTANT * qb.angle)
    return abs(qb.alpha + target.conjugate() * qb.beta) ** 2 / 2


class HashCounter:
    """A stand-in for ``oracle._EMPTY`` that counts the hashes started."""

    def __init__(self, empty):
        self.empty, self.n = empty, 0

    def copy(self):
        self.n += 1
        return self.empty.copy()


@pytest.fixture
def hashes(monkeypatch):
    """Counts the BLAKE2b hashes the oracle computes (memo hits start none)."""
    counter = HashCounter(oracle._EMPTY)
    monkeypatch.setattr(oracle, "_EMPTY", counter)
    return counter
