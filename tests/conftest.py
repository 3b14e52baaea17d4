"""Helpers shared by the test modules."""

import cmath
import math

from bqcsim.qfactory import OCTANT


def norm(state) -> float:
    """The norm of a SparseState, over the whole product of its components."""
    return math.sqrt(sum(abs(a) ** 2 for a in state.branches.values()))


def fidelity_vs_angle(qb) -> float:
    """A PreparedQubit's overlap with (|0> + exp(i*theta)|1>)/sqrt(2)."""
    target = cmath.exp(1j * OCTANT * qb.angle)
    return abs(qb.alpha + target.conjugate() * qb.beta) ** 2 / 2
