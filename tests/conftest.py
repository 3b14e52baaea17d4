"""Helpers shared by the test modules."""

import math


def norm(state) -> float:
    """The norm of a SparseState, over the whole product of its components."""
    return math.sqrt(sum(abs(a) ** 2 for a in state.branches.values()))
