"""Adversaries and the Monte Carlo estimation harness.

Adversaries subclass :class:`HonestServer` and override individual
responses; everything else (state, oracle accounting) stays honest, so a
cheater is exactly "honest server except for this one message". The
estimator runs many independent trials, each with its own oracle and rng,
and reports Wilson 95% intervals.

The free-lunch attack is the classical measure-then-decrypt attack against
the branching reversible table: with no output permutation it recovers all
four output keys from two decrypted rows; with the permutation it is
reduced to guessing bit-position subsets and verifying them against row
tags. It reads each direction of the table through one ``tables.lt_decrypt``
reader, which indexes the row tags once and parses a row's ciphertext only
when the row opens: the forward one opens the two rows, and each guess is
one lookup in the backward one. The trial's oracle built every row, so it
records every tag's owner: a wrong guess hashes nothing and is charged the
backward table's 8 rows. A guess is one
``2*kappa_out``-bit random word, redrawn until exactly ``kappa_out`` bits
are set: a uniform choice of the positions that carry the first half.

Trial t of a run started at ``seed0 >= 0`` uses seed
``seed0 * 2**40 + step*t``, so distinct ``seed0`` share no trial and
``seed0 = 0`` runs seeds 0, step, 2*step, ...
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import tables
from .bits import bits_to_int, int_to_bits, random_bits
from .gadget_prep import send_gadgets
from .keychain import sample_key_pair
from .oracle import RandomOracle
from .protocols import (HonestServer, ProtocolParams, Transcript,
                        basis_test_multi, combine, pad_hadamard)


@dataclass
class TrialStats:
    experiment: str
    trials: int
    successes: int

    def __post_init__(self):
        if self.successes > self.trials:
            raise ValueError("successes cannot exceed trials")

    @property
    def p_hat(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def wilson(self, z: float = 1.96) -> tuple[float, float]:
        n, p = self.trials, self.p_hat
        if n == 0:
            return 0.0, 1.0
        denom = 1 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
        return max(0.0, center - half), min(1.0, center + half)

    def line(self) -> str:
        lo, hi = self.wilson()
        return (f"{self.experiment}\t{self.trials}\t{self.successes}"
                f"\t{self.p_hat:.6f}\t[{lo:.6f},{hi:.6f}]")


# -- adversary behaviors ---------------------------------------------------


class MeasureThenRandomD(HonestServer):
    """Hadamard-test cheater: measure the gadget, answer a random d.

    The d is well-formed (right length, nonzero tail), so only the parity
    check can catch it; it passes with probability about one half.
    """

    def respond_pad_hadamard(self, reg: str, pad: str, kappa_out: int) -> str:
        width = self.state.width(reg)
        self.state.measure_computational(reg, self.rng)
        self.state.discard_register(reg)
        d_head = random_bits(self.rng, width)
        while True:
            tail = random_bits(self.rng, kappa_out)
            if tail != "0" * kappa_out:
                return d_head + tail


class RandomGuessBasisTest(HonestServer):
    """Basis-test cheater that guesses r without touching the table."""

    def respond_basis_test(self, reg: str, table) -> str:
        return random_bits(self.rng, table.payload_len)


# -- trial harness ---------------------------------------------------------


def _drive(protocol: str, oracle, server, params, rng):
    """Run a protocol on ``key_width``-bit gadgets; (transcript, secrets)."""
    tr = Transcript()
    if protocol == "pad_hadamard":
        (pair, reg), = send_gadgets(server, rng, 1, params.key_width)
        tr.run(pad_hadamard, oracle, pair, reg, params, server, rng)
        return tr, {"pair": pair}
    if protocol == "basis_test":
        (pair, reg), = send_gadgets(server, rng, 1, params.key_width)
        tr.run(basis_test_multi, oracle, pair, reg, params.test_rounds,
               params, server, rng)
        return tr, {"pair": pair}
    if protocol == "combine":
        (pa, ra), (pb, rb) = send_gadgets(server, rng, 2, params.key_width)
        new, _ = tr.run(combine, oracle, pa, pb, ra, rb, params, server,
                        rng) or (None, None)
        return tr, {"pair_a": pa, "pair_b": pb, "combined": new}
    raise ValueError(f"unknown protocol id: {protocol}")


def run_with_adversary(protocol: str, adversary_cls, params: ProtocolParams,
                       seed: int):
    """One deterministic trial of a protocol against an adversary class."""
    oracle = RandomOracle(seed)
    rng = random.Random(seed ^ 0x5DEECE66D)
    server = adversary_cls(oracle, seed=seed + 1)
    tr, secrets = _drive(protocol, oracle, server, params, rng)
    return tr.verdict, secrets, tr


_SEED_BLOCK = 1 << 40  # the trial seeds of one run lie in one block


class _BadTrialSeeds(ValueError):
    """Trial seeds no run may draw; raised before its first trial."""


def _trial_seeds(seed0: int, trials: int, step: int) -> range:
    """Trial seeds ``seed0 * 2**40 + step*t``: no two ``seed0`` share one.

    Negative ``seed0`` is refused: ``random.Random`` seeds with the absolute
    value of an int, so a negative trial seed would repeat a positive one.
    """
    if seed0 < 0:
        raise _BadTrialSeeds(f"seed0={seed0}: trial seeds need seed0 >= 0")
    if step * trials >= _SEED_BLOCK:
        raise _BadTrialSeeds(f"trials={trials}: more than one seed block")
    base = seed0 * _SEED_BLOCK
    return range(base, base + step * trials, step)


def estimate(adversary_cls, protocol: str, params: ProtocolParams,
             trials: int, seed0: int = 0,
             experiment: str = "experiment") -> TrialStats:
    """Monte Carlo estimate of the pass rate, with a fresh oracle per trial."""
    passes = sum(
        run_with_adversary(protocol, adversary_cls, params, s)[0] == "pass"
        for s in _trial_seeds(seed0, trials, 1000))
    return TrialStats(experiment, trials, passes)


# -- free-lunch attack -----------------------------------------------------


def _guess_mask(rng: random.Random, width: int, k: int) -> int:
    """A uniform ``k``-subset of ``width`` bit positions, as an int mask.

    Every ``width``-bit draw is equally likely, so the first draw with
    exactly ``k`` bits set is uniform over the k-subsets. That takes
    2**width / C(width, k) draws on average: about sqrt(pi*k) at
    k = width / 2, the attack's only use.
    """
    while True:
        mask = rng.getrandbits(width)
        if mask.bit_count() == k:
            return mask


def free_lunch_attack(seed: int, variant: str, params: ProtocolParams,
                      guesses: int = 64) -> bool:
    """One trial of the classical attack on the branching table.

    The trial conditions on the branching (CNOT-style) helper outcome by
    reading the helper's x1, not by measuring it and retrying on x0. The
    attacker measures the input gadget, decrypts the two rows its values
    open, and slices the two plaintexts into the four output keys.
    ``variant`` selects the unpermuted table (slicing at the known half
    boundary, deterministic success) or the permuted table (slice positions
    must be guessed and checked against backward-row tags). Returns True
    iff all four output keys were recovered exactly.
    """
    if variant not in ("permuted", "unpermuted"):
        raise ValueError(f"unknown variant: {variant}")
    rng = random.Random(seed)
    kout = params.kappa_out

    # nothing measures the helper, so reading x1 samples the trial given the
    # CNOT branch (the identity branch hides the fourth key); the server rng
    # is drawn from rng, since Random(seed) also draws the keys
    oracle = RandomOracle(seed)
    server = HonestServer(oracle, seed=rng.getrandbits(64))
    (h_pair, _), = send_gadgets(server, rng, 1, params.key_width, prefix="h")
    k2 = sample_key_pair(rng, params.key_width)
    (k3, k3_reg), = send_gadgets(server, rng, 1, params.key_width, prefix="x")
    y2 = sample_key_pair(rng, kout)
    y3 = sample_key_pair(rng, kout)
    perm = list(range(2 * kout))
    if variant == "permuted":
        rng.shuffle(perm)
    table = tables.robust_rlt_build(oracle, h_pair, k2, k3, y2, y3, perm,
                                    params.pad_len, rng)

    h_val = h_pair.x1
    x3_val = server.state.measure_computational(k3_reg, server.rng)

    forward = tables.lt_decrypt(oracle, table.forward, "attacker")
    out_a = forward(h_val + k2.x0 + x3_val)
    out_b = forward(h_val + k2.x1 + x3_val)
    if out_a is None or out_b is None:
        return False

    truth = {y2.x0, y2.x1, y3.x0, y3.x1}

    if variant == "unpermuted":
        cand = {out_a[:kout], out_b[:kout], out_a[kout:], out_b[kout:]}
        return cand == truth

    # permuted: guess which bit positions carry the first half, verify the
    # recombined string against a backward-row tag, and read the keys off
    # assuming an order-preserving permutation of each half
    width = 2 * kout
    a, b = bits_to_int(out_a), bits_to_int(out_b)
    backward = tables.lt_decrypt(oracle, table.backward, "attacker")
    for _ in range(guesses):
        mask = _guess_mask(rng, width, kout)
        out_c = int_to_bits((a & mask) | (b & ~mask), width)
        if backward(h_val + out_c) is None:
            continue
        # string position i is mask bit width - 1 - i
        halves = [[i for i in range(width)
                   if (mask >> (width - 1 - i) & 1) == first]
                  for first in (1, 0)]
        cand = {"".join(out[i] for i in half)
                for out in (out_a, out_b) for half in halves}
        if cand == truth:
            return True
    return False


def free_lunch_rate(variant: str, params: ProtocolParams, trials: int,
                    seed0: int = 0, guesses: int = 64) -> TrialStats:
    successes = sum(
        free_lunch_attack(s, variant, params, guesses)
        for s in _trial_seeds(seed0, trials, 1)
    )
    return TrialStats(f"free_lunch_{variant}_k{params.kappa_out}",
                      trials, successes)
