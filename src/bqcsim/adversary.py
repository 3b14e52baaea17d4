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
tags.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import tables
from .bits import bits_to_int, int_to_bits, random_bits
from .keychain import sample_key_pair
from .oracle import RandomOracle
from .protocols import (HonestServer, ProtocolParams, basis_test_multi,
                        combine, pad_hadamard)


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


def _drive(protocol: str, oracle, server, params: ProtocolParams, rng):
    """Run one named protocol instance; returns (transcript, secrets)."""
    if protocol == "pad_hadamard":
        pair = sample_key_pair(rng, 8)
        reg = server.prepare_gadget("g", pair)
        tr = pad_hadamard(oracle, pair, reg, params, server, rng)
        return tr, {"pair": pair}
    if protocol == "basis_test":
        pair = sample_key_pair(rng, 8)
        reg = server.prepare_gadget("g", pair)
        tr = basis_test_multi(oracle, pair, reg, params.test_rounds,
                              params, server, rng)
        return tr, {"pair": pair}
    if protocol == "combine":
        pa = sample_key_pair(rng, 8)
        pb = sample_key_pair(rng, 8)
        ra = server.prepare_gadget("a", pa)
        rb = server.prepare_gadget("b", pb)
        new, tr, _ = combine(oracle, pa, pb, ra, rb, params, server, rng)
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


def estimate(adversary_cls, protocol: str, params: ProtocolParams,
             trials: int, seed0: int = 0,
             experiment: str = "experiment") -> TrialStats:
    """Monte Carlo estimate of the pass rate, with a fresh oracle per trial."""
    passes = sum(
        run_with_adversary(protocol, adversary_cls, params,
                           seed0 + 1000 * t)[0] == "pass"
        for t in range(trials))
    return TrialStats(experiment, trials, passes)


# -- free-lunch attack -----------------------------------------------------


def free_lunch_attack(seed: int, variant: str, params: ProtocolParams,
                      guesses: int = 64) -> bool:
    """One trial of the classical attack on the branching table.

    The attacker measures the helper and input gadgets, conditions on the
    branching (CNOT-style) helper outcome, decrypts the two rows its
    measured values open, and slices the two plaintexts into the four
    output keys. ``variant`` selects the unpermuted table (slicing at the
    known half boundary, deterministic success) or the permuted table
    (slice positions must be guessed and checked against backward-row
    tags). Returns True iff all four output keys were recovered exactly.
    """
    if variant not in ("permuted", "unpermuted"):
        raise ValueError(f"unknown variant: {variant}")
    rng = random.Random(seed)
    kout = params.kappa_out

    # fresh instances until the measured helper lands on the CNOT branch;
    # the identity branch information-theoretically hides the fourth key
    for attempt in range(256):
        oracle = RandomOracle(seed * 997 + attempt)
        # seeded from rng, not from seed: the helper measurement must be
        # independent of the key sampling
        server = HonestServer(oracle, seed=rng.getrandbits(64))
        h_pair = sample_key_pair(rng, 6)
        k2 = sample_key_pair(rng, 6)
        k3 = sample_key_pair(rng, 6)
        y2 = sample_key_pair(rng, kout)
        y3 = sample_key_pair(rng, kout)
        perm = list(range(2 * kout))
        if variant == "permuted":
            rng.shuffle(perm)
        table = tables.robust_rlt_build(oracle, h_pair, k2, k3, y2, y3,
                                        perm, params.pad_len, rng)
        h_reg = server.prepare_gadget("h", h_pair)
        k3_reg = server.prepare_gadget("x", k3)

        h_val = server.state.measure_computational(h_reg, server.rng)
        if h_val != h_pair.x1:
            continue
        x3_val = server.state.measure_computational(k3_reg, server.rng)

        out_a = tables.lt_decrypt(oracle, table.forward,
                                  h_val + k2.x0 + x3_val, party="attacker")
        out_b = tables.lt_decrypt(oracle, table.forward,
                                  h_val + k2.x1 + x3_val, party="attacker")
        if out_a is None or out_b is None:
            return False

        truth = {y2.x0, y2.x1, y3.x0, y3.x1}

        if variant == "unpermuted":
            cand = {out_a[:kout], out_b[:kout], out_a[kout:], out_b[kout:]}
            return cand == truth

        # permuted: guess which bit positions carry the first half, verify
        # the recombined string against a backward-row tag, and read the
        # keys off assuming an order-preserving permutation of each half
        width = 2 * kout
        a, b = bits_to_int(out_a), bits_to_int(out_b)
        # bit[i] is string position i as an int bit; a sample of bit draws
        # the same positions as a sample of range(width)
        bit = [1 << (width - 1 - i) for i in range(width)]
        for _ in range(guesses):
            mask = sum(rng.sample(bit, kout))
            out_c = int_to_bits((a & mask) | (b & ~mask), width)
            if tables.lt_decrypt(oracle, table.backward, h_val + out_c,
                                 party="attacker") is None:
                continue
            s = [i for i in range(width) if mask & bit[i]]
            comp = [i for i in range(width) if not mask & bit[i]]
            cand = {
                "".join(out_a[i] for i in s),
                "".join(out_b[i] for i in s),
                "".join(out_a[i] for i in comp),
                "".join(out_b[i] for i in comp),
            }
            if cand == truth:
                return True
        return False
    raise RuntimeError("never reached the branching helper outcome")


def free_lunch_rate(variant: str, params: ProtocolParams, trials: int,
                    seed0: int = 0, guesses: int = 64) -> TrialStats:
    successes = sum(
        free_lunch_attack(seed0 + t, variant, params, guesses)
        for t in range(trials)
    )
    return TrialStats(f"free_lunch_{variant}_k{params.kappa_out}",
                      trials, successes)
