"""Client-side key bookkeeping: sampling, combining, permuting."""

from __future__ import annotations

from dataclasses import dataclass

from .bits import random_bits, xor

MAX_RESAMPLE = 64


@dataclass(frozen=True)
class KeyPair:
    x0: str
    x1: str

    def __post_init__(self):
        if self.x0 == self.x1:
            raise ValueError("key pair members must differ")
        if len(self.x0) != len(self.x1):
            raise ValueError("key pair members must have equal width")

    @property
    def width(self) -> int:
        return len(self.x0)

    def __getitem__(self, b: int) -> str:
        return self.x1 if b else self.x0

    def delta(self) -> str:
        return xor(self.x0, self.x1)


def sample_key_pair(rng, width: int) -> KeyPair:
    x0 = random_bits(rng, width)
    for _ in range(MAX_RESAMPLE):
        x1 = random_bits(rng, width)
        if x1 != x0:
            return KeyPair(x0, x1)
    raise ValueError(f"could not sample distinct keys at width {width}")


def combine_keys(pair_a: KeyPair, pair_b: KeyPair, outcome_bit: int,
                 pads: tuple[str, str]) -> KeyPair:
    """Concatenate two pairs according to the subscript-XOR outcome.

    Outcome 0 pairs same subscripts, outcome 1 pairs opposite subscripts;
    the pads are prefixed per output subscript.
    """
    p0, p1 = pads
    if outcome_bit == 0:
        return KeyPair(p0 + pair_a.x0 + pair_b.x0, p1 + pair_a.x1 + pair_b.x1)
    return KeyPair(p0 + pair_a.x0 + pair_b.x1, p1 + pair_a.x1 + pair_b.x0)


def permute_blocks(key_blocks: list, perm: list[int]) -> list:
    """Block i of the output is block perm[i] of the input."""
    if sorted(perm) != list(range(len(key_blocks))):
        raise ValueError("not a permutation of the block indices")
    return [key_blocks[p] for p in perm]
