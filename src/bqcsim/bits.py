"""Small helpers for bitstrings.

Bitstrings are plain Python ``str`` objects over the alphabet {'0','1'}.
This keeps them hashable, sliceable and cheap to concatenate, which is all
the protocol layer ever needs.
"""

from __future__ import annotations


def random_bits(rng, n: int) -> str:
    """n uniformly random bits from an rng with a getrandbits method."""
    return int_to_bits(rng.getrandbits(n), n)


def xor(a: str, b: str) -> str:
    if len(a) != len(b):
        raise ValueError(f"xor length mismatch: {len(a)} vs {len(b)}")
    return int_to_bits(bits_to_int(a) ^ bits_to_int(b), len(a))


def dot(a: str, b: str) -> int:
    """Inner product mod 2."""
    if len(a) != len(b):
        raise ValueError(f"dot length mismatch: {len(a)} vs {len(b)}")
    return parity(bits_to_int(a) & bits_to_int(b))


def bits_to_int(s: str) -> int:
    return int(s, 2) if s else 0


def int_to_bits(v: int, width: int) -> str:
    """``v`` >= 0 as ``width`` bits, most significant first."""
    return bin(v)[2:].zfill(width) if width else ""


def parity(v: int) -> int:
    return bin(v).count("1") & 1


def apply_perm(s: str, perm: list[int] | tuple[int, ...]) -> str:
    """Bitwise permutation: output bit i is input bit perm[i]."""
    if len(s) != len(perm):
        raise ValueError("permutation length mismatch")
    return "".join([s[p] for p in perm])


def invert_perm(perm: list[int] | tuple[int, ...]) -> list[int]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv
