"""Lazily-sampled random oracle.

The oracle is a keyed PRF: output bits for a query ``(input, out_len)`` are
derived deterministically from ``(seed, input, out_len)`` with BLAKE2b, so
two instances with equal seeds agree on every query. ``RandomOracle._prf``
is that function, uncounted; the coherent evaluators call it directly and
charge their queries themselves. Each instance keeps a bounded memo of the
outputs it has computed: the server re-derives the tag and mask of every
table row the client hashed when building it, so in gadget preparation and
delegation a third to a half of all queries repeat one the same instance
already answered. The memo holds at most ``_MEMO_LIMIT`` entries and is
cleared when full; it changes no output and no query count. On top of the
PRF the module provides:

* superposed queries -- branch-wise XOR of ``H(input)`` into a target
  register of a :class:`~bqcsim.state.SparseState` (one counted query per
  call, matching the quantum-query model);
* global tags -- ``H(tag-prefix || x)`` on a reserved domain that no honest
  protocol input can reach (the prefix contains a character outside
  {'0','1'});
* per-party query counters.
"""

from __future__ import annotations

from functools import cache
from hashlib import blake2b

from .bits import xor

_TAG_PREFIX = "#"  # reserved: honest inputs are pure {'0','1'} strings
_MEMO_LIMIT = 4096  # PRF outputs kept per instance; a full memo is cleared


@cache
def _shape(out_len: int) -> tuple[range, int, int, str]:
    """Blocks after the first, digest bytes used, right shift, format spec.

    Shared by every instance: only the hash-input prefix depends on the seed.
    """
    nbytes = -(-out_len // 8)
    return (range(1, -(-out_len // 256)), nbytes, 8 * nbytes - out_len,
            f"0{out_len}b")


class RandomOracle:
    """A lazily-sampled random function, reproducible from a 64-bit seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.counters: dict[str, int] = {}
        self._heads: dict[int, str] = {}  # out_len -> block-0 input prefix
        self._memo: dict[str, str] = {}  # block-0 hash input -> output bits

    # -- raw PRF -----------------------------------------------------------

    def _prf(self, inp: str, out_len: int) -> str:
        """The first ``out_len`` output bits for ``inp``, as a {0,1} string.

        Block ``b`` is the 32-byte BLAKE2b digest of
        ``f"{seed}|0|{out_len}|{b}|{inp}"``, written as its 256 bits, most
        significant bit of the first byte first (the digest read as one
        big-endian integer). Blocks 0, 1, ... are concatenated and the
        result is truncated to ``out_len`` bits.
        """
        if out_len <= 0:
            return ""
        head = self._heads.get(out_len)
        if head is None:
            # the fixed "0" field is part of the domain: every output depends
            # on it, so it stays even though nothing varies it
            head = self._heads[out_len] = f"{self.seed}|0|{out_len}|0|"
        key = head + inp
        out = self._memo.get(key)
        if out is None:
            more_blocks, nbytes, shift, spec = _shape(out_len)
            h = blake2b(key.encode(), digest_size=32).digest()
            for b in more_blocks:
                h += blake2b(f"{self.seed}|0|{out_len}|{b}|{inp}".encode(),
                             digest_size=32).digest()
            out = format(int.from_bytes(h[:nbytes], "big") >> shift, spec)
            if len(self._memo) >= _MEMO_LIMIT:
                self._memo.clear()
            self._memo[key] = out
        return out

    # -- accounting --------------------------------------------------------

    def count(self, party: str, n: int = 1) -> None:
        self.counters[party] = self.counters.get(party, 0) + n

    # -- query modes -------------------------------------------------------

    def query_classical(self, inp: str, out_len: int, party: str = "client") -> str:
        if out_len < 1:
            raise ValueError("out_len must be >= 1")
        self.count(party)
        return self._prf(inp, out_len)

    def query_superposed(self, state, in_reg: str, out_reg: str,
                         prefix: str = "") -> None:
        """XOR H(prefix || value of in_reg) into out_reg, branch by branch.

        Amplitudes are untouched; the mapping is an XOR so applying it twice
        restores the state. Counted as one server query regardless of branch
        count.
        """
        out_len = state.width(out_reg)
        self.count("server")
        state.map_register(out_reg, lambda vout, vin: xor(
            vout, self._prf(prefix + vin, out_len)), keys=[in_reg])

    def tag(self, x: str, party: str = "client") -> str:
        """Global tag H(tag-prefix || x), twice as long as x."""
        if not x:
            raise ValueError("cannot tag the empty string")
        self.count(party)
        return self._prf(_TAG_PREFIX + x, 2 * len(x))
