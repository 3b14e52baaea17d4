"""Lazily-sampled random oracle.

The oracle is a keyed PRF: output bits for a query ``(input, out_len)`` are
derived deterministically from ``(seed, input, out_len)`` with BLAKE2b, so
two instances with equal seeds agree on every query without storing a table.
``RandomOracle._prf`` is that function, uncounted; the coherent evaluators
call it directly and charge their queries themselves. On top of it the
module provides:

* superposed queries -- branch-wise XOR of ``H(input)`` into a target
  register of a :class:`~bqcsim.state.SparseState` (one counted query per
  call, matching the quantum-query model);
* global tags -- ``H(tag-prefix || x)`` on a reserved domain that no honest
  protocol input can reach (the prefix contains a character outside
  {'0','1'});
* per-party query counters.
"""

from __future__ import annotations

import hashlib

from .bits import xor

_TAG_PREFIX = "#"  # reserved: honest inputs are pure {'0','1'} strings


class RandomOracle:
    """A lazily-sampled random function, reproducible from a 64-bit seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.counters: dict[str, int] = {}

    # -- raw PRF -----------------------------------------------------------

    def _prf(self, inp: str, out_len: int) -> str:
        """The first ``out_len`` output bits for ``inp``, as a {0,1} string.

        Block ``b`` is the 32-byte BLAKE2b digest of
        ``f"{seed}|0|{out_len}|{b}|{inp}"``, written as its 256 bits, most
        significant bit of the first byte first (the digest read as one
        big-endian integer). Blocks 0, 1, ... are concatenated and the
        result is truncated to ``out_len`` bits.
        """
        out = []
        need = out_len
        block = 0
        while need > 0:
            # the fixed "0" field is part of the domain: every output depends
            # on it, so it stays even though nothing varies it
            h = hashlib.blake2b(
                f"{self.seed}|0|{out_len}|{block}|{inp}".encode(),
                digest_size=32,
            ).digest()
            out.append(format(int.from_bytes(h, "big"), "0256b")[:need])
            need -= 256
            block += 1
        return "".join(out)

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
