"""Lazily-sampled random oracle.

The oracle is a keyed PRF: output bits for a query ``(input, out_len)`` are
derived deterministically from ``(seed, input, out_len)`` with BLAKE2b, so two
instances with equal seeds agree on every query; each hash copies one shared
empty BLAKE2b state, which is never updated. ``RandomOracle._prf`` is that
function, uncounted; it returns the output bits as one integer, which
``int_to_bits`` writes as a {0,1} string. The table primitives call it directly
and charge their queries themselves. Each instance keeps a bounded memo of the
outputs it has computed: the server re-derives the tag and mask of every table
row the client hashed when building it, so in gadget preparation and delegation
a third to a half of all queries repeat one the same instance already answered.
The memo holds at most ``_MEMO_LIMIT`` entries and is cleared when full; it
changes no output and no query count.
On top of the PRF the module provides:

* superposed queries -- branch-wise append of ``H(prefix || v)`` to the
  value ``v`` of a :class:`~bqcsim.state.SparseState` register (one counted
  query per call, matching the quantum-query model);
* global tags -- ``H(tag-prefix || x)`` on a reserved domain that no honest
  protocol input can reach (the prefix contains a character outside
  {'0','1'});
* per-party query counters.
"""

from __future__ import annotations

from hashlib import blake2b

from .bits import int_to_bits

_TAG_PREFIX = "#"  # reserved: honest inputs are pure {'0','1'} strings
_MEMO_LIMIT = 4096  # PRF outputs kept per instance; a full memo is cleared
_EMPTY = blake2b(digest_size=32)  # every hash copies it; it is never updated


class RandomOracle:
    """A lazily-sampled random function, reproducible from a 64-bit seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.counters: dict[str, int] = {}
        # out_len -> (block-0 input prefix, blocks after the first, right
        # shift of their whole digest); each hash copies the shared _EMPTY
        self._heads: dict[int, tuple[str, range, int]] = {}
        self._memo: dict[str, int] = {}  # block-0 hash input -> output bits

    # -- raw PRF -----------------------------------------------------------

    def _prf(self, inp: str, out_len: int) -> int:
        """The first ``out_len`` output bits for ``inp``, as an integer.

        Block ``b`` is the 32-byte BLAKE2b digest of
        ``f"{seed}|0|{out_len}|{b}|{inp}"``, written as its 256 bits, most
        significant bit of the first byte first (the digest read as one
        big-endian integer). Blocks 0, 1, ... are concatenated and the
        result is truncated to ``out_len`` bits: ``int_to_bits(out, out_len)``.
        """
        if out_len <= 0:
            return 0
        head = self._heads.get(out_len)
        if head is None:
            # the fixed "0" field is part of the domain: every output depends
            # on it, so it stays even though nothing varies it
            head = self._heads[out_len] = (
                f"{self.seed}|0|{out_len}|0|", range(1, -(-out_len // 256)),
                -out_len % 256)
        key = head[0] + inp
        out = self._memo.get(key)
        if out is None:
            h = _EMPTY.copy()
            h.update(key.encode())
            digest = h.digest()
            for b in head[1]:
                h = _EMPTY.copy()
                h.update(f"{self.seed}|0|{out_len}|{b}|{inp}".encode())
                digest += h.digest()
            out = int.from_bytes(digest, "big") >> head[2]
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
        return int_to_bits(self._prf(inp, out_len), out_len)

    def query_superposed(self, state, reg: str, out_len: int,
                         prefix: str = "") -> None:
        """|v> -> |v || H(prefix || v)> on register reg, H of out_len bits.

        Amplitudes are untouched and v stays as a prefix, so the map is
        reversible. Counted as one server query regardless of branch count.
        """
        self.count("server")
        prf = self._prf
        state.map_register(
            reg, lambda v, _: v + int_to_bits(prf(prefix + v, out_len),
                                              out_len),
            width=state.width(reg) + out_len)

    def tag(self, x: str, party: str = "client") -> str:
        """Global tag H(tag-prefix || x), twice as long as x."""
        if not x:
            raise ValueError("cannot tag the empty string")
        self.count(party)
        return int_to_bits(self._prf(_TAG_PREFIX + x, 2 * len(x)), 2 * len(x))
