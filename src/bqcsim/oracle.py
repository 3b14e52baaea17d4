"""Lazily-sampled random oracle.

The oracle is a keyed PRF: output bits for a query ``(input, out_len)`` are
derived deterministically from ``(seed, input, out_len)`` with BLAKE2b, so two
instances with equal seeds agree on every query; each hash copies one shared
empty BLAKE2b state, which is never updated. ``RandomOracle._prf`` is that
function, uncounted; it returns the output bits as one integer, which
``int_to_bits`` writes as a {0,1} string. The table primitives call it directly
and charge their queries themselves. Each instance keeps a memo of the
outputs it has computed and an owner index: for each output of at least
``TAG_MIN`` bits, the input that produced it, read by ``RandomOracle._owner``
without hashing. A row opens under a key exactly when its tag's owner is
``tag_pad + key``: any other input matches the tag only through a collision,
probability at most 2**-64 per check. Both are cleared together when the
memo holds ``_MEMO_LIMIT`` entries, and neither changes an output or a count.
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
# Outputs this wide have a recorded owner. Tables pad row tags up to it:
# narrower tags collide too often at desk scale, opening the wrong row.
TAG_MIN = 64
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
        # out_len >= TAG_MIN -> {output bits: the input that hashed to them}
        self._owners: dict[int, dict[int, str]] = {}

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
                self._forget()
            self._memo[key] = out
            if out_len >= TAG_MIN:
                self._owners.setdefault(out_len, {})[out] = inp
        return out

    def _forget(self) -> None:
        """Clear the memo and the owner index together."""
        self._memo.clear()
        self._owners.clear()

    def _owner(self, value: int, out_len: int) -> str | None:
        """The recorded input whose ``out_len``-bit output is ``value``, or
        None. Read-only: it hashes nothing and adds no entry anywhere."""
        owners = self._owners.get(out_len)
        return None if owners is None else owners.get(value)

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
