"""Lookup-table constructions and their coherent evaluators.

Every table row is an encryption under one (possibly concatenated) key:

    row = (ct_pad, H(ct_pad || key) xor payload, tag_pad, H(tag_pad || key))

A holder of the key finds its row by the tag and unmasks the payload; the
pads make every row's hash inputs fresh. The row primitives compare and XOR
the integer hashes of ``RandomOracle._prf`` and charge their queries with
``oracle.count``. On top of single rows the module builds plain lookup
tables, reversible (forward + backward) tables, the branching two-gadget
reversible table with its secret output permutation (a reversible table
whose rows are also keyed by a helper gadget), and phase tables (plain
lookup tables whose payloads are phases in eighths of a turn, x0 row first).

Every reader parses a table's row tags once into one private row index: a
row whose ``TAG_BITS``-bit tag has a recorded owner is keyed by the key that
opens it (wrong only by a collision, at most 2**-64 per check), and the
other rows are hashed in row order, only for keys the index lacks. That is
the in-order scan's row unless two rows open under one key. When every
tag has a recorded owner, a key that opens no row costs one dict lookup
and no hash. The classical reader of ``lt_decrypt`` opens the row found
with ``dec_row``, so it parses a row's ``ct`` only when the row opens, and
charges as the in-order ``dec_row`` scan. The server's row opener parses
every row's ``ct`` once per table, since a row may open under several
branches. Five server evaluators share one row opener,
one SparseState call per step (``index_eval`` first adds its qubit):
``lt_eval_coherent`` XORs the payload into a register,
``lt_append_coherent`` appends it, ``lt_measure_coherent`` measures it,
``phase_eval`` phases by it and ``index_eval`` marks where row 0 opens. A
pass costs one server query per row check and one per payload unmask: XOR
and append make one pass, measure and phase a compute and an uncompute
pass, and the index checks row 0's tag alone in both. ``rev_eval`` runs
reversible tables, plain or branching, with controls that stay in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .bits import apply_perm, int_to_bits
from .keychain import KeyPair
from .oracle import TAG_BITS


class UndecryptableBranch(ValueError):
    pass


class TableRow(NamedTuple):
    ct_pad: str
    ct: str
    tag_pad: str
    tag: str


@dataclass
class LookupTable:
    rows: list[TableRow]
    payload_len: int
    key_len: int


@dataclass
class ReversibleTable:
    forward: LookupTable
    backward: LookupTable


# -- row primitives --------------------------------------------------------


def enc(oracle, key: str, payload: str, pad_len: int, rng) -> TableRow:
    """One row that ``key`` opens to ``payload``: two ``pad_len``-bit pads
    drawn from ``rng`` (ct_pad first), two client queries."""
    if pad_len < 1:
        raise ValueError("pad length must be >= 1")
    if not payload:
        raise ValueError("cannot encrypt an empty payload")
    # random_bits and int_to_bits written out (bin(v)[2:].zfill(n)): enc
    # runs once per row built, and their calls cost ~2% of a free-lunch trial
    ct_pad = bin(rng.getrandbits(pad_len))[2:].zfill(pad_len)
    tag_pad = bin(rng.getrandbits(pad_len))[2:].zfill(pad_len)
    n = len(payload)
    oracle.count("client", 2)
    ct = oracle._prf(ct_pad + key, n) ^ int(payload, 2)
    tag = oracle._prf(tag_pad + key, TAG_BITS)
    return TableRow(ct_pad, bin(ct)[2:].zfill(n), tag_pad,
                    bin(tag)[2:].zfill(TAG_BITS))


def dec_row(oracle, row: TableRow, key: str, party: str = "client"):
    """Payload if the key opens this row, else None; a tag is hashed only
    when the oracle records no owner for it."""
    oracle.count(party)
    tag, inp = int(row.tag, 2), row.tag_pad + key
    owner = oracle._owner(tag)
    if (owner != inp if owner is not None
            else oracle._prf(inp, TAG_BITS) != tag):
        return None
    oracle.count(party)
    n = len(row.ct)
    return int_to_bits(oracle._prf(row.ct_pad + key, n) ^ int(row.ct, 2), n)


# -- plain lookup tables ---------------------------------------------------


def lt_build(oracle, mapping, pad_len: int, rng) -> LookupTable:
    """Table from [(key, payload), ...] of uniform widths, rows shuffled."""
    rows = []
    payload_len = key_len = 0
    seen = set()
    for key, payload in mapping:
        if key in seen:
            raise ValueError("duplicate input key in table mapping")
        if rows and (len(key), len(payload)) != (key_len, payload_len):
            raise ValueError("mixed key or payload widths in table mapping")
        seen.add(key)
        rows.append(enc(oracle, key, payload, pad_len, rng))
        payload_len, key_len = len(payload), len(key)
    rng.shuffle(rows)
    return LookupTable(rows, payload_len, key_len)


def _row_index(oracle, table: LookupTable):
    """Index ``table``'s rows by tag once; return its row finder: a key ->
    the position of the row it opens, or None.

    A row whose tag has a recorded owner is keyed by the key that opens it
    (the first row per key). The finder looks a key up in that dict and,
    only if some row's tag has no recorded owner, then hashes those rows'
    tags in row order. No row's ``ct`` is parsed here.
    """
    by_key, unknown = {}, []
    for i, r in enumerate(table.rows):
        tag = int(r.tag, 2)
        owner = oracle._owner(tag)
        if owner is None:
            unknown.append((r.tag_pad, tag, i))
        elif owner.startswith(r.tag_pad):
            by_key.setdefault(owner[len(r.tag_pad):], i)
    if not unknown:
        # the dict's own get: no Python frame per lookup, ~1.5% of a
        # free-lunch trial
        return by_key.get
    prf = oracle._prf

    def find(key: str) -> int | None:
        i = by_key.get(key)
        if i is None:
            i = next((i for tag_pad, tag, i in unknown
                      if prf(tag_pad + key, TAG_BITS) == tag), None)
        return i

    return find


def lt_decrypt(oracle, table: LookupTable, party: str = "client"):
    """``table``'s reader: a key -> the payload of the row it opens, or None.

    The reader indexes the rows once (:func:`_row_index`); ``dec_row``
    opens the row the index finds, the only row whose ``ct`` is parsed. A
    read charges ``party`` i + 2 for the row at position i and
    ``len(table.rows)`` if none opens, as the in-order ``dec_row`` scan
    does. When every row's tag has a recorded owner, a miss is one dict
    lookup and one charge; otherwise it hashes each ownerless row's tag.
    """
    find, rows, count = _row_index(oracle, table), table.rows, oracle.count
    misses = len(rows)

    def read(key: str) -> str | None:
        i = find(key)
        if i is None:
            count(party, misses)
            return None
        count(party, i)
        return dec_row(oracle, rows[i], key, party)

    return read


def _row_opener(oracle, table: LookupTable, queries: int):
    """Charge the server ``queries`` queries; return ``table``'s row opener:
    a branch key -> (payload as an int, width, position) of the row the
    index finds, or UndecryptableBranch if none opens. Every row's ``ct``
    is parsed here, once, since a row may open under several branches."""
    oracle.count("server", queries)
    prf, find = oracle._prf, _row_index(oracle, table)
    cts = [(r.ct_pad, len(r.ct), int(r.ct, 2)) for r in table.rows]

    def open_row(key: str) -> tuple[int, int, int]:
        i = find(key)
        if i is None:
            raise UndecryptableBranch("no row opens under branch key")
        ct_pad, n, ct = cts[i]
        return prf(ct_pad + key, n) ^ ct, n, i

    return open_row


def lt_eval_coherent(oracle, state, key_regs: list[str], out_reg: str,
                     table: LookupTable) -> None:
    """XOR each branch's decrypted payload into out_reg.

    Raises on any branch whose keys open no row (honest evaluation must
    abort there), and raises ValueError if out_reg is not as wide as the
    payload of the row that opens; the state is then left as it was.
    """
    open_row = _row_opener(oracle, table, 2 * len(table.rows))

    def decrypt(out: str, key: str) -> str:
        payload, n, _ = open_row(key)
        if len(out) != n:
            raise ValueError(f"width mismatch: {len(out)} vs {n}")
        return int_to_bits(int(out, 2) ^ payload, n)

    state.map_register(out_reg, decrypt, keys=key_regs)


def lt_append_coherent(oracle, state, key_regs: list[str], dst: str,
                       table: LookupTable) -> None:
    """|v>|k>  ->  |v || payload(k)>|k>, branch by branch.

    dst may be one of key_regs: v stays as a prefix, so the map is
    reversible. Fails closed like :func:`lt_eval_coherent`, with ValueError
    for a payload that is not ``table.payload_len`` bits wide.
    """
    open_row = _row_opener(oracle, table, 2 * len(table.rows))

    def append(v: str, key: str) -> str:
        return v + int_to_bits(*open_row(key)[:2])

    state.map_register(dst, append, keys=key_regs,
                       width=state.width(dst) + table.payload_len)


def lt_measure_coherent(oracle, state, reg: str, table: LookupTable,
                        rng) -> str:
    """Measure the payload that reg's value opens, branch by branch.

    Branches whose payload differs from the outcome are dropped; fails
    closed like :func:`lt_eval_coherent`, leaving the state as it was.
    """
    open_row = _row_opener(oracle, table, 4 * len(table.rows))
    return state.measure_computational(
        reg, rng, lambda v: int_to_bits(*open_row(v)[:2]))


# -- reversible tables -----------------------------------------------------


def revlt_build(oracle, in_pairs: list[KeyPair], out_pairs: list[KeyPair],
                pad_len: int, rng) -> ReversibleTable:
    """Bijection between key tuples: forward x_b -> y_b, backward inverts."""
    if len(in_pairs) != len(out_pairs):
        raise ValueError("pair count mismatch")
    n = len(in_pairs)
    fwd, bwd = [], []
    for combo in range(1 << n):
        bs = [(combo >> i) & 1 for i in range(n)]
        key_in = "".join(p[b] for p, b in zip(in_pairs, bs))
        key_out = "".join(p[b] for p, b in zip(out_pairs, bs))
        fwd.append((key_in, key_out))
        bwd.append((key_out, key_in))
    return ReversibleTable(
        lt_build(oracle, fwd, pad_len, rng),
        lt_build(oracle, bwd, pad_len, rng),
    )


def rev_eval(oracle, state, controls: list[str], in_regs: list[str],
             table: ReversibleTable, out_reg: str) -> str:
    """Coherently re-encode gadget registers through a reversible table.

    |c>|x_b>|0>  ->  |c>|x_b>|y_b>  ->  |c>|0>|y_b>: the forward pass is
    keyed by ``controls + [merged inputs]``, the backward pass by
    ``controls + [out_reg]``. The control registers stay in place and the
    zeroed inputs are discarded. Returns the output register name.
    """
    state.add_register(out_reg, "0" * table.forward.payload_len)
    merged = state.merge_registers(in_regs, f"{out_reg}_in")
    lt_eval_coherent(oracle, state, controls + [merged], out_reg,
                     table.forward)
    lt_eval_coherent(oracle, state, controls + [out_reg], merged,
                     table.backward)
    state.discard_register(merged)
    return out_reg


# -- branching reversible table --------------------------------------------


def robust_rlt_build(oracle, k_help: KeyPair, k2: KeyPair, k3: KeyPair,
                     y2: KeyPair, y3: KeyPair, perm: list[int], pad_len: int,
                     rng) -> ReversibleTable:
    """Two-branch reversible table with a secret output bit-permutation.

    Identity-style on helper branch b1=0, CNOT-style on b1=1:
        help_b1 || x2_b2 || x3_b3  ->  perm(y2_b2 || y3_(b3 xor b1*b2))
    The backward table inverts each helper branch separately, so the helper
    is a control of ``rev_eval``.
    """
    # the four distinct outputs, permuted before any pad is drawn
    outs = [[apply_perm(y2[b2] + y3[b3], perm) for b3 in (0, 1)]
            for b2 in (0, 1)]
    fwd, bwd = [], []
    for b1 in (0, 1):
        for b2 in (0, 1):
            for b3 in (0, 1):
                out = outs[b2][b3 ^ (b1 & b2)]
                fwd.append((k_help[b1] + k2[b2] + k3[b3], out))
                bwd.append((k_help[b1] + out, k2[b2] + k3[b3]))
    return ReversibleTable(
        lt_build(oracle, fwd, pad_len, rng),
        lt_build(oracle, bwd, pad_len, rng),
    )


# -- phase tables ----------------------------------------------------------


def phase_lt_build(oracle, pair: KeyPair, n: int, pad_len: int,
                   rng) -> LookupTable:
    """Table realizing the relative phase exp(i*pi*n/4) on a gadget.

    The secret offset m is sampled from [0, 4); payloads are m and m + n
    without modular reduction so the evaluated phases are exact for every
    m. The x0 row comes first, so :func:`index_eval` reads each branch's
    index from the row that opens.
    """
    m = rng.randrange(4)
    width = max(3, (3 + n).bit_length())
    rows = [enc(oracle, pair[b], int_to_bits(m + b * n, width), pad_len, rng)
            for b in (0, 1)]
    return LookupTable(rows, width, pair.width)


def phase_eval(oracle, state, reg: str, table: LookupTable) -> None:
    """Phase each branch by exp(i*pi*p/4), p the payload its reg value opens.

    One phase map on reg; fails closed like :func:`lt_measure_coherent`.
    """
    open_row = _row_opener(oracle, table, 4 * len(table.rows))
    state.apply_phase_per_branch(reg, lambda v: math.pi * open_row(v)[0] / 4)


def index_eval(oracle, state, reg: str, table: LookupTable, dst: str) -> None:
    """Add the one-bit register dst, "0" where reg's value opens row 0 (a
    phase table's x0 row) and "1" where it opens another; fails closed like
    :func:`lt_eval_coherent`, removing dst again."""
    open_row = _row_opener(oracle, table, 2)
    state.add_register(dst, "0")
    try:
        state.map_register(dst, lambda _, v: "1" if open_row(v)[2] else "0",
                           keys=[reg])
    except UndecryptableBranch:
        state.discard_register(dst)
        raise


def serialize_table(table: LookupTable) -> str:
    """Canonical text layout for transcripts: row count then row fields."""
    lines = [f"rows={len(table.rows)} payload={table.payload_len} key={table.key_len}"]
    for r in table.rows:
        lines.append(f"{r.ct_pad},{r.ct},{r.tag_pad},{r.tag}")
    return "\n".join(lines)
