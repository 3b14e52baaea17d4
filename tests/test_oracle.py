"""Random oracle: determinism, counters, tags."""

import hashlib
import random

import pytest

from bqcsim import oracle, tables
from bqcsim.bits import int_to_bits
from bqcsim.oracle import _MEMO_LIMIT, TAG_MIN, RandomOracle
from bqcsim.state import SparseState
from conftest import expand


def reference_prf(seed, salt, out_len, inp):
    # independent re-derivation of the output-bit construction
    out = ""
    block = 0
    while len(out) < out_len:
        h = hashlib.blake2b(
            f"{seed}|{salt}|{out_len}|{block}|{inp}".encode(), digest_size=32
        ).digest()
        out += "".join(format(b, "08b") for b in h)
        block += 1
    return out[:out_len]


def test_matches_reference_construction():
    # lengths around the 8-bit byte and the 256-bit block boundaries, asked
    # shuffled and interleaved across inputs, so each seed builds its
    # per-length records in a different order; 0 is asked after the others
    lengths = (1, 7, 8, 40, 63, 255, 256, 257, 300, 512, 513)
    inputs = ("", "0", "0110", "1" * 97)
    orders = set()
    for seed in (0, 1234, 2**64 - 1):
        o = RandomOracle(seed)
        queries = [(inp, n) for inp in inputs for n in lengths]
        random.Random(seed).shuffle(queries)
        for inp, n in queries + [(inp, 0) for inp in inputs]:
            # the second read comes from the memo
            for _ in range(2):
                assert (int_to_bits(o._prf(inp, n), n)
                        == reference_prf(seed, 0, n, inp))
        orders.add(tuple(o._heads))
        assert (o.query_classical("0110", 40)
                == reference_prf(seed, 0, 40, "0110"))
        # global tags live on the "#" domain of the same construction
        for x in ("1", "0110", "01" * 150):
            assert o.tag(x) == reference_prf(seed, 0, 2 * len(x), "#" + x)
    assert len(orders) == 3
    # every hash copies the shared empty state; none may update it
    assert (oracle._EMPTY.digest()
            == hashlib.blake2b(b"", digest_size=32).digest())


def test_memo_stays_bounded_and_transparent():
    o = RandomOracle(21)
    inputs = [format(i, "016b") for i in range(_MEMO_LIMIT + 50)]
    for inp in inputs:
        assert int_to_bits(o._prf(inp, 12), 12) == reference_prf(21, 0, 12,
                                                                 inp)
        assert len(o._memo) <= _MEMO_LIMIT
    # inputs from before and after the memo was cleared
    for inp in inputs[:10] + inputs[-10:]:
        assert int_to_bits(o._prf(inp, 12), 12) == reference_prf(21, 0, 12,
                                                                 inp)


def test_owner_reads_the_index_and_changes_nothing(hashes):
    o = RandomOracle(31)

    def snapshot():
        return (dict(o._heads), dict(o._memo),
                {n: dict(d) for n, d in o._owners.items()})

    # nothing asked at this length yet: no head or index, and none is made
    assert o._owner(0, TAG_MIN) is None
    assert snapshot() == ({}, {}, {})
    value = o._prf("0101", TAG_MIN)
    narrow = o._prf("0101", TAG_MIN - 1)
    state, hashed = snapshot(), hashes.n
    assert o._owner(value, TAG_MIN) == "0101"
    # another value at a length asked, the same value at a length not asked,
    # and an output narrower than TAG_MIN, which is never recorded
    for v, n in ((value ^ 1, TAG_MIN), (value, TAG_MIN + 1),
                 (narrow, TAG_MIN - 1)):
        assert o._owner(v, n) is None
    assert snapshot() == state and hashes.n == hashed and o.counters == {}
    # the index is cleared with the memo, on the hash that finds it full
    for i in range(_MEMO_LIMIT - len(o._memo)):
        o._prf(format(i, "b"), 7)
    assert o._owner(value, TAG_MIN) == "0101"
    fresh = o._prf("1", TAG_MIN)
    assert len(o._memo) == 1
    assert o._owner(value, TAG_MIN) is None
    assert o._owner(fresh, TAG_MIN) == "1"


def test_repeated_classical_query_charges_each_time():
    o = RandomOracle(8)
    first = o.query_classical("0101", 16, party="server")
    for _ in range(3):
        assert o.query_classical("0101", 16, party="server") == first
    assert o.counters == {"server": 4}


def test_repeated_coherent_eval_charges_every_row():
    o = RandomOracle(12)
    rng = random.Random(13)
    table = tables.lt_build(o, [("0011", "101"), ("1100", "101")], 4, 8, rng)
    st = SparseState()
    st.add_gadget("k", "0011", "1100")
    st.add_register("out", "000")
    o.counters.clear()
    tables.lt_eval_coherent(o, st, ["k"], "out", table)
    assert o.counters == {"server": 4}
    assert {v[1] for v in expand(st)} == {"101"}
    # the second evaluation reads every row hash from the memo
    tables.lt_eval_coherent(o, st, ["k"], "out", table)
    assert o.counters == {"server": 8}
    assert {v[1] for v in expand(st)} == {"000"}


def test_deterministic_across_instances():
    a = RandomOracle(7)
    b = RandomOracle(7)
    assert a.query_classical("1010", 16) == b.query_classical("1010", 16)


def test_seed_changes_output():
    assert (RandomOracle(1).query_classical("1010", 64)
            != RandomOracle(2).query_classical("1010", 64))


def test_output_length_and_charset():
    o = RandomOracle(0)
    for n in (1, 8, 63, 64, 65, 300):
        out = o.query_classical("1", n)
        assert len(out) == n
        assert set(out) <= {"0", "1"}


def test_length_is_part_of_the_domain():
    # H(x) at different lengths are independent draws, not truncations
    o = RandomOracle(5)
    assert o.query_classical("111", 64)[:32] != o.query_classical("111", 32)


def test_counters_per_party():
    o = RandomOracle(0)
    o.query_classical("0", 1, party="client")
    o.query_classical("0", 1, party="server")
    o.query_classical("1", 1, party="server")
    assert o.counters == {"client": 1, "server": 2}


def test_superposed_query_appends_and_counts_once():
    o = RandomOracle(3)
    st = SparseState()
    st.add_gadget("k", "00", "11")
    for calls in (1, 2):
        before = dict(expand(st))
        o.query_superposed(st, "k", 4)
        # each branch keeps its old value as a prefix and gains 4 bits
        after = {k[0][:-4]: (k[0][-4:], a) for k, a in expand(st).items()}
        assert after == {v: (int_to_bits(o._prf(v, 4), 4), a)
                         for (v,), a in before.items()}
        assert st.registers == [("k", 2 + 4 * calls)]
        assert len(st.branches) == 2
        assert o.counters["server"] == calls


def test_superposed_query_matches_classical_values():
    o = RandomOracle(9)
    st = SparseState()
    st.add_gadget("k", "01", "10")
    o.query_superposed(st, "k", 3, prefix="11")
    vals = {k[0][:2]: k[0][2:] for k in expand(st)}
    assert vals["01"] == int_to_bits(o._prf("1101", 3), 3)
    assert vals["10"] == int_to_bits(o._prf("1110", 3), 3)
    assert vals["01"] == reference_prf(9, 0, 3, "1101")
    assert vals["10"] == reference_prf(9, 0, 3, "1110")


def test_tag_default_length_and_domain_separation():
    o = RandomOracle(4)
    t = o.tag("0110")
    assert len(t) == 8
    # tags live on the '#' domain, disjoint from every honest query
    assert t != o.query_classical("0110", 8)
    with pytest.raises(ValueError):
        o.tag("")

