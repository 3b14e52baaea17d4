"""Random oracle: determinism, counters, tags."""

import hashlib

import pytest

from bqcsim.oracle import RandomOracle
from bqcsim.state import SparseState


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
    # lengths around the 8-bit byte and the 256-bit block boundaries
    lengths = (1, 7, 8, 40, 63, 255, 256, 257, 300, 512, 513)
    for seed in (0, 1234, 2**64 - 1):
        o = RandomOracle(seed)
        for inp in ("", "0", "0110", "1" * 97):
            for n in lengths:
                assert o._prf(inp, n) == reference_prf(seed, 0, n, inp)
        assert (o.query_classical("0110", 40)
                == reference_prf(seed, 0, 40, "0110"))
        # global tags live on the "#" domain of the same construction
        for x in ("1", "0110", "01" * 150):
            assert o.tag(x) == reference_prf(seed, 0, 2 * len(x), "#" + x)


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


def test_superposed_query_is_involution_and_counts_once():
    o = RandomOracle(3)
    st = SparseState()
    st.add_gadget("k", "00", "11")
    st.add_register("h", "0000")
    before = dict(st.branches)
    o.query_superposed(st, "k", "h")
    assert st.branches != before
    o.query_superposed(st, "k", "h")
    assert st.branches == before
    assert o.counters["server"] == 2


def test_superposed_query_matches_classical_values():
    o = RandomOracle(9)
    st = SparseState()
    st.add_gadget("k", "01", "10")
    st.add_register("h", "000")
    o.query_superposed(st, "k", "h", prefix="11")
    vals = {k[0]: k[1] for k in st.branches}
    assert vals["01"] == o._prf("1101", 3)
    assert vals["10"] == o._prf("1110", 3)


def test_tag_default_length_and_domain_separation():
    o = RandomOracle(4)
    t = o.tag("0110")
    assert len(t) == 8
    # tags live on the '#' domain, disjoint from every honest query
    assert t != o.query_classical("0110", 8)
    with pytest.raises(ValueError):
        o.tag("")

