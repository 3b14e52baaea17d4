"""Property-based invariants (hypothesis)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bqcsim import tables
from bqcsim.bits import (apply_perm, dot, int_to_bits, invert_perm,
                         random_bits, xor)
from bqcsim.keychain import KeyPair, combine_keys, sample_key_pair
from bqcsim.oracle import RandomOracle
from bqcsim.state import ATOL, SparseState, gadget_state
from conftest import norm, run_alone

bitstrings = st.text(alphabet="01", min_size=1, max_size=24)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds, bitstrings, st.integers(min_value=1, max_value=128))
def test_oracle_deterministic_and_sized(seed, inp, out_len):
    a = RandomOracle(seed).query_classical(inp, out_len)
    b = RandomOracle(seed).query_classical(inp, out_len)
    assert a == b
    assert len(a) == out_len and set(a) <= {"0", "1"}


@given(bitstrings, bitstrings)
def test_xor_involution(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert xor(xor(a, b), b) == a
    assert dot(a, b) in (0, 1)


equal_length_pairs = st.integers(min_value=0, max_value=300).flatmap(
    lambda n: st.tuples(st.text(alphabet="01", min_size=n, max_size=n),
                        st.text(alphabet="01", min_size=n, max_size=n)))


@given(equal_length_pairs)
def test_xor_matches_per_character_definition(pair):
    a, b = pair
    assert xor(a, b) == "".join("1" if x != y else "0" for x, y in zip(a, b))
    with pytest.raises(ValueError, match="length mismatch"):
        xor(a, b + "0")


def format_bits(v, n):
    # the format-spec definition the bit helpers had before
    return format(v, f"0{n}b") if n else ""


width_and_values = st.integers(min_value=0, max_value=300).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1),
                        st.integers(0, (1 << n) - 1)))


@given(width_and_values, seeds)
def test_bit_formatters_match_format_spec(nvw, seed):
    n, v, w = nvw
    assert int_to_bits(v, n) == format_bits(v, n)
    assert xor(format_bits(v, n), format_bits(w, n)) == format_bits(v ^ w, n)
    # random_bits draws the same bits from the same stream
    ref = random.Random(seed)
    assert (random_bits(random.Random(seed), n)
            == (format_bits(ref.getrandbits(n), n) if n else ""))
    # leading zeros survive at every width
    assert int_to_bits(0, n) == "0" * n
    assert int_to_bits(1, n) == format_bits(1, n)


@given(seeds, st.integers(min_value=2, max_value=16))
def test_permutation_roundtrip(seed, n):
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    s = "".join(rng.choice("01") for _ in range(n))
    assert apply_perm(apply_perm(s, perm), invert_perm(perm)) == s


@given(seeds, st.integers(min_value=1, max_value=10))
@settings(max_examples=60)
def test_state_norm_preserved_by_operations(seed, width):
    rng = random.Random(seed)
    stt = SparseState()
    p = sample_key_pair(rng, width)
    q = sample_key_pair(rng, width)
    stt.add_gadget("a", p.x0, p.x1)
    stt.add_gadget("b", q.x0, q.x1)
    assert abs(norm(stt) - 1) < ATOL
    stt.merge_registers(["a", "b"], "ab")
    assert abs(norm(stt) - 1) < ATOL
    stt.split_register("ab", [width, width], ["a", "b"])
    assert abs(norm(stt) - 1) < ATOL
    stt.measure_computational("a", rng)
    assert abs(norm(stt) - 1) < ATOL
    stt.measure_hadamard("b", rng)
    assert abs(norm(stt) - 1) < ATOL


@given(seeds, st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_hadamard_parity_constraint_never_violated(seed, width):
    rng = random.Random(seed)
    p = sample_key_pair(rng, width)
    stt = gadget_state([("g", p.x0, p.x1)])
    d = stt.measure_hadamard("g", rng)
    assert dot(d, p.x0) == dot(d, p.x1)


@given(seeds, bitstrings, st.integers(min_value=1, max_value=16))
@settings(max_examples=100)
def test_enc_dec_roundtrip(seed, payload, key_len):
    o = RandomOracle(seed)
    rng = random.Random(seed)
    key = "".join(rng.choice("01") for _ in range(key_len))
    row = tables.enc(o, key, payload, 8, rng)
    assert tables.dec_row(o, row, key) == payload


@given(seeds, st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=100, deadline=None)
def test_revlt_roundtrip(seed, w_in, w_out):
    o = RandomOracle(seed)
    rng = random.Random(seed)
    xin = sample_key_pair(rng, w_in)
    yout = sample_key_pair(rng, w_out)
    t = tables.revlt_build(o, [xin], [yout], 6, rng)
    for b in (0, 1):
        fwd = tables.lt_decrypt(o, t.forward)(xin[b])
        assert fwd == yout[b]
        assert tables.lt_decrypt(o, t.backward)(fwd) == xin[b]


def per_row_robust_build(oracle, k_help, k2, k3, y2, y3, perm, pad_len, rng):
    # the reference: the output permutation applied once per row
    fwd, bwd = [], []
    for b1 in (0, 1):
        for b2 in (0, 1):
            for b3 in (0, 1):
                out = apply_perm(y2[b2] + y3[b3 ^ (b1 & b2)], perm)
                fwd.append((k_help[b1] + k2[b2] + k3[b3], out))
                bwd.append((k_help[b1] + out, k2[b2] + k3[b3]))
    return tables.ReversibleTable(tables.lt_build(oracle, fwd, pad_len, rng),
                                  tables.lt_build(oracle, bwd, pad_len, rng))


@given(seeds, st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=24),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=80, deadline=None)
def test_robust_table_matches_the_per_row_construction(seed, key_width,
                                                       kappa_out, pad_len):
    # the same rows, pad draws and charges as permuting each row's output
    keys = random.Random(seed)
    kh, k2, k3 = (sample_key_pair(keys, key_width) for _ in range(3))
    y2, y3 = (sample_key_pair(keys, kappa_out) for _ in range(2))
    perm = list(range(2 * kappa_out))
    keys.shuffle(perm)
    built = []
    for build in (tables.robust_rlt_build, per_row_robust_build):
        o, rng = RandomOracle(seed), random.Random(seed + 1)
        table = build(o, kh, k2, k3, y2, y3, perm, pad_len, rng)
        built.append((table, rng.getstate(), o.counters))
    assert built[0] == built[1]
    assert built[0][2] == {"client": 32}


@given(seeds)
@settings(max_examples=60)
def test_basis_test_non_collapsing(seed):
    from bqcsim.protocols import (HonestServer, ProtocolParams,
                                  basis_test_multi)

    o = RandomOracle(seed)
    srv = HonestServer(o, seed=seed + 1)
    rng = random.Random(seed)
    params = ProtocolParams(pad_len=5, kappa_out=8)
    p = sample_key_pair(rng, 5)
    reg = srv.prepare_gadget("g", p)
    expect = gadget_state([(reg, p.x0, p.x1)])
    _, tr = run_alone(basis_test_multi, o, p, reg, 2, params, srv, rng)
    assert tr.passed
    assert srv.state.fidelity(expect) > 1 - 1e-9


@given(seeds, st.booleans())
@settings(max_examples=40)
def test_combine_keys_widths_and_membership(seed, outcome):
    rng = random.Random(seed)
    a = sample_key_pair(rng, 4)
    b = sample_key_pair(rng, 4)
    c = combine_keys(a, b, int(outcome), ("", ""))
    assert c.width == 8
    assert c.x0[:4] == a.x0 and c.x1[:4] == a.x1
    assert {c.x0[4:], c.x1[4:]} == {b.x0, b.x1}


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_transcript_replay_byte_identical(seed):
    from bqcsim.protocols import HonestServer, ProtocolParams, pad_hadamard

    def run():
        o = RandomOracle(seed)
        srv = HonestServer(o, seed=seed + 1)
        rng = random.Random(seed ^ 0x1234)
        p = sample_key_pair(rng, 6)
        reg = srv.prepare_gadget("g", p)
        params = ProtocolParams(pad_len=5, kappa_out=8)
        return run_alone(pad_hadamard, o, p, reg, params, srv,
                         rng)[1].serialize()

    assert run() == run()
