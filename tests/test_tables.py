"""Table constructions: row encryption, lookup, reversible, phase."""

import cmath
import math
import random

import pytest

from bqcsim import tables
from bqcsim.bits import apply_perm, int_to_bits, random_bits, xor
from bqcsim.gadget_prep import (PipelineConfig, gdgprep_full,
                                security_refreshing, send_gadgets)
from bqcsim.keychain import KeyPair, sample_key_pair
from bqcsim.oracle import _MEMO_LIMIT, TAG_BITS, RandomOracle
from bqcsim.protocols import HonestServer, ProtocolParams, basis_test_multi
from bqcsim.qfactory import succ_ubqc
from bqcsim.state import SparseState, gadget_state
from conftest import SMALL_PIPELINE, expand, norm, run_alone
from test_oracle import reference_prf


def test_row_encrypts_and_opens_with_the_key():
    o = RandomOracle(1)
    rng = random.Random(1)
    row = tables.enc(o, "110011", "10101", 8, rng)
    assert tables.dec_row(o, row, "110011") == "10101"
    assert tables.dec_row(o, row, "110010") is None
    with pytest.raises(ValueError, match="empty payload"):
        tables.enc(o, "110011", "", 8, rng)


def reference_enc(oracle, key, payload, pad_len, rng):
    # the row built from random_bits and int_to_bits
    ct_pad, tag_pad = random_bits(rng, pad_len), random_bits(rng, pad_len)
    n = len(payload)
    oracle.count("client", 2)
    ct = oracle._prf(ct_pad + key, n) ^ int(payload, 2)
    tag = oracle._prf(tag_pad + key, TAG_BITS)
    return tables.TableRow(ct_pad, int_to_bits(ct, n), tag_pad,
                           int_to_bits(tag, TAG_BITS))


@pytest.mark.parametrize("width", [1, 64, 300])  # 300 bits: two hash blocks
@pytest.mark.parametrize("pad_len", [1, 8, 70])
def test_enc_matches_the_random_bits_reference_row(pad_len, width):
    for seed in range(8):
        draw = random.Random(seed)
        key = random_bits(draw, draw.randint(1, 12))
        for payload in (random_bits(draw, width), "0" * width, "1" * width):
            rows = []
            for build in (tables.enc, reference_enc):
                o, rng = RandomOracle(seed), random.Random(seed)
                rows.append((build(o, key, payload, pad_len, rng),
                             rng.getstate(), o.counters))
            assert rows[0] == rows[1]
            assert rows[0][2] == {"client": 2}


@pytest.mark.parametrize("payload, pad_len, match", [
    ("", 8, "empty payload"), ("101", 0, "pad length"),
    ("101", -1, "pad length")])
def test_enc_refuses_before_any_draw(payload, pad_len, match):
    o, rng = RandomOracle(1), random.Random(1)
    draws = rng.getstate()
    with pytest.raises(ValueError, match=match):
        tables.enc(o, "110011", payload, pad_len, rng)
    assert (rng.getstate(), o.counters) == (draws, {})


def test_row_ciphertext_is_masked():
    # the ciphertext field itself never equals the payload for these keys
    o = RandomOracle(2)
    rng = random.Random(2)
    row = tables.enc(o, "0" * 8, "1" * 32, 8, rng)
    assert row.ct != "1" * 32
    # independent re-derivation of the mask
    mask = int_to_bits(o._prf(row.ct_pad + "0" * 8, 32), 32)
    assert mask == reference_prf(2, 0, 32, row.ct_pad + "0" * 8)
    assert xor(row.ct, mask) == "1" * 32


def test_lt_build_and_decrypt_roundtrip():
    o = RandomOracle(3)
    rng = random.Random(3)
    mapping = [("00", "1111"), ("01", "0000"), ("10", "1010")]
    t = tables.lt_build(o, mapping, 8, rng)
    for key, payload in mapping:
        assert tables.lt_decrypt(o, t)(key) == payload
    assert tables.lt_decrypt(o, t)("11") is None


def test_lt_build_rejects_duplicate_keys():
    o = RandomOracle(4)
    with pytest.raises(ValueError):
        tables.lt_build(o, [("0", "1"), ("0", "0")], 4, random.Random(0))


@pytest.mark.parametrize("mapping", [
    [("00", "1"), ("011", "0")],  # key widths differ
    [("00", "1"), ("01", "00")],  # payload widths differ
])
def test_lt_build_rejects_mixed_widths(mapping):
    # the header records one key and one payload width for every row
    with pytest.raises(ValueError, match="mixed key or payload widths"):
        tables.lt_build(RandomOracle(4), mapping, 4, random.Random(0))


def reference_decrypt(o, row, key):
    # the string-level row decrypt: compare tag strings, then xor(mask, ct)
    if o.query_classical(row.tag_pad + key, len(row.tag)) != row.tag:
        return None
    return xor(o.query_classical(row.ct_pad + key, len(row.ct)), row.ct)


def test_integer_row_paths_match_string_reference_and_fail_closed():
    for seed in range(40):
        rng = random.Random(seed)
        o = RandomOracle(seed)
        kw, pw = rng.randint(2, 8), rng.randint(1, 80)
        keys = [int_to_bits(v, kw) for v in rng.sample(range(1 << kw), 4)]
        wrong, keys = keys[0], keys[1:]
        mapping = [(k, random_bits(rng, pw)) for k in keys]
        t = tables.lt_build(o, mapping, rng.randint(1, 8), rng)
        for key, payload in mapping + [(wrong, None)]:
            assert tables.lt_decrypt(o, t)(key) == payload
            for row in t.rows:
                assert (tables.dec_row(o, row, key)
                        == reference_decrypt(o, row, key))
        # coherent: each branch gets out xor its row's payload
        out0 = random_bits(rng, pw)
        st = SparseState()
        st.add_gadget("k", keys[0], keys[1])
        st.add_register("out", out0)
        tables.lt_eval_coherent(o, st, ["k"], "out", t)
        assert {k: out for k, out in expand(st)} == {
            k: xor(out0, p) for k, p in mapping[:2]}
        # a branch whose key opens no row fails, and installs nothing
        st = SparseState()
        st.add_gadget("k", keys[0], wrong)
        st.add_register("out", out0)
        before = dict(expand(st))
        with pytest.raises(tables.UndecryptableBranch):
            tables.lt_eval_coherent(o, st, ["k"], "out", t)
        assert expand(st) == before
        # an out register of another width fails, and installs nothing
        for out in ("1" * (pw + 1), "0" * (pw + 1), "1" * (pw - 1)):
            st = SparseState()
            st.add_gadget("k", keys[0], keys[1])
            st.add_register("out", out)
            before = dict(expand(st))
            with pytest.raises(ValueError) as err:
                tables.lt_eval_coherent(o, st, ["k"], "out", t)
            assert not isinstance(err.value, tables.UndecryptableBranch)
            assert expand(st) == before


def in_order_decrypt(oracle, table, key, party):
    # the reference reader: dec_row on each row in table order until one
    # opens
    for row in table.rows:
        payload = tables.dec_row(oracle, row, key, party)
        if payload is not None:
            return payload
    return None


@pytest.mark.parametrize("owners", ["recorded", "forgotten", "none"])
def test_reader_matches_the_in_order_dec_row_scan(monkeypatch, owners):
    # the reader finds a key's row with one lookup where the scan tries the
    # rows in order: every payload, miss and party's charge is the scan's,
    # whether the oracle records the owners of the build's tags, forgot
    # them, or records none
    if owners == "none":
        monkeypatch.setattr(RandomOracle, "_owner", lambda self, value: None)
    for seed in range(40):
        rng = random.Random(seed)
        kw, n, pw = rng.randint(4, 8), rng.randint(1, 8), rng.randint(1, 80)
        keys = [int_to_bits(v, kw) for v in rng.sample(range(1 << kw), n + 3)]
        mapping = [(k, random_bits(rng, pw)) for k in keys[:n]]
        pad_len, party = rng.randint(1, 8), rng.choice(
            ["client", "server", "attacker"])
        o, ref = RandomOracle(seed), RandomOracle(seed)
        t = tables.lt_build(o, mapping, pad_len, random.Random(seed))
        assert tables.lt_build(ref, mapping, pad_len,
                               random.Random(seed)) == t
        if owners == "forgotten":
            o._forget()
            ref._forget()
        read = tables.lt_decrypt(o, t, party)
        # each row's key and three keys that open no row, each read twice,
        # the second time in shuffled order
        tried = keys + rng.sample(keys, len(keys))
        charges = set()
        for key in tried:
            before = o.counters.get(party, 0)
            got = read(key)
            assert got == in_order_decrypt(ref, t, key, party), (seed, key)
            assert o.counters == ref.counters, (seed, key)
            charges.add(o.counters[party] - before)
        # a key opening row i is charged i + 2, one opening no row n
        assert charges == set(range(2, n + 2)) | {n}


def test_reader_miss_hashes_only_ownerless_row_tags(monkeypatch):
    # with every row's owner recorded, a key that opens no row hashes
    # nothing and is charged len(rows); with one row's owner forgotten,
    # each such key hashes that row's tag alone
    o, rng = RandomOracle(60), random.Random(60)
    keys = [int_to_bits(v, 8) for v in rng.sample(range(256), 16 + 64)]
    t = tables.lt_build(o, [(k, random_bits(rng, 20)) for k in keys[:16]],
                        8, rng)
    missing = keys[16:]
    hashed = []
    real_prf, real_owner = RandomOracle._prf, RandomOracle._owner

    def recording_prf(self, inp, out_len):
        hashed.append(inp)
        return real_prf(self, inp, out_len)

    monkeypatch.setattr(RandomOracle, "_prf", recording_prf)
    read = tables.lt_decrypt(o, t, "attacker")
    assert [read(k) for k in missing] == [None] * 64
    assert hashed == [] and o.counters["attacker"] == 64 * 16
    forgotten = t.rows[5]
    monkeypatch.setattr(
        RandomOracle, "_owner", lambda self, value: (
            None if value == int(forgotten.tag, 2)
            else real_owner(self, value)))
    read = tables.lt_decrypt(o, t, "attacker")
    assert [read(k) for k in missing] == [None] * 64
    assert hashed == [forgotten.tag_pad + k for k in missing]
    assert o.counters["attacker"] == 2 * 64 * 16


def test_every_row_tag_is_tag_bits_wide(monkeypatch):
    # one table of each kind, with kappa_out, pads and keys wider than
    # TAG_BITS: the tag width follows none of them
    o, rng = RandomOracle(52), random.Random(52)
    server = HonestServer(o, seed=52)
    built = []  # (rows, {key that opens a row: its payload or None})
    real_build = tables.lt_build

    def recording_build(oracle, mapping, pad_len, rng):
        table = real_build(oracle, mapping, pad_len, rng)
        built.append((table.rows, dict(mapping)))
        return table

    monkeypatch.setattr(tables, "lt_build", recording_build)
    wide = ProtocolParams(pad_len=72, kappa_out=100)
    (g, reg), = send_gadgets(server, rng, 1, 6)
    assert run_alone(basis_test_multi, o, g, reg, 1, wide, server,
                     rng)[1].passed
    lams = send_gadgets(server, rng, 1, 6, prefix="lam")
    _, tr = run_alone(security_refreshing, o, [(g, reg)], lams, wide, server,
                      rng)
    assert tr.passed
    kh, k2, k3 = (sample_key_pair(rng, 4) for _ in range(3))
    y2, y3 = sample_key_pair(rng, 5), sample_key_pair(rng, 5)
    tables.robust_rlt_build(o, kh, k2, k3, y2, y3, list(range(10)), 72, rng)
    ins, outs = ([sample_key_pair(rng, 40) for _ in range(2)]
                 for _ in range(2))
    tables.revlt_build(o, ins, outs, 8, rng)
    pt = tables.phase_lt_build(o, g, 3, 72, rng)
    built.append((pt.rows, {g.x0: None, g.x1: None}))
    assert [len(rows) for rows, _ in built] == [2, 4, 8, 8, 4, 4, 2]
    for rows, keys in built:
        for row in rows:
            assert len(row.tag) == TAG_BITS
            opened = {k: tables.dec_row(o, row, k) for k in keys}
            (key, payload), = ((k, p) for k, p in opened.items()
                               if p is not None)
            assert keys[key] in (None, payload)
    # only TAG_BITS-bit outputs have a recorded owner
    owners = dict(o._owners)
    for n in (TAG_BITS - 1, TAG_BITS + 1, 100):
        o._prf("0110", n)
    assert o._owners == owners


def in_order_row_opener(oracle, table, queries):
    # the reference opener: hash each row's tag in table order until one
    # opens, whatever the memo and owner index hold
    oracle.count("server", queries)

    def open_row(key):
        for i, r in enumerate(table.rows):
            if oracle._prf(r.tag_pad + key, len(r.tag)) == int(r.tag, 2):
                n = len(r.ct)
                return oracle._prf(r.ct_pad + key, n) ^ int(r.ct, 2), n, i
        raise tables.UndecryptableBranch("no row opens under branch key")

    return open_row


def evaluation(evaluator, memo, opens):
    """Build a table, evaluate it coherently; what the evaluation left.

    ``memo`` is what the server's oracle remembers of the build, in its
    memo and owner index: all of it ("built"), nothing ("cleared", or
    "fresh": another instance with the same seed), or one key's rows while
    the memo is full, so that the evaluation's first hash clears it
    ("full"). Unless ``opens``, one branch holds a key no row opens.
    """
    o = RandomOracle(41)
    rng = random.Random(41)
    a, b, c = (sample_key_pair(rng, 4) for _ in range(3))
    st = SparseState()
    st.add_gadget("a", a.x0, a.x1 if opens else c.x0)
    if evaluator in ("phase", "index"):
        table = tables.phase_lt_build(o, a, 3, 8, rng)
    else:
        st.add_gadget("b", b.x0, b.x1)
        keys = [a[i] + b[j] for i in (0, 1) for j in (0, 1)]
        table = tables.lt_build(o, [(k, random_bits(rng, 5)) for k in keys],
                                8, rng)
        if evaluator == "measure":
            st.merge_registers(["a", "b"], "a")
        else:
            st.add_register("out", "10110")
    server = RandomOracle(41) if memo == "fresh" else o
    if memo in ("cleared", "full"):
        o._forget()
    if memo == "full":
        warm = a.x0 if evaluator in ("phase", "index") else a.x0 + b.x0
        assert tables.lt_decrypt(o, table)(warm) is not None
        for i in range(_MEMO_LIMIT - len(o._memo)):
            o._prf(format(i, "b"), 7)
    before = expand(st)
    result = None
    try:
        if evaluator == "xor":
            tables.lt_eval_coherent(server, st, ["a", "b"], "out", table)
        elif evaluator == "append":
            tables.lt_append_coherent(server, st, ["a", "b"], "out", table)
        elif evaluator == "measure":
            result = tables.lt_measure_coherent(server, st, "a", table, rng)
        elif evaluator == "index":
            tables.index_eval(server, st, "a", table, "q")
        else:
            tables.phase_eval(server, st, "a", table)
    except tables.UndecryptableBranch:
        assert not opens and expand(st) == before
        result = "undecryptable"
    if memo == "full":
        # the evaluation filled the memo, which was cleared
        assert len(o._memo) < _MEMO_LIMIT - 1
    return (result, expand(st), dict(o.counters), dict(server.counters),
            rng.random())


@pytest.mark.parametrize("opens", [True, False])
@pytest.mark.parametrize("memo", ["built", "cleared", "fresh", "full"])
@pytest.mark.parametrize("evaluator",
                         ["xor", "append", "measure", "phase", "index"])
def test_memo_first_opener_matches_the_in_order_scan(monkeypatch, evaluator,
                                                     memo, opens):
    # the memo and owner index only decide which tags are hashed: payloads,
    # outcome, state, every party's charges and the rng draws are the
    # in-order scan's
    got = evaluation(evaluator, memo, opens)
    assert (got[0] == "undecryptable") is not opens
    monkeypatch.setattr(tables, "_row_opener", in_order_row_opener)
    assert evaluation(evaluator, memo, opens) == got


def test_coherent_evaluation_hashes_only_the_rows_that_open(hashes):
    # BLAKE2b hashes actually computed, memo hits excluded. The row that
    # opens under a branch key is one the client hashed when it built the
    # table, so the server finds it from the owner index and hashes no row
    # tag. The in-order scan hashed the tag of every row it tried
    # first: 289 for the pipeline and 327 for the 1-shot delegation, whose
    # basis-test and phase-table openers run two passes. The charged
    # queries are the same either way. The qubit index of each qfac8 opens
    # its rows the same way; a check of row 0's tag alone hashed the x1
    # branch's input, 185 in all: three more, not four, because in the
    # first qfac8 the memo held that input from an earlier hash.
    def run(delegate):
        o = RandomOracle(1)
        server = HonestServer(o, seed=2)
        cfg = PipelineConfig(L=4, N=2, **SMALL_PIPELINE)
        if delegate:
            tr = succ_ubqc(o, cfg, [2, 5, 1], server, random.Random(3))[2]
        else:
            tr = gdgprep_full(o, cfg, server, random.Random(3))[1]
        assert tr.passed
        return hashes.n, o.counters

    assert run(False) == (151, {"client": 152, "server": 164})
    hashes.n = 0
    assert run(True) == (182, {"client": 184, "server": 236})


def test_lt_rows_are_shuffled_but_ordered_mode_keeps_first():
    o = RandomOracle(5)
    mapping = [(format(i, "04b"), "1") for i in range(16)]
    orders = set()
    for seed in range(5):
        t = tables.lt_build(o, mapping, 4, random.Random(seed))
        orders.add(tuple(r.tag for r in t.rows))
    assert len(orders) > 1


def test_coherent_eval_matches_classical_decrypt():
    o = RandomOracle(6)
    rng = random.Random(6)
    pair = KeyPair("0011", "1100")
    t = tables.lt_build(o, [(pair.x0, "101"), (pair.x1, "010")], 8, rng)
    st = SparseState()
    st.add_gadget("k", pair.x0, pair.x1)
    st.add_register("out", "000")
    tables.lt_eval_coherent(o, st, ["k"], "out", t)
    vals = {k[0]: k[1] for k in expand(st)}
    assert vals == {"0011": "101", "1100": "010"}


def test_coherent_eval_raises_on_unopenable_branch():
    o = RandomOracle(7)
    rng = random.Random(7)
    t = tables.lt_build(o, [("00", "1")], 8, rng)
    st = SparseState()
    st.add_gadget("k", "00", "11")
    st.add_register("out", "0")
    with pytest.raises(tables.UndecryptableBranch):
        tables.lt_eval_coherent(o, st, ["k"], "out", t)


def test_coherent_eval_charges_queries_to_the_evaluator():
    o = RandomOracle(8)
    rng = random.Random(8)
    t = tables.lt_build(o, [("0", "1"), ("1", "0")], 4, rng)
    st = SparseState()
    st.add_gadget("k", "0", "1")
    st.add_register("out", "0")
    before = o.counters.get("server", 0)
    tables.lt_eval_coherent(o, st, ["k"], "out", t)
    assert o.counters["server"] - before == 2 * len(t.rows)


def test_reversible_table_recodes_gadget_exactly():
    o = RandomOracle(9)
    rng = random.Random(9)
    xin = sample_key_pair(rng, 4)
    yout = sample_key_pair(rng, 6)
    t = tables.revlt_build(o, [xin], [yout], 8, rng)
    st = SparseState()
    st.add_gadget("x", xin.x0, xin.x1)
    tables.rev_eval(o, st, [], ["x"], t, "y")
    expect = gadget_state([("y", yout.x0, yout.x1)])
    assert st.fidelity(expect) > 1 - 1e-9


def test_reversible_table_multi_pair():
    o = RandomOracle(10)
    rng = random.Random(10)
    ins = [sample_key_pair(rng, 3), sample_key_pair(rng, 3)]
    outs = [sample_key_pair(rng, 5), sample_key_pair(rng, 5)]
    t = tables.revlt_build(o, ins, outs, 8, rng)
    assert len(t.forward.rows) == 4 and len(t.backward.rows) == 4
    st = gadget_state([("a", ins[0].x0, ins[0].x1),
                       ("b", ins[1].x0, ins[1].x1)])
    tables.rev_eval(o, st, [], ["a", "b"], t, "y")
    # output register holds y_b1 || y_b2 jointly over the four branches
    vals = {k[0] for k in expand(st)}
    assert vals == {outs[0][b1] + outs[1][b2]
                    for b1 in (0, 1) for b2 in (0, 1)}


def test_robust_table_branching_structure():
    o = RandomOracle(11)
    rng = random.Random(11)
    kh = sample_key_pair(rng, 4)
    k2 = sample_key_pair(rng, 4)
    k3 = sample_key_pair(rng, 4)
    y2 = sample_key_pair(rng, 5)
    y3 = sample_key_pair(rng, 5)
    perm = list(range(10))
    rng.shuffle(perm)
    t = tables.robust_rlt_build(o, kh, k2, k3, y2, y3, perm, 8, rng)
    # a plain reversible table: the output permutation stays with the client
    assert isinstance(t, tables.ReversibleTable)
    assert len(t.forward.rows) == 8 and len(t.backward.rows) == 8
    for b1 in (0, 1):
        for b2 in (0, 1):
            for b3 in (0, 1):
                key = kh[b1] + k2[b2] + k3[b3]
                want = apply_perm(y2[b2] + y3[b3 ^ (b1 & b2)], perm)
                assert tables.lt_decrypt(o, t.forward)(key) == want
                assert tables.lt_decrypt(o, t.backward)(
                    kh[b1] + want) == k2[b2] + k3[b3]


@pytest.mark.parametrize("width", [9, 11])
def test_robust_table_refuses_a_wrong_permutation_before_any_draw(width):
    # the first row's output permutation raises: no pad drawn, no charge
    o = RandomOracle(12)
    rng = random.Random(12)
    kh, k2, k3, y2, y3 = (sample_key_pair(rng, 5) for _ in range(5))
    draws = rng.getstate()
    with pytest.raises(ValueError, match="permutation"):
        tables.robust_rlt_build(o, kh, k2, k3, y2, y3, list(range(width)),
                                8, rng)
    assert (rng.getstate(), o.counters) == (draws, {})


def test_another_instance_with_no_owners_opens_the_same_rows(hashes):
    # an instance with the builder's seed has recorded no owner, so it hashes
    # every tag it tries; it opens the rows, and charges the queries, that
    # the builder's instance does from its owner index
    o = RandomOracle(12)
    rng = random.Random(12)
    kh, k2, k3 = (sample_key_pair(rng, 4) for _ in range(3))
    y2, y3 = sample_key_pair(rng, 5), sample_key_pair(rng, 5)
    perm = list(range(10))
    rng.shuffle(perm)
    t = tables.robust_rlt_build(o, kh, k2, k3, y2, y3, perm, 8, rng)
    fwd = [kh[b1] + k2[b2] + k3[b3]
           for b1 in (0, 1) for b2 in (0, 1) for b3 in (0, 1)]
    bwd = [key[:4] + tables.lt_decrypt(o, t.forward)(key) for key in fwd]
    wrong = [key[:-1] + str(1 - int(key[-1])) for key in fwd + bwd]

    def decrypt_all(oracle):
        hashed = hashes.n
        opened = [(tables.lt_decrypt(oracle, table, "server")(key),
                   [tables.dec_row(oracle, row, key, "server")
                    for row in table.rows])
                  for table in (t.forward, t.backward)
                  for key in fwd + bwd + wrong]
        return opened, oracle.counters["server"], hashes.n - hashed

    other = RandomOracle(12)
    assert other._owners == {}
    got, charged, hashed = decrypt_all(o)
    assert sum(p is not None for p, _ in got) == 16
    # the builder's instance hashed every tag and mask when it built t
    assert hashed == 0
    other_got, other_charged, other_hashed = decrypt_all(other)
    assert (other_got, other_charged) == (got, charged)
    assert other_hashed > 0


def test_rev_eval_leaves_control_register_in_place():
    o = RandomOracle(12)
    rng = random.Random(12)
    kh = sample_key_pair(rng, 4)
    k2 = sample_key_pair(rng, 4)
    k3 = sample_key_pair(rng, 4)
    y2 = sample_key_pair(rng, 6)
    y3 = sample_key_pair(rng, 6)
    perm = list(range(12))
    rng.shuffle(perm)
    t = tables.robust_rlt_build(o, kh, k2, k3, y2, y3, perm, 8, rng)
    st = gadget_state([("h", kh.x0, kh.x1), ("a", k2.x0, k2.x1),
                       ("b", k3.x0, k3.x1)])
    tables.rev_eval(o, st, ["h"], ["a", "b"], t, "out")
    names = [n for n, _ in st.registers]
    assert names == ["h", "out"]
    assert abs(norm(st) - 1) < 1e-9
    # one branch per (b1, b2, b3): the helper value keys its output value
    want = {(kh[b1], apply_perm(y2[b2] + y3[b3 ^ (b1 & b2)], perm))
            for b1 in (0, 1) for b2 in (0, 1) for b3 in (0, 1)}
    assert set(expand(st)) == want


def test_phase_table_payload_width_and_offset_range():
    o = RandomOracle(13)
    for seed in range(20):
        rng = random.Random(seed)
        pair = sample_key_pair(rng, 4)
        pt = tables.phase_lt_build(o, pair, 3, 8, rng)
        assert pt.payload_len == (2 * 4 - 1).bit_length()
        vals = sorted(int(tables.lt_decrypt(o, pt)(pair[b]), 2)
                      for b in (0, 1))
        m = vals[0]
        assert 0 <= m < 4
        assert vals[1] == m + 3  # no modular reduction


def test_phase_eval_applies_relative_phase():
    o = RandomOracle(14)
    rng = random.Random(14)
    pair = sample_key_pair(rng, 4)
    for n in range(8):
        st = SparseState()
        st.add_gadget("k", pair.x0, pair.x1)
        pt = tables.phase_lt_build(o, pair, n, 8, rng)
        tables.phase_eval(o, st, "k", pt)
        amps = {k[0]: v for k, v in expand(st).items()}
        rel = amps[pair.x1] / amps[pair.x0]
        assert abs(rel - cmath.exp(1j * math.pi * n / 4)) < 1e-9


def test_ordered_phase_table_puts_x0_row_first():
    o = RandomOracle(15)
    for seed in range(10):
        rng = random.Random(seed)
        pair = sample_key_pair(rng, 4)
        pt = tables.phase_lt_build(o, pair, 1, 8, rng)
        row0 = pt.rows[0]
        assert tables.dec_row(o, row0, pair.x0) is not None


def test_serialize_table_is_line_stable():
    o = RandomOracle(16)
    t = tables.lt_build(o, [("0", "1"), ("1", "0")], 4, random.Random(0))
    s1 = tables.serialize_table(t)
    s2 = tables.serialize_table(t)
    assert s1 == s2
    assert s1.splitlines()[0].startswith("rows=2")
