"""Interactive sub-protocols with the honest server."""

import random

import pytest

from bqcsim.bits import dot
from bqcsim.keychain import sample_key_pair
from bqcsim.oracle import RandomOracle
from bqcsim.protocols import (HonestServer, ProtocolParams, Transcript,
                              basis_test_multi, basis_test_single,
                              combine, pad_hadamard)
from bqcsim.state import gadget_state


def setup(seed, width=6, **kw):
    o = RandomOracle(seed)
    srv = HonestServer(o, seed=seed + 1)
    rng = random.Random(seed ^ 0xABCD)
    params = ProtocolParams(**{"pad_len": 6, "kappa_out": 8,
                               "test_rounds": 2, **kw})
    pair = sample_key_pair(rng, width)
    reg = srv.prepare_gadget("g", pair)
    return o, srv, rng, params, pair, reg


def test_transcript_single_verdict():
    tr = Transcript()
    tr.send("client", "x", "1")
    tr.finish(True)
    assert tr.passed
    with pytest.raises(RuntimeError):
        tr.finish(False)
    assert tr.serialize().endswith("verdict\tpass\t\n")


def test_transcript_absorb_appends_and_prefixes_failures():
    def sub(ok):
        s = Transcript()
        s.send("server", "y", "0")
        s.finish(ok, None if ok else "wrong r")
        return s

    tr = Transcript()
    assert tr.absorb(sub(True), "ignored") and tr.verdict is None
    assert not tr.absorb(sub(False), "round 1")
    assert tr.messages == [("server", "y", "0")] * 2
    assert (tr.verdict, tr.fail_reason) == ("fail", "round 1: wrong r")
    bare = Transcript()
    assert not bare.absorb(sub(False))
    assert bare.fail_reason == "wrong r"


def test_pad_hadamard_honest_passes():
    for seed in range(30):
        o, srv, rng, params, pair, reg = setup(seed)
        tr = pad_hadamard(o, pair, reg, params, srv, rng)
        assert tr.passed, tr.fail_reason


def test_pad_hadamard_d_satisfies_parity_relation():
    o, srv, rng, params, pair, reg = setup(99)
    tr = pad_hadamard(o, pair, reg, params, srv, rng)
    pad = tr.messages[0][2]
    d = tr.messages[1][2]
    h0 = o.query_classical(pad + pair.x0, params.kappa_out)
    h1 = o.query_classical(pad + pair.x1, params.kappa_out)
    assert dot(d, pair.x0 + h0) == dot(d, pair.x1 + h1)


def test_pad_hadamard_rejects_malformed_d():
    class BadLength(HonestServer):
        def respond_pad_hadamard(self, reg, pad, kappa_out):
            super().respond_pad_hadamard(reg, pad, kappa_out)
            return "0"

    o = RandomOracle(1)
    srv = BadLength(o, seed=2)
    rng = random.Random(0)
    params = ProtocolParams(pad_len=6, kappa_out=8)
    pair = sample_key_pair(rng, 6)
    reg = srv.prepare_gadget("g", pair)
    tr = pad_hadamard(o, pair, reg, params, srv, rng)
    assert not tr.passed and tr.fail_reason == "malformed d"


def test_pad_hadamard_rejects_zero_tail():
    class ZeroTail(HonestServer):
        def respond_pad_hadamard(self, reg, pad, kappa_out):
            d = super().respond_pad_hadamard(reg, pad, kappa_out)
            return d[:-kappa_out] + "0" * kappa_out

    o = RandomOracle(2)
    srv = ZeroTail(o, seed=3)
    rng = random.Random(1)
    params = ProtocolParams(pad_len=6, kappa_out=8)
    pair = sample_key_pair(rng, 6)
    reg = srv.prepare_gadget("g", pair)
    tr = pad_hadamard(o, pair, reg, params, srv, rng)
    assert not tr.passed and tr.fail_reason == "all-zero tail"


def test_basis_test_honest_and_non_collapsing():
    for seed in range(20):
        o, srv, rng, params, pair, reg = setup(seed)
        expect = gadget_state([(reg, pair.x0, pair.x1)])
        tr = basis_test_multi(o, pair, reg, 3, params, srv, rng)
        assert tr.passed
        # the gadget survives the test unchanged
        assert srv.state.fidelity(expect) > 1 - 1e-9


def test_basis_test_catches_wrong_answer():
    class Guess(HonestServer):
        def respond_basis_test(self, reg, table):
            return "0" * table.payload_len

    o = RandomOracle(3)
    srv = Guess(o, seed=4)
    rng = random.Random(2)
    params = ProtocolParams(pad_len=6, kappa_out=8)
    pair = sample_key_pair(rng, 6)
    reg = srv.prepare_gadget("g", pair)
    tr = basis_test_single(o, pair, reg, params, srv, rng)
    assert not tr.passed


@pytest.mark.parametrize("answer", ["0" * 7, "0" * 9, "0120" * 2, None])
def test_basis_test_rejects_malformed_r(answer):
    class Malformed(HonestServer):
        def respond_basis_test(self, reg, table):
            return answer

    o = RandomOracle(3)
    srv = Malformed(o, seed=4)
    rng = random.Random(2)
    params = ProtocolParams(pad_len=6, kappa_out=8)
    pair = sample_key_pair(rng, 6)
    reg = srv.prepare_gadget("g", pair)
    tr = basis_test_single(o, pair, reg, params, srv, rng)
    assert (tr.verdict, tr.fail_reason) == ("fail", "malformed r")


def test_basis_test_two_runs_both_pairs():
    o = RandomOracle(5)
    srv = HonestServer(o, seed=6)
    rng = random.Random(5)
    params = ProtocolParams(pad_len=6, kappa_out=8)
    p1 = sample_key_pair(rng, 6)
    p3 = sample_key_pair(rng, 6)
    r1 = srv.prepare_gadget("a", p1)
    r3 = srv.prepare_gadget("b", p3)
    # the gdgprep_1pn order: the input for two rounds, then the helper once
    assert basis_test_multi(o, p3, r3, 2, params, srv, rng).passed
    assert basis_test_multi(o, p1, r1, 1, params, srv, rng).passed
    expect = gadget_state([("a", p1.x0, p1.x1), ("b", p3.x0, p3.x1)])
    assert srv.state.fidelity(expect) > 1 - 1e-9


def test_combine_produces_matching_gadget():
    for seed in range(30):
        o = RandomOracle(seed)
        srv = HonestServer(o, seed=seed + 7)
        rng = random.Random(seed)
        params = ProtocolParams(pad_len=5, kappa_out=8)
        pa = sample_key_pair(rng, 6)
        pb = sample_key_pair(rng, 6)
        ra = srv.prepare_gadget("a", pa)
        rb = srv.prepare_gadget("b", pb)
        new, tr, out_reg = combine(o, pa, pb, ra, rb, params, srv, rng)
        assert tr.passed
        assert new.width == params.pad_len + pa.width + pb.width
        expect = gadget_state([(out_reg, new.x0, new.x1)])
        assert srv.state.fidelity(expect) > 1 - 1e-9


@pytest.mark.parametrize("outcome", [True, 1.0, 0.0, "1", None, 2])
def test_combine_rejects_non_bit_outcome(outcome):
    class NonBit(HonestServer):
        def respond_combine(self, *args):
            super().respond_combine(*args)
            return outcome

    o = RandomOracle(6)
    srv = NonBit(o, seed=7)
    rng = random.Random(8)
    params = ProtocolParams(pad_len=5, kappa_out=8)
    pa = sample_key_pair(rng, 6)
    pb = sample_key_pair(rng, 6)
    ra = srv.prepare_gadget("a", pa)
    rb = srv.prepare_gadget("b", pb)
    new, tr, _ = combine(o, pa, pb, ra, rb, params, srv, rng)
    assert new is None
    assert (tr.verdict, tr.fail_reason) == ("fail", "non-bit response")


def test_combine_outcome_distribution():
    outcomes = []
    for seed in range(200):
        o = RandomOracle(seed)
        srv = HonestServer(o, seed=seed + 11)
        rng = random.Random(seed + 500)
        params = ProtocolParams(pad_len=4, kappa_out=8)
        pa = sample_key_pair(rng, 5)
        pb = sample_key_pair(rng, 5)
        ra = srv.prepare_gadget("a", pa)
        rb = srv.prepare_gadget("b", pb)
        _, tr, _ = combine(o, pa, pb, ra, rb, params, srv, rng)
        outcomes.append(int(tr.messages[-1][2]))
    ones = sum(outcomes)
    assert 70 < ones < 130  # ~Bin(200, 1/2)


def test_seed_replay_identical_transcripts():
    def run():
        o, srv, rng, params, pair, reg = setup(42)
        return pad_hadamard(o, pair, reg, params, srv, rng).serialize()

    assert run() == run()
