"""Interactive sub-protocols with the honest server."""

import random

import pytest

from bqcsim.bits import dot
from bqcsim.keychain import sample_key_pair
from bqcsim.oracle import RandomOracle
from bqcsim.protocols import (HonestServer, ProtocolParams, Rejected,
                              Transcript, basis_test_multi, combine,
                              pad_hadamard)
from bqcsim.state import gadget_state
from conftest import run_alone


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


def test_transcript_run_sets_the_verdict_and_files_each_report_once():
    def stage(fault, tr):
        tr.send("server", "y", "0")
        with tr.rejecting("outer", failed="outer report"):
            with tr.rejecting("inner", failed="inner report"):
                if fault:
                    raise fault
        return "out"

    tr = Transcript()
    assert tr.run(stage, None) == "out"
    assert (tr.verdict, tr.fail_reason, tr.reports) == ("pass", None, [])
    with pytest.raises(RuntimeError):
        tr.finish(False)

    tr = Transcript()
    assert tr.run(stage, Rejected("wrong r")) is None
    assert tr.messages == [("server", "y", "0")]
    assert (tr.verdict, tr.fail_reason) == ("fail", "outer: inner: wrong r")
    assert tr.reports == ["inner report", "outer report"]
    with pytest.raises(RuntimeError):
        tr.finish(True)

    # only a rejection becomes the verdict; any other error propagates
    tr = Transcript()
    with pytest.raises(ValueError):
        tr.run(stage, ValueError("bug"))
    assert (tr.verdict, tr.reports) == (None, [])
    assert not issubclass(Rejected, ValueError)


def test_pad_hadamard_honest_passes():
    for seed in range(30):
        o, srv, rng, params, pair, reg = setup(seed)
        _, tr = run_alone(pad_hadamard, o, pair, reg, params, srv, rng)
        assert tr.passed, tr.fail_reason


def test_pad_hadamard_d_satisfies_parity_relation():
    o, srv, rng, params, pair, reg = setup(99)
    _, tr = run_alone(pad_hadamard, o, pair, reg, params, srv, rng)
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
    _, tr = run_alone(pad_hadamard, o, pair, reg, params, srv, rng)
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
    _, tr = run_alone(pad_hadamard, o, pair, reg, params, srv, rng)
    assert not tr.passed and tr.fail_reason == "all-zero tail"


def test_basis_test_honest_and_non_collapsing():
    for seed in range(20):
        o, srv, rng, params, pair, reg = setup(seed)
        expect = gadget_state([(reg, pair.x0, pair.x1)])
        _, tr = run_alone(basis_test_multi, o, pair, reg, 3, params, srv, rng)
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
    _, tr = run_alone(basis_test_multi, o, pair, reg, 1, params, srv, rng)
    assert (tr.verdict, tr.fail_reason) == ("fail", "round 0: wrong r")


def test_basis_test_sends_table_then_r_each_round_and_stops_at_a_fault():
    class WrongInRoundTwo(HonestServer):
        answers = 0

        def respond_basis_test(self, reg, table):
            self.answers += 1
            if self.answers < 3:
                return super().respond_basis_test(reg, table)
            return "0" * table.payload_len

    o, _, rng, params, pair, _ = setup(8)
    srv = WrongInRoundTwo(o, seed=9)
    reg = srv.prepare_gadget("g", pair)
    _, tr = run_alone(basis_test_multi, o, pair, reg, 5, params, srv, rng)
    assert (tr.verdict, tr.fail_reason) == ("fail", "round 2: wrong r")
    assert [(s, t) for s, t, _ in tr.messages] == [
        ("client", "bt.table"), ("server", "bt.r")] * 3


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
    _, tr = run_alone(basis_test_multi, o, pair, reg, 1, params, srv, rng)
    assert (tr.verdict, tr.fail_reason) == ("fail", "round 0: malformed r")


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
    for p, r, rounds in ((p3, r3, 2), (p1, r1, 1)):
        assert run_alone(basis_test_multi, o, p, r, rounds, params, srv,
                         rng)[1].passed
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
        (new, out_reg), tr = run_alone(combine, o, pa, pb, ra, rb, params,
                                       srv, rng)
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
    out, tr = run_alone(combine, o, pa, pb, ra, rb, params, srv, rng)
    assert out is None
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
        _, tr = run_alone(combine, o, pa, pb, ra, rb, params, srv, rng)
        outcomes.append(int(tr.messages[-1][2]))
    ones = sum(outcomes)
    assert 70 < ones < 130  # ~Bin(200, 1/2)


def test_seed_replay_identical_transcripts():
    def run():
        o, srv, rng, params, pair, reg = setup(42)
        return run_alone(pad_hadamard, o, pair, reg, params, srv,
                         rng)[1].serialize()

    assert run() == run()
