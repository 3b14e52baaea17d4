"""Gadget-preparation stages: correctness and gadget arithmetic."""

import random

import pytest

from bqcsim import gadget_prep as gp
from bqcsim import tables
from bqcsim.bits import random_bits
from bqcsim.oracle import RandomOracle
from bqcsim.protocols import HonestServer, ProtocolParams
from bqcsim.state import SparseState
from conftest import SMALL_PIPELINE, run_alone


def setup(seed):
    o = RandomOracle(seed)
    srv = HonestServer(o, seed=seed + 1)
    rng = random.Random(seed ^ 0xFEED)
    params = ProtocolParams(pad_len=5, kappa_out=8, test_rounds=1)
    return o, srv, rng, params


def gadgets(srv, rng, count, width=5, prefix="g"):
    return gp.send_gadgets(srv, rng, count, width, prefix)


def expect_state(out):
    st = SparseState()
    for pair, reg in out:
        st.add_gadget(reg, pair.x0, pair.x1)
    return st


def assert_exact(srv, out):
    assert srv.state.fidelity(expect_state(out)) > 1 - 1e-9


def test_basic_two_to_two():
    # the paper's basic step is the shared-helper step with one input
    for seed in range(10):
        o, srv, rng, params = setup(seed)
        helper, g = gadgets(srv, rng, 2)
        out, tr = run_alone(gp.gdgprep_1pn, o, helper, [g], params, srv,
                            rng)
        assert tr.passed
        r = tr.reports[-1]
        assert (r.gadgets_in, r.gadgets_out) == (2, 2)
        assert all(p.width == params.kappa_out for p, _ in out)
        assert_exact(srv, out)


def test_1p1_includes_basis_tests():
    o, srv, rng, params = setup(77)
    helper, g = gadgets(srv, rng, 2)
    out, tr = run_alone(gp.gdgprep_1pn, o, helper, [g], params, srv, rng)
    assert tr.passed
    # test_rounds on the input, then one round on the helper
    tags = [t for _, t, _ in tr.messages]
    assert tags.count("bt.table") == params.test_rounds + 1
    assert tags.index("bt.table") < tags.index("gp.robust_fwd[0]")
    assert_exact(srv, out)


class SpyServer(HonestServer):
    """Honest server that records every branching table it evaluates."""

    def __init__(self, oracle, seed=0):
        super().__init__(oracle, seed)
        self.evaluated = []

    def eval_robust(self, help_reg, k2, x3_reg, table, out_reg):
        self.evaluated.append(table)
        return super().eval_robust(help_reg, k2, x3_reg, table, out_reg)


@pytest.mark.parametrize("n", [1, 3])
def test_1pn_transcript_carries_every_evaluated_table(n):
    o = RandomOracle(600 + n)
    srv = SpyServer(o, seed=601 + n)
    rng = random.Random(602 + n)
    params = ProtocolParams(pad_len=5, kappa_out=8, test_rounds=1)
    helper, = gadgets(srv, rng, 1, prefix="h")
    out, tr = run_alone(gp.gdgprep_1pn, o, helper, gadgets(srv, rng, n),
                        params, srv, rng)
    assert tr.passed and len(srv.evaluated) == n
    sent = [(t, p) for _, t, p in tr.messages if t.startswith("gp.robust_")]
    assert [t for t, _ in sent] == [f"gp.robust_{d}[{i}]" for i in range(n)
                                    for d in ("fwd", "bwd")]
    sent = dict(sent)
    for i, table in enumerate(srv.evaluated):
        # the server gets the two directions and nothing else (no perm)
        assert set(vars(table)) == {"forward", "backward"}
        assert sent[f"gp.robust_fwd[{i}]"] == tables.serialize_table(
            table.forward)
        assert sent[f"gp.robust_bwd[{i}]"] == tables.serialize_table(
            table.backward)
    assert_exact(srv, out)


class HelperGuessServer(HonestServer):
    """Answers basis tests honestly, except that it guesses r for the helper."""

    def respond_basis_test(self, reg, table):
        if reg == "h0":  # the helper register of these tests
            return random_bits(self.rng, table.payload_len)
        return super().respond_basis_test(reg, table)


@pytest.mark.parametrize("n", [1, 3])
def test_1pn_fails_closed_when_helper_basis_test_fails(n):
    o = RandomOracle(700 + n)
    srv = HelperGuessServer(o, seed=701 + n)
    rng = random.Random(702 + n)
    params = ProtocolParams(pad_len=5, kappa_out=8, test_rounds=2)
    helper, = gadgets(srv, rng, 1, prefix="h")
    out, tr = run_alone(gp.gdgprep_1pn, o, helper, gadgets(srv, rng, n),
                        params, srv, rng)
    assert out is None and not tr.passed
    assert tr.fail_reason == "1pn: basis test: round 0: wrong r"
    assert [(r.stage, r.gadgets_out, r.verdict) for r in tr.reports] == [
        ("1pn", 0, "fail")]
    tags = [t for _, t, _ in tr.messages]
    # the input's test_rounds passed, the helper's round failed, and no
    # table, key or permutation was sent after it
    assert tags == ["bt.table", "bt.r"] * (params.test_rounds + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_1pn_doubles_n_gadgets_with_one_helper(n):
    o, srv, rng, params = setup(100 + n)
    helper, = gadgets(srv, rng, 1, prefix="h")
    gs = gadgets(srv, rng, n)
    out, tr = run_alone(gp.gdgprep_1pn, o, helper, gs, params, srv, rng)
    assert tr.passed
    assert len(out) == 2 * n
    r = tr.reports[-1]
    assert (r.gadgets_in, r.gadgets_out, r.helpers_consumed) == (n + 1, 2 * n, 1)
    assert_exact(srv, out)


@pytest.mark.parametrize("r_rounds", [1, 2])
def test_logk_expansion_ratio(r_rounds):
    o, srv, rng, params = setup(200 + r_rounds)
    helpers = gadgets(srv, rng, r_rounds, prefix="h")
    seed_g, = gadgets(srv, rng, 1)
    out, tr = run_alone(gp.gdgprep_logk, o, helpers, seed_g, params, srv,
                        rng)
    assert tr.passed
    assert len(out) == 2 ** r_rounds
    r = tr.reports[-1]
    assert (r.gadgets_in, r.gadgets_out) == (r_rounds + 1, 2 ** r_rounds)
    assert_exact(srv, out)


def test_repeat_blocks_and_permutation():
    o, srv, rng, params = setup(300)
    m_blocks = 3
    blocks = []
    for m in range(m_blocks):
        h = gadgets(srv, rng, 1, prefix=f"h{m}")
        s, = gadgets(srv, rng, 1, prefix=f"s{m}")
        blocks.append((h, s))
    out, tr = run_alone(gp.gdgprep_repeat, o, blocks, params, srv, rng)
    assert tr.passed
    r = tr.reports[-1]
    assert (r.gadgets_in, r.gadgets_out) == (m_blocks * 2, m_blocks * 2)
    assert any(t == "gp.block_perm" for _, t, _ in tr.messages)
    assert_exact(srv, out)


@pytest.mark.parametrize("n,j", [(1, 1), (2, 1), (2, 2)])
def test_refresh_n_plus_j_to_n(n, j):
    o, srv, rng, params = setup(400 + 10 * n + j)
    gs = gadgets(srv, rng, n)
    lams = gadgets(srv, rng, j, prefix="lam")
    out, tr = run_alone(gp.security_refreshing, o, gs, lams, params, srv,
                        rng)
    assert tr.passed
    r = tr.reports[-1]
    assert (r.gadgets_in, r.gadgets_out, r.helpers_consumed) == (n + j, n, j)
    # each key is the published pad, the old key, then one kappa_out block
    # per refresh round
    pads = {t: p for _, t, p in tr.messages if t.startswith("sr.pad")}
    for i, ((old, _), (new, _)) in enumerate(zip(gs, out)):
        assert new.width == params.pad_len + old.width + j * params.kappa_out
        pad = pads[f"sr.pad[{i}]"]
        assert len(pad) == params.pad_len
        head = len(pad) + old.width
        assert (new.x0[:head], new.x1[:head]) == (pad + old.x0, pad + old.x1)
    assert_exact(srv, out)


def test_oneround_single_sweep():
    o, srv, rng, params = setup(500)
    blocks = []
    for m in range(2):
        h = gadgets(srv, rng, 1, prefix=f"h{m}")
        s, = gadgets(srv, rng, 1, prefix=f"s{m}")
        blocks.append((h, s))
    lams = gadgets(srv, rng, 1, prefix="lam")
    out, tr = run_alone(gp.gdgprep_oneround, o, blocks, lams, params, srv,
                        rng)
    assert tr.passed
    assert len(out) == 4
    assert_exact(srv, out)


def test_pipeline_config_rounds():
    for l, n, rounds in ((2, 2, 0), (4, 2, 1), (8, 2, 2), (4, 1, 2),
                         (1024, 2, 9), (2 ** 60, 2, 59), (2 ** 53, 1, 53)):
        assert gp.PipelineConfig(L=l, N=n).rounds() == rounds
    # a float log2 reads 2**60 + 2 over 2, and 2**53 + 1, as powers of two
    for l, n in ((6, 2), (2, 4), (2 ** 60 + 2, 2), (2 ** 53 + 1, 1)):
        with pytest.raises(ValueError):
            gp.PipelineConfig(L=l, N=n).rounds()


@pytest.mark.parametrize("n,l", [(2, 4), (2, 8), (1, 4)])
def test_full_pipeline_exact(n, l):
    o = RandomOracle(1000 + l * 10 + n)
    srv = HonestServer(o, seed=5)
    cfg = gp.PipelineConfig(L=l, N=n, J=1, **SMALL_PIPELINE)
    out, tr, reps = gp.gdgprep_full(o, cfg, srv, random.Random(n + l))
    assert tr.passed
    assert len(out) == l
    assert reps[-1].helpers_consumed == gp.expected_helper_count(cfg)
    assert_exact(srv, out)


def test_full_pipeline_single_quantum_message():
    # all server registers exist before the first classical round message
    o = RandomOracle(9)
    srv = HonestServer(o, seed=1)
    cfg = gp.PipelineConfig(L=4, N=2, J=1, **SMALL_PIPELINE)
    out, tr, reps = gp.gdgprep_full(o, cfg, srv, random.Random(3))
    init = [i for i, (_, t, _) in enumerate(tr.messages) if t == "gp.init"]
    assert init and init[0] == 0


class ZeroTailAt(HonestServer):
    """Honest, except that its k-th padded Hadamard answer (from 1) has an
    all-zero tail, which the client rejects."""

    def __init__(self, oracle, k, seed=0):
        super().__init__(oracle, seed)
        self.left = k

    def respond_pad_hadamard(self, reg, pad, kappa_out):
        d = super().respond_pad_hadamard(reg, pad, kappa_out)
        self.left -= 1
        return d[:-kappa_out] + "0" * kappa_out if self.left == 0 else d


@pytest.mark.parametrize("k, reason, last_reports", [
    # a round-1 helper: 1pn -> logk -> repeat -> oneround -> full
    (1, "1pn: pad hadamard", [("1pn", "fail")]),
    # oneround's refresh: refresh -> oneround -> full
    (3, "refresh: pad hadamard", [("repeat", "pass"), ("refresh", "fail")]),
    # the round's second refresh: refresh -> full
    (4, "refresh: pad hadamard", [("oneround", "pass"), ("refresh", "fail")]),
    # a round-2 helper, after a whole round passed
    (5, "1pn: pad hadamard", [("refresh", "pass"), ("1pn", "fail")]),
])
def test_full_pipeline_fails_closed_through_every_stage(k, reason,
                                                        last_reports):
    o = RandomOracle(1)
    srv = ZeroTailAt(o, k, seed=2)
    cfg = gp.PipelineConfig(L=8, N=2, **SMALL_PIPELINE)
    out, tr, reps = gp.gdgprep_full(o, cfg, srv, random.Random(3))
    assert out == []
    assert (tr.verdict, tr.fail_reason) == ("fail", f"{reason}: all-zero tail")
    assert [(r.stage, r.verdict) for r in reps[-2:]] == last_reports
    # the failed stage filed its report once; no stage above it filed one
    assert [r.verdict for r in reps].count("fail") == 1
    # the rejected answer is the last record: the client sent nothing after
    assert tr.messages[-1][:2] == ("server", "ph.d")
    assert sum(t == "ph.d" for _, t, _ in tr.messages) == k


def test_stage_report_line_format():
    r = gp.StageReport("basic", 2, 2, 1, "pass", 10)
    assert r.line() == "basic\t2\t2\t1\tpass\t10"


@pytest.mark.parametrize("l, n, j, kappa_out, seed", [
    (64, 2, 1, 16, 1), (64, 2, 1, 16, 2),
    (8, 1, 2, 16, 5),  # one seed gadget: the largest entangled component
], ids=["L64-seed1", "L64-seed2", "L8-N1-J2"])
def test_full_pipeline_exact_at_scale(monkeypatch, l, n, j, kappa_out, seed):
    # independent gadgets stay separate components, so the server state
    # grows with L instead of multiplying: no component ever holds more
    # than 8 branches
    largest = []

    def watch(method):
        def call(self, *args, **kwargs):
            try:
                return method(self, *args, **kwargs)
            finally:
                largest.append(max([c for _, c in self.components()] or [0]))
        return call

    for name, fn in list(vars(SparseState).items()):
        if callable(fn) and not name.startswith("_") and name != "components":
            monkeypatch.setattr(SparseState, name, watch(fn))
    o = RandomOracle(seed)
    srv = HonestServer(o, seed=seed)
    cfg = gp.PipelineConfig(L=l, N=n, J=j, key_width=4, kappa_out=kappa_out,
                            pad_base=4, test_rounds=1)
    out, tr, reps = gp.gdgprep_full(o, cfg, srv, random.Random(seed))
    assert tr.passed, tr.fail_reason
    assert len(out) == l
    assert reps[-1].helpers_consumed == gp.expected_helper_count(cfg)
    monkeypatch.undo()
    assert_exact(srv, out)
    assert 0 < max(largest) <= 8
