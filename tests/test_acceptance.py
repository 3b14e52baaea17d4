"""Acceptance gate: exact honest correctness plus the quantitative
toy-scale predictions (test bounds, attack dichotomy, blind delegation).
"""

import math
import random
import time

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from bqcsim import gadget_prep as gp
from bqcsim import qfactory as qf
from bqcsim.adversary import (MeasureThenRandomD, estimate, free_lunch_rate)
from bqcsim.bits import dot
from bqcsim.keychain import sample_key_pair
from bqcsim.oracle import RandomOracle
from bqcsim.protocols import (HonestServer, ProtocolParams, basis_test_multi,
                              combine, pad_hadamard)
from bqcsim.state import SparseState, gadget_state
from conftest import fidelity_vs_angle

EXACT = 1 - 1e-9


def fresh(seed, **kw):
    o = RandomOracle(seed)
    srv = HonestServer(o, seed=seed + 1)
    rng = random.Random(seed ^ 0xACCE)
    params = ProtocolParams(**{"pad_len": 5, "kappa_out": 8,
                               "test_rounds": 1, **kw})
    return o, srv, rng, params


def gadgets(srv, rng, count, width=5, prefix="g"):
    return gp.send_gadgets(srv, rng, count, width, prefix)


def exact(srv, out):
    st = SparseState()
    for pair, reg in out:
        st.add_gadget(reg, pair.x0, pair.x1)
    return srv.state.fidelity(st) >= EXACT


# -- criterion: honest correctness, exact, every protocol ------------------


def test_honest_exact_all_protocols():
    for seed in (1, 2):  # 2 -> 2: the shared-helper step with one input
        o, srv, rng, params = fresh(seed)
        h, g = gadgets(srv, rng, 2)
        out, tr, _ = gp.gdgprep_1pn(o, h, [g], params, srv, rng)
        assert tr.passed and len(out) == 2 and exact(srv, out)

    o, srv, rng, params = fresh(3)
    h, *gs = gadgets(srv, rng, 4)
    out, tr, _ = gp.gdgprep_1pn(o, h, gs, params, srv, rng)
    assert tr.passed and len(out) == 6 and exact(srv, out)

    o, srv, rng, params = fresh(4)
    h1, h2, s = gadgets(srv, rng, 3)
    out, tr, _ = gp.gdgprep_logk(o, [h1, h2], s, params, srv, rng)
    assert tr.passed and len(out) == 4 and exact(srv, out)

    o, srv, rng, params = fresh(5)
    blocks = []
    for m in range(2):
        hb = gadgets(srv, rng, 1, prefix=f"h{m}")
        sb, = gadgets(srv, rng, 1, prefix=f"s{m}")
        blocks.append((hb, sb))
    out, tr, _ = gp.gdgprep_repeat(o, blocks, params, srv, rng)
    assert tr.passed and exact(srv, out)

    o, srv, rng, params = fresh(6)
    gs = gadgets(srv, rng, 2)
    lams = gadgets(srv, rng, 2, prefix="lam")
    out, tr, _ = gp.security_refreshing(o, gs, lams, params, srv, rng)
    assert tr.passed and exact(srv, out)

    o, srv, rng, params = fresh(7)
    blocks = []
    for m in range(2):
        hb = gadgets(srv, rng, 1, prefix=f"h{m}")
        sb, = gadgets(srv, rng, 1, prefix=f"s{m}")
        blocks.append((hb, sb))
    lams = gadgets(srv, rng, 1, prefix="lam")
    out, tr, _ = gp.gdgprep_oneround(o, blocks, lams, params, srv, rng)
    assert tr.passed and exact(srv, out)

    # simple drivers on kappa_out up to 24 and key widths 4..8
    for seed, width, kout in ((8, 4, 8), (9, 8, 24)):
        o, srv, rng, params = fresh(seed, kappa_out=kout)
        p = sample_key_pair(rng, width)
        reg = srv.prepare_gadget("g", p)
        assert basis_test_multi(o, p, reg, 2, params, srv, rng).passed
        assert srv.state.fidelity(
            gadget_state([(reg, p.x0, p.x1)])) >= EXACT
        assert pad_hadamard(o, p, reg, params, srv, rng).passed


def test_honest_exact_full_pipeline_and_speed():
    t0 = time.perf_counter()
    o = RandomOracle(77)
    srv = HonestServer(o, seed=78)
    cfg = gp.PipelineConfig(L=8, N=2, key_width=4, kappa_out=8, pad_base=4,
                            J=1)
    out, tr, _ = gp.gdgprep_full(o, cfg, srv, random.Random(5))
    elapsed = time.perf_counter() - t0
    assert tr.passed and len(out) == 8
    assert exact(srv, out)
    assert elapsed < 10.0


def test_honest_exact_qfac8():
    o, srv, rng, params = fresh(10, kappa_out=12)
    p = sample_key_pair(rng, 6)
    reg = srv.prepare_gadget("g", p)
    qb, tr = qf.qfac8(o, (p, reg), params, srv, rng)
    assert tr.passed and fidelity_vs_angle(qb) >= EXACT


# -- criterion: honest completeness ----------------------------------------


def test_honest_abort_rate_matches_the_closed_form():
    # every padded Hadamard test rejects an honest all-zero tail with
    # probability 2**-kappa_out, and a pipeline runs (L - N) + 2*T*J of
    # them: 10 here, so P(abort) = 1 - (15/16)**10 = 0.4755. Parameters,
    # seeds and alpha = 1e-3 were fixed before the first run
    cfg = gp.PipelineConfig(L=8, N=2, J=1, kappa_out=4)
    runs = 300
    tests = (cfg.L - cfg.N) + 2 * cfg.rounds() * cfg.J
    p_abort = 1 - (1 - 2.0 ** -cfg.kappa_out) ** tests
    aborts = 0
    for seed in range(50_000, 50_000 + runs):
        o = RandomOracle(seed)
        srv = HonestServer(o, seed=seed + 1)
        tr = gp.gdgprep_full(o, cfg, srv, random.Random(seed ^ 0xACCE))[1]
        if not tr.passed:
            aborts += 1
            assert tr.fail_reason.endswith("all-zero tail")
    lo, hi = binom.interval(1 - 1e-3, runs, p_abort)
    assert lo <= aborts <= hi, (aborts, runs * p_abort)


# -- criterion: gadget arithmetic ------------------------------------------


def test_gadget_arithmetic_ratios():
    # 1+n -> 2n
    for n in (1, 2, 3):
        o, srv, rng, params = fresh(20 + n)
        h, = gadgets(srv, rng, 1, prefix="h")
        gs = gadgets(srv, rng, n)
        out, tr, reps = gp.gdgprep_1pn(o, h, gs, params, srv, rng)
        r = reps[-1]
        assert (r.gadgets_in, r.gadgets_out, r.helpers_consumed) == \
            (n + 1, 2 * n, 1)

    # R+1 -> 2^R
    for R in (1, 2):
        o, srv, rng, params = fresh(30 + R)
        hs = gadgets(srv, rng, R, prefix="h")
        s, = gadgets(srv, rng, 1)
        out, tr, reps = gp.gdgprep_logk(o, hs, s, params, srv, rng)
        r = reps[-1]
        assert (r.gadgets_in, r.gadgets_out) == (R + 1, 2 ** R)

    # M(R+1) -> M 2^R
    for M, R in ((2, 1), (3, 1), (2, 2)):
        o, srv, rng, params = fresh(40 + 10 * M + R)
        blocks = []
        for m in range(M):
            hb = gadgets(srv, rng, R, prefix=f"h{m}")
            sb, = gadgets(srv, rng, 1, prefix=f"s{m}")
            blocks.append((hb, sb))
        out, tr, reps = gp.gdgprep_repeat(o, blocks, params, srv, rng)
        r = reps[-1]
        assert (r.gadgets_in, r.gadgets_out) == (M * (R + 1), M * 2 ** R)

    # N+J -> N (kappa_out raised so the honest 2^-kappa_out rejection of a
    # refresh gadget's Hadamard test is negligible across the loop)
    for N, J in ((2, 1), (2, 2), (3, 1)):
        o, srv, rng, params = fresh(60 + 10 * N + J, kappa_out=16)
        gs = gadgets(srv, rng, N)
        lams = gadgets(srv, rng, J, prefix="lam")
        out, tr, reps = gp.security_refreshing(o, gs, lams, params, srv, rng)
        r = reps[-1]
        assert (r.gadgets_in, r.gadgets_out) == (N + J, N)


# -- criterion: padded Hadamard test bounds --------------------------------


def test_pad_hadamard_honest_rate_matches_analytic():
    kout = 16
    trials = 10000
    params = ProtocolParams(pad_len=6, kappa_out=kout, test_rounds=1)
    st = estimate(HonestServer, "pad_hadamard", params, trials,
                  experiment="honest_ph")
    p_exp = 1 - 2.0 ** -kout  # only the all-zero tail is rejected
    sigma = math.sqrt(p_exp * (1 - p_exp) / trials)
    assert abs(st.p_hat - p_exp) <= 3 * sigma + 1e-12


def test_pad_hadamard_cheater_rate_half():
    params = ProtocolParams(pad_len=6, kappa_out=16, test_rounds=1)
    st = estimate(MeasureThenRandomD, "pad_hadamard", params, 10000,
                  experiment="cheat_ph")
    assert 0.48 <= st.p_hat <= 0.52


# -- criterion: free-lunch attack dichotomy --------------------------------


def test_free_lunch_dichotomy_and_monotonicity():
    params20 = ProtocolParams(pad_len=8, kappa_out=20)
    st_un = free_lunch_rate("unpermuted", params20, 200)
    assert st_un.successes == 200 and st_un.p_hat == 1.0

    st_perm = free_lunch_rate("permuted", params20, 200)
    assert st_perm.p_hat <= 0.02

    rates = []
    for kout in (2, 8, 20):
        p = ProtocolParams(pad_len=8, kappa_out=kout)
        rates.append(free_lunch_rate("permuted", p, 200).p_hat)
    assert rates[0] > rates[2]
    assert rates[0] >= rates[1] >= rates[2]
    # the small-kappa rate sits strictly between the two regimes
    assert 0.02 < rates[0] < 1.0


# -- criterion: qfac8 correctness and theta1 uniformity --------------------


def test_qfac8_500_runs_exact():
    rng = random.Random(0)
    for seed in range(500):
        o = RandomOracle(seed)
        srv = HonestServer(o, seed=seed + 1)
        params = ProtocolParams(pad_len=5, kappa_out=8, test_rounds=1)
        p = sample_key_pair(rng, 5)
        reg = srv.prepare_gadget("g", p)
        qb, tr = qf.qfac8(o, (p, reg), params, srv, rng)
        assert tr.passed
        assert fidelity_vs_angle(qb) >= EXACT
        # theta1 is exactly the parity the protocol defines
        d = [m for m in tr.messages if m[1] == "qf.d"][-1][2]
        assert qb.angle >> 2 == dot(d, p.delta())


def test_qfac8_theta1_uniform():
    rng = random.Random(1)
    total = 0
    trials = 2000
    for seed in range(trials):
        o = RandomOracle(10_000 + seed)
        srv = HonestServer(o, seed=seed)
        params = ProtocolParams(pad_len=5, kappa_out=8, test_rounds=1)
        p = sample_key_pair(rng, 5)
        reg = srv.prepare_gadget("g", p)
        qb, tr = qf.qfac8(o, (p, reg), params, srv, rng)
        total += qb.angle >> 2
    assert abs(total / trials - 0.5) <= 0.03


# -- criterion: end-to-end blind delegation --------------------------------


def test_ubqc_matches_dense_oracle_and_blind_deltas():
    rng = random.Random(99)
    shots = 10000
    all_deltas = []
    for trial in range(20):
        n = rng.randrange(1, 4)
        circ = [rng.randrange(8) for _ in range(n)]
        o = RandomOracle(5000 + trial)
        srv = HonestServer(o, seed=trial)
        cfg = gp.PipelineConfig(L=4, N=2, key_width=4, kappa_out=8,
                                pad_base=4, J=1)
        ones, deltas, tr = qf.succ_ubqc(o, cfg, circ, srv, rng, shots=shots)
        assert tr.passed
        tv = abs(ones / shots - qf.dense_output_prob(circ))
        assert tv <= 0.05, (circ, tv)
        all_deltas.append(deltas)
    counts = np.bincount(np.concatenate(all_deltas), minlength=8)
    assert chisquare(counts).pvalue > 0.01


# -- criterion: property suites --------------------------------------------
# The hypothesis suites in test_properties.py cover normalization,
# non-collapsing basis tests, encryption round-trips, the Hadamard parity
# constraint, and transcript replay; this check pins the 500-instance
# round-trip count explicitly.


def test_enc_roundtrip_500_instances():
    rng = random.Random(123)
    from bqcsim import tables

    for i in range(500):
        o = RandomOracle(i)
        key = "".join(rng.choice("01") for _ in range(rng.randrange(1, 12)))
        payload = "".join(rng.choice("01")
                          for _ in range(rng.randrange(1, 24)))
        row = tables.enc(o, key, payload, 6, 12, rng)
        assert tables.dec_row(o, row, key) == payload
