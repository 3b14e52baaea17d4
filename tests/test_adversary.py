"""Adversary behaviors, the estimator, and the free-lunch attack."""

import random
from collections import Counter

import pytest
from scipy.stats import chisquare

from bqcsim import adversary
from bqcsim.adversary import (HonestServer, MeasureThenRandomD,
                              RandomGuessBasisTest, TrialStats, estimate,
                              free_lunch_attack, free_lunch_rate,
                              run_with_adversary)
from bqcsim.oracle import RandomOracle
from bqcsim.protocols import ProtocolParams

PARAMS = ProtocolParams(pad_len=6, kappa_out=12, test_rounds=1)


def test_trial_stats_validation_and_wilson():
    with pytest.raises(ValueError):
        TrialStats("x", 5, 6)
    st = TrialStats("x", 100, 50)
    lo, hi = st.wilson()
    assert lo < 0.5 < hi
    assert 0.0 <= lo and hi <= 1.0
    assert st.line().startswith("x\t100\t50\t0.5")


def test_honest_server_passes_every_protocol():
    for proto in ("pad_hadamard", "basis_test", "combine"):
        verdict, _, _ = run_with_adversary(proto, HonestServer, PARAMS, 7)
        assert verdict == "pass", proto


def test_run_with_adversary_deterministic():
    a = run_with_adversary("pad_hadamard", MeasureThenRandomD, PARAMS, 3)
    b = run_with_adversary("pad_hadamard", MeasureThenRandomD, PARAMS, 3)
    assert a[0] == b[0]
    assert a[2].serialize() == b[2].serialize()


def test_run_with_adversary_unknown_protocol():
    with pytest.raises(ValueError):
        run_with_adversary("nope", HonestServer, PARAMS, 0)


def test_estimate_fresh_oracle_per_trial():
    # if the oracle were shared, every pad-hadamard d would repeat
    st = estimate(HonestServer, "pad_hadamard", PARAMS, 20)
    assert st.trials == 20 and st.successes == 20
    # the trials estimate ran, one seed each (seed0 + 1000 * t)
    seen = {run_with_adversary("pad_hadamard", HonestServer, PARAMS,
                               1000 * t)[1]["pair"].x0 for t in range(20)}
    assert len(seen) > 10


def test_hadamard_cheater_near_half():
    st = estimate(MeasureThenRandomD, "pad_hadamard", PARAMS, 1500,
                  experiment="cheat")
    assert 0.45 < st.p_hat < 0.55


def test_basis_cheater_near_zero():
    st = estimate(RandomGuessBasisTest, "basis_test", PARAMS, 300)
    assert st.p_hat < 0.05


def test_wilson_calibration_on_known_coin():
    # combine's outcome bit is a fair coin; the 95% interval should cover
    # 1/2 in the vast majority of repeated estimations
    covered = 0
    for rep in range(100):
        successes = 0
        trials = 60
        for t in range(trials):
            _, secrets, tr = run_with_adversary("combine", HonestServer,
                                                PARAMS, 10_000 + rep * 777 + t)
            outcome = int([m for m in tr.messages
                           if m[1] == "cb.outcome"][0][2])
            successes += outcome
        lo, hi = TrialStats("coin", trials, successes).wilson()
        if lo <= 0.5 <= hi:
            covered += 1
    assert covered >= 93


def test_free_lunch_unknown_variant():
    with pytest.raises(ValueError):
        free_lunch_attack(0, "sideways", PARAMS)


def test_free_lunch_unpermuted_always_wins():
    p = ProtocolParams(pad_len=8, kappa_out=12)
    assert all(free_lunch_attack(s, "unpermuted", p) for s in range(40))


def test_free_lunch_trial_is_one_instance(monkeypatch):
    # a trial conditions on the helper's CNOT branch by reading it, so it
    # builds one oracle and one table, whatever the variant and the seed
    built, tables_built = [], []
    real_oracle = adversary.RandomOracle
    real_build = adversary.tables.robust_rlt_build

    def counting_oracle(*args, **kwargs):
        built.append(args)
        return real_oracle(*args, **kwargs)

    def counting_build(*args, **kwargs):
        tables_built.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(adversary, "RandomOracle", counting_oracle)
    monkeypatch.setattr(adversary.tables, "robust_rlt_build", counting_build)
    p = ProtocolParams(pad_len=4, kappa_out=4)
    for variant in ("unpermuted", "permuted"):
        for s in range(200):
            built.clear()
            tables_built.clear()
            free_lunch_attack(s, variant, p)
            assert (len(built), len(tables_built)) == (1, 1), (variant, s)


@pytest.mark.parametrize("kout", [2, 3, 4, 20])
def test_free_lunch_trial_is_the_same_when_every_tag_is_hashed(monkeypatch,
                                                               kout):
    # recorded owners only spare hashes: with none, every row tag tried is
    # hashed, and each trial still has the same result and charges every
    # party the same queries
    p = ProtocolParams(pad_len=8, kappa_out=kout)
    built = []
    real_oracle = adversary.RandomOracle

    def recording_oracle(*args, **kwargs):
        built.append(real_oracle(*args, **kwargs))
        return built[-1]

    def trials():
        got = []
        for variant in ("unpermuted", "permuted"):
            for s in range(100):
                won = free_lunch_attack(s, variant, p)
                got.append((won, built.pop().counters))
        return got

    monkeypatch.setattr(adversary, "RandomOracle", recording_oracle)
    with_owners = trials()
    monkeypatch.setattr(RandomOracle, "_owner", lambda self, value, n: None)
    assert trials() == with_owners


def test_free_lunch_permuted_rarely_wins_at_large_kappa():
    p = ProtocolParams(pad_len=8, kappa_out=20)
    st = free_lunch_rate("permuted", p, 60)
    assert st.p_hat <= 0.05


def test_free_lunch_permuted_small_kappa_intermediate():
    p = ProtocolParams(pad_len=8, kappa_out=2)
    st = free_lunch_rate("permuted", p, 60)
    assert 0.05 < st.p_hat < 1.0


def test_guess_mask_is_a_uniform_k_subset():
    rng = random.Random(5)
    for width, k in ((40, 20), (8, 4), (2, 1), (6, 0), (6, 6)):
        for _ in range(200):
            mask = adversary._guess_mask(rng, width, k)
            assert 0 <= mask < 1 << width and mask.bit_count() == k
    # all 20 three-subsets of six positions equally likely; alpha = 1e-6
    rng = random.Random(6)
    counts = Counter(adversary._guess_mask(rng, 6, 3) for _ in range(40_000))
    assert len(counts) == 20
    assert chisquare(list(counts.values())).pvalue > 1e-6


def test_guess_masks_repeat_per_seed():
    def draws(seed):
        rng = random.Random(seed)
        return [adversary._guess_mask(rng, 40, 20) for _ in range(64)]
    assert draws(3) == draws(3)
    assert draws(3) != draws(4)
