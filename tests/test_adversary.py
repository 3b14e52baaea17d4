"""Adversary behaviors, the estimator, and the free-lunch attack."""

import pytest

from bqcsim import adversary
from bqcsim.adversary import (HonestServer, MeasureThenRandomD,
                              RandomGuessBasisTest, TrialStats, estimate,
                              free_lunch_attack, free_lunch_rate,
                              run_with_adversary)
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


def test_free_lunch_attempts_per_trial_are_geometric(monkeypatch):
    # each attempt lands the measured helper on the branching outcome with
    # p = 1/2, so oracles per trial are geometric: mean 2, sd sqrt(2); the
    # bounds are 5 sd of the mean over 400 trials
    built = []
    real = adversary.RandomOracle

    def counting_oracle(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(adversary, "RandomOracle", counting_oracle)
    p = ProtocolParams(pad_len=4, kappa_out=4)
    for s in range(400):
        free_lunch_attack(s, "unpermuted", p)
    assert 1.65 <= len(built) / 400 <= 2.35


def test_free_lunch_permuted_rarely_wins_at_large_kappa():
    p = ProtocolParams(pad_len=8, kappa_out=20)
    st = free_lunch_rate("permuted", p, 60)
    assert st.p_hat <= 0.05


def test_free_lunch_permuted_small_kappa_intermediate():
    p = ProtocolParams(pad_len=8, kappa_out=2)
    st = free_lunch_rate("permuted", p, 60)
    assert 0.05 < st.p_hat < 1.0
