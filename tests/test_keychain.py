"""Key pair sampling and combination."""

import random

import pytest

from bqcsim.keychain import KeyPair, combine_keys, sample_key_pair


def test_pair_invariants():
    p = KeyPair("0101", "1010")
    assert p.width == 4
    assert p[0] == "0101" and p[1] == "1010"
    assert p.delta() == "1111"
    with pytest.raises(ValueError):
        KeyPair("01", "01")
    with pytest.raises(ValueError):
        KeyPair("01", "010")


def test_sampling_distinct_keys():
    rng = random.Random(1)
    for _ in range(200):
        p = sample_key_pair(rng, 1)
        assert {p.x0, p.x1} == {"0", "1"}


def test_combine_outcome_zero_pairs_same_subscripts():
    a = KeyPair("00", "11")
    b = KeyPair("01", "10")
    c = combine_keys(a, b, 0, ("", ""))
    assert (c.x0, c.x1) == ("0001", "1110")


def test_combine_outcome_one_pairs_opposite_subscripts():
    a = KeyPair("00", "11")
    b = KeyPair("01", "10")
    c = combine_keys(a, b, 1, ("", ""))
    assert (c.x0, c.x1) == ("0010", "1101")


def test_combine_prefixes_pads_per_subscript():
    a = KeyPair("0", "1")
    b = KeyPair("0", "1")
    c = combine_keys(a, b, 0, pads=("111", "000"))
    assert (c.x0, c.x1) == ("11100", "00011")
