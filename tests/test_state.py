"""Sparse state: branch bookkeeping, measurements, register plumbing."""

import math
import random

import numpy as np
import pytest

from bqcsim.bits import dot
from bqcsim.state import (ATOL, EntangledDiscardError, SparseState,
                          gadget_state)


def test_gadget_normalized_superposition():
    st = SparseState()
    st.add_gadget("g", "000", "111")
    assert abs(st.norm() - 1) < ATOL
    assert set(st.branches) == {("000",), ("111",)}
    for amp in st.branches.values():
        assert abs(amp - 1 / math.sqrt(2)) < ATOL


def test_gadget_rejects_equal_or_mismatched_keys():
    st = SparseState()
    with pytest.raises(ValueError):
        st.add_gadget("g", "01", "01")
    with pytest.raises(ValueError):
        st.add_gadget("g", "01", "011")


def test_tensor_of_two_gadgets_has_four_branches():
    st = gadget_state([("a", "00", "11"), ("b", "0", "1")])
    assert len(st.branches) == 4
    assert abs(st.norm() - 1) < ATOL


def test_measure_computational_collapses():
    rng = random.Random(0)
    st = SparseState()
    st.add_gadget("g", "0011", "1100")
    out = st.measure_computational("g", rng)
    assert out in {"0011", "1100"}
    assert set(st.branches) == {(out,)}
    assert abs(st.norm() - 1) < ATOL


def test_measure_computational_born_rule():
    counts = {"00": 0, "11": 0}
    for seed in range(400):
        st = SparseState()
        st.add_gadget("g", "00", "11")
        counts[st.measure_computational("g", random.Random(seed))] += 1
    assert 140 < counts["00"] < 260  # ~Bin(400, 1/2)


def test_hadamard_measure_respects_gadget_parity():
    # interference forbids any d with d.(x0 xor x1) = 1
    for seed in range(100):
        rng = random.Random(seed)
        st = SparseState()
        st.add_gadget("g", "010110", "101001")
        d = st.measure_hadamard("g", rng)
        assert len(d) == 6
        assert dot(d, "010110") == dot(d, "101001")
        assert st.registers == []


def test_hadamard_measure_outcomes_cover_allowed_set():
    seen = set()
    for seed in range(300):
        st = SparseState()
        st.add_gadget("g", "00", "11")
        seen.add(st.measure_hadamard("g", random.Random(seed)))
    assert seen == {"00", "11"}  # exactly the d with d.(11) = 0


def test_hadamard_measure_applies_residual_phase():
    # measuring one register of an entangled pair leaves (-1)^(d.s) behind
    rng = random.Random(5)
    st = SparseState()
    st.add_gadget("a", "0", "1")
    st.add_register("b", "0")
    st.map_register("b", lambda o, k: k, keys=["a"])  # copy: |00> + |11>
    d = st.measure_hadamard("a", rng)
    amps = {k[0]: v for k, v in st.branches.items()}
    expect = -1.0 if d == "1" else 1.0
    ratio = amps["1"] / amps["0"]
    assert abs(ratio - expect) < 1e-9


def test_split_merge_roundtrip():
    st = SparseState()
    st.add_gadget("g", "0101", "1010")
    before = dict(st.branches)
    st.split_register("g", [1, 3], ["hi", "lo"])
    assert st.width("hi") == 1 and st.width("lo") == 3
    st.merge_registers(["hi", "lo"], "g")
    assert st.branches == before


def test_discard_constant_register():
    st = SparseState()
    st.add_gadget("g", "01", "10")
    st.add_register("z", "000")
    st.discard_register("z")
    assert [n for n, _ in st.registers] == ["g"]
    assert abs(st.norm() - 1) < ATOL


def test_discard_entangled_register_refuses():
    st = SparseState()
    st.add_gadget("a", "0", "1")
    st.add_register("b", "0")
    st.map_register("b", lambda o, k: k, keys=["a"])
    with pytest.raises(EntangledDiscardError):
        st.discard_register("b")


def test_discard_product_register():
    # unentangled but not constant: a separate gadget factors out
    st = gadget_state([("a", "00", "11"), ("b", "0", "1")])
    st.discard_register("b")
    assert set(st.branches) == {("00",), ("11",)}
    assert abs(st.norm() - 1) < ATOL


def test_extract_qubit_amplitudes():
    st = SparseState()
    st.add_gadget("q", "0", "1")
    st.apply_phase_per_branch("q", lambda v: math.pi / 2 if v == "1" else 0.0)
    a, b = st.extract_qubit("q")
    assert abs(a - 1 / math.sqrt(2)) < 1e-9
    assert abs(b - 1j / math.sqrt(2)) < 1e-9


def test_fidelity_matches_by_name_not_order():
    st1 = gadget_state([("a", "0", "1"), ("b", "00", "11")])
    st2 = gadget_state([("b", "00", "11"), ("a", "0", "1")])
    assert abs(st1.fidelity(st2) - 1) < 1e-12
    st3 = gadget_state([("a", "0", "1"), ("b", "00", "10")])
    assert st1.fidelity(st3) < 1


def test_map_pair_rejects_width_change():
    # a map over a (key, destination) register pair keeps the width unless
    # a new one is given, and every image must have it
    st = SparseState()
    st.add_gadget("a", "0", "1")
    st.add_register("b", "00")
    with pytest.raises(ValueError):
        st.map_register("b", lambda y, x: "0", keys=["a"])
    with pytest.raises(ValueError):
        st.map_register("b", lambda y, x: y + x, keys=["a"], width=2)
    assert st.registers == [("a", 1), ("b", 2)]


def test_map_register_concatenates_keys_and_resizes():
    st = gadget_state([("a", "0", "1"), ("b", "01", "10")])
    st.add_register("c", "1")
    st.map_register("c", lambda c, key: key + c, keys=["b", "a"], width=4)
    assert st.width("c") == 4
    assert all(c == b + a + "1" for a, b, c in st.branches)
    assert len(st.branches) == 4


def test_map_register_calls_fn_once_per_distinct_pair():
    # 8 branches, but the (dst value, key) pair only takes 2 values
    st = gadget_state([("a", "0", "1"), ("b", "00", "11"), ("c", "0", "1")])
    st.add_register("d", "01")
    calls = []

    def fn(d, key):
        calls.append((d, key))
        return key + key

    st.map_register("d", fn, keys=["a"])
    assert len(st.branches) == 8
    assert calls == [("01", "0"), ("01", "1")]
    assert all(d == a + a for a, b, c, d in st.branches)


def dense_hadamard_post(amps, cw, vw, d):
    """Unnormalized context state after H on the value register gives d."""
    m = np.zeros((1 << cw, 1 << vw), dtype=complex)
    for (c, v), a in amps.items():
        m[int(c, 2), int(v, 2)] = a
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    hn = np.ones((1, 1))
    for _ in range(vw):
        hn = np.kron(hn, h)
    return (m @ hn)[:, int(d, 2)]


def test_hadamard_measure_matches_dense_reference():
    for seed in range(200):
        rng = random.Random(seed)
        cw, vw = rng.randint(1, 2), rng.randint(1, 4)
        values = rng.sample([format(x, f"0{vw}b") for x in range(1 << vw)],
                            rng.randint(1, 2))
        amps = {(format(c, f"0{cw}b"), v): complex(rng.gauss(0, 1),
                                                   rng.gauss(0, 1))
                for c in range(1 << cw) for v in values}
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        amps = {k: a / norm for k, a in amps.items()}
        st = SparseState()
        st.registers = [("c", cw), ("v", vw)]
        st.branches = dict(amps)
        d = st.measure_hadamard("v", rng)
        post = dense_hadamard_post(amps, cw, vw, d)
        prob = float(np.vdot(post, post).real)
        assert prob > 1e-12, (seed, d)
        assert st.registers == [("c", cw)]
        inner = sum(post[int(c, 2)].conjugate() * a
                    for (c,), a in st.branches.items())
        assert abs(inner) ** 2 / prob >= 1 - 1e-9, seed


def spread_state(values):
    st = SparseState()
    st.registers = [("c", 1), ("v", len(values[0]))]
    amps = [(c, v) for c in "01" for v in values]
    st.branches = {a: 1 / math.sqrt(len(amps)) for a in amps}
    return st


@pytest.mark.parametrize("values", [
    ["00", "01", "10"],
    # 0 and the 14 unit vectors: 15 values of rank 14
    ["0" * 14] + [format(1 << b, "014b") for b in range(14)],
], ids=["three-values", "fifteen-values"])
def test_hadamard_measure_refuses_more_than_two_values(values):
    st = spread_state(values)
    rng = random.Random(0)
    with pytest.raises(ValueError, match="at most two"):
        st.measure_hadamard("v", rng)
    assert rng.random() == random.Random(0).random()  # nothing drawn


def test_bitwise_permutation_and_inverse():
    from bqcsim.bits import invert_perm

    st = SparseState()
    st.add_gadget("g", "0011", "1100")
    perm = [2, 0, 3, 1]
    before = dict(st.branches)
    st.apply_bitwise_permutation("g", perm)
    st.apply_bitwise_permutation("g", invert_perm(perm))
    assert st.branches == before
