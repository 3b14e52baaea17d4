"""Sparse state: branch bookkeeping, measurements, register plumbing."""

import cmath
import copy
import math
import random
import time
import zlib

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as hst

from bqcsim.bits import bits_to_int, dot, int_to_bits, parity
from conftest import expand, norm, set_branches
from bqcsim.state import (ATOL, EntangledDiscardError, SparseState,
                          gadget_state)


def test_gadget_normalized_superposition():
    st = SparseState()
    st.add_gadget("g", "000", "111")
    assert abs(norm(st) - 1) < ATOL
    assert set(expand(st)) == {("000",), ("111",)}
    for amp in expand(st).values():
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
    assert abs(norm(st) - 1) < ATOL


def test_measure_computational_collapses():
    rng = random.Random(0)
    st = SparseState()
    st.add_gadget("g", "0011", "1100")
    out = st.measure_computational("g", rng)
    assert out in {"0011", "1100"}
    assert set(expand(st)) == {(out,)}
    assert abs(norm(st) - 1) < ATOL


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
    amps = {k[0]: v for k, v in expand(st).items()}
    expect = -1.0 if d == "1" else 1.0
    ratio = amps["1"] / amps["0"]
    assert abs(ratio - expect) < 1e-9


def test_split_merge_roundtrip():
    st = SparseState()
    st.add_gadget("g", "0101", "1010")
    before = dict(expand(st))
    st.split_register("g", [1, 3], ["hi", "lo"])
    assert st.width("hi") == 1 and st.width("lo") == 3
    st.merge_registers(["hi", "lo"], "g")
    assert expand(st) == before


def test_merge_peels_a_register_that_factors_out():
    # two Bell pairs in one component: merging one pair gives a register
    # that is a product with the other pair
    st = SparseState()
    for g, parts in (("g", ["a", "b"]), ("h", ["c", "d"])):
        st.add_gadget(g, "00", "11")
        st.split_register(g, [1, 1], parts)
    st.map_register("c", lambda v, _: v, keys=["a"])
    assert st.components() == [(("a", "b", "c", "d"), 4)]
    st.merge_registers(["a", "b"], "ab")
    assert st.components() == [(("ab",), 2), (("c", "d"), 2)]
    assert st.registers == [("ab", 2), ("c", 1), ("d", 1)]


def test_discard_constant_register():
    st = SparseState()
    st.add_gadget("g", "01", "10")
    st.add_register("z", "000")
    st.discard_register("z")
    assert [n for n, _ in st.registers] == ["g"]
    assert abs(norm(st) - 1) < ATOL


def test_discard_entangled_register_refuses():
    st = SparseState()
    st.add_gadget("a", "0", "1")
    st.add_register("b", "0")
    st.map_register("b", lambda o, k: k, keys=["a"])
    before = snapshot(st)
    with pytest.raises(EntangledDiscardError):
        st.discard_register("b")
    assert snapshot(st) == before


def test_discard_runs_no_factor_test(monkeypatch):
    # every operation has already peeled off what factors out, so a
    # discard only asks whether the register is a component of its own
    from bqcsim import state as state_module
    st = gadget_state([("a", "0", "1"), ("b", "0", "1")])
    st.map_register("b", lambda v, k: v, keys=["a"])  # stays a product
    st.add_register("c", "0")
    st.map_register("c", lambda o, k: k, keys=["a"])  # entangles a and c
    monkeypatch.setattr(state_module, "_factor", None)
    with pytest.raises(EntangledDiscardError):
        st.discard_register("c")
    st.discard_register("b")
    assert st.components() == [(("a", "c"), 2)]


def test_state_errors_name_their_cause():
    st = gadget_state([("a", "0", "1"), ("g", "01", "10")])
    with pytest.raises(ValueError, match="'a' already exists"):
        st.add_register("a", "0")
    with pytest.raises(ValueError, match="'g' already exists"):
        st.add_gadget("g", "0", "1")
    for call in (lambda: st.width("z"), lambda: st.discard_register("z"),
                 lambda: st.map_register("a", lambda v, k: v, keys=["z"]),
                 lambda: st.measure_computational("z", random.Random(0))):
        with pytest.raises(KeyError, match="no register named 'z'"):
            call()
    with pytest.raises(ValueError, match="split widths must sum"):
        st.split_register("g", [1, 2], ["x", "y"])
    with pytest.raises(ValueError, match="register mismatch"):
        st.fidelity(gadget_state([("a", "0", "1"), ("h", "01", "10")]))
    with pytest.raises(ValueError, match="register mismatch"):
        st.fidelity(gadget_state([("a", "0", "1"), ("g", "0", "1")]))


def test_discard_product_register():
    # unentangled but not constant: a separate gadget factors out
    st = gadget_state([("a", "00", "11"), ("b", "0", "1")])
    st.discard_register("b")
    assert set(expand(st)) == {("00",), ("11",)}
    assert abs(norm(st) - 1) < ATOL


def test_extract_qubit_amplitudes():
    # a finished qubit is read out as the amplitudes its discard returns
    st = SparseState()
    st.add_gadget("q", "0", "1")
    st.apply_phase_per_branch("q", lambda v: math.pi / 2 if v == "1" else 0.0)
    g = st.discard_register("q")
    assert abs(g["0"] - 1 / math.sqrt(2)) < 1e-9
    assert abs(g["1"] - 1j / math.sqrt(2)) < 1e-9
    assert st.registers == []


def test_fidelity_matches_by_name_not_order():
    st1 = gadget_state([("a", "0", "1"), ("b", "00", "11")])
    st2 = gadget_state([("b", "00", "11"), ("a", "0", "1")])
    assert abs(st1.fidelity(st2) - 1) < 1e-12
    st3 = gadget_state([("a", "0", "1"), ("b", "00", "10")])
    assert st1.fidelity(st3) < 1


def _components_state(n: int) -> SparseState:
    """A state of ``n`` components: an entangled pair, a gadget, a constant."""
    st = gadget_state([("a", "0", "1"), ("b", "00", "11")])
    st.map_register("b", lambda b, a: b[0] + a, keys=["a"])
    if n > 1:
        st.add_gadget("c", "01", "10")
    if n > 2:
        st.add_register("d", "011")
    return st


@pytest.mark.parametrize("n", [1, 2, 3])
def test_branch_count_is_product_of_component_sizes(n):
    st = _components_state(n)
    sizes = [size for _, size in st.components()]
    assert len(sizes) == n
    assert len(st.branches) == math.prod(sizes) == len(expand(st))


def test_branch_count_exposes_no_branch():
    view = _components_state(3).branches
    for attr in ("__getitem__", "__iter__", "keys", "items"):
        assert not hasattr(view, attr)


def _gadget_keys(rng, count: int, width: int = 8) -> list[tuple[str, str]]:
    keys = []
    for _ in range(count):
        x0, x1 = rng.sample(range(2**width), 2)
        keys.append((format(x0, f"0{width}b"), format(x1, f"0{width}b")))
    return keys


def test_hundred_gadgets_stay_separate_and_compare_per_gadget():
    keys = _gadget_keys(random.Random(5), 100)
    st = SparseState()
    for i, (x0, x1) in enumerate(keys):
        st.add_gadget(f"g{i}", x0, x1)
    assert st.components() == [((f"g{i}",), 2) for i in range(100)]
    same = [(f"g{i}", x0, x1) for i, (x0, x1) in enumerate(keys)]
    assert abs(st.fidelity(gadget_state(same)) - 1) < 1e-9
    x0, x1 = keys[37]
    y0, y1 = (format(v, "08b") for v in sorted(
        set(range(256)) - {int(x0, 2), int(x1, 2)})[:2])
    other = same[:37] + [("g37", y0, y1)] + same[38:]
    assert st.fidelity(gadget_state(other)) == 0


def test_branch_count_of_sixty_gadgets_is_not_expanded():
    st = gadget_state([(f"g{i}", x0, x1) for i, (x0, x1)
                       in enumerate(_gadget_keys(random.Random(6), 60))])
    start = time.perf_counter()
    assert len(st.branches) == 2**60
    assert time.perf_counter() - start < 1.0


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
    assert all(c == b + a + "1" for a, b, c in expand(st))
    assert len(st.branches) == 4


def test_map_register_calls_fn_once_per_distinct_pair():
    # 8 branches, but the map joins only the components of d and a, whose
    # product holds the 2 (dst value, key) pairs
    st = gadget_state([("a", "0", "1"), ("b", "00", "11"), ("c", "0", "1")])
    st.add_register("d", "01")
    calls = []

    def fn(d, key):
        calls.append((d, key))
        return key + key

    st.map_register("d", fn, keys=["a"])
    assert len(st.branches) == 8
    assert calls == [("01", "0"), ("01", "1")]
    assert all(d == a + a for a, b, c, d in expand(st))


def snapshot(st):
    return st.registers, st.components(), dict(expand(st))


def test_map_register_refuses_a_collision_on_its_own_register():
    st = gadget_state([("a", "00", "11"), ("b", "0", "1")])
    before = snapshot(st)
    with pytest.raises(ValueError, match="same values"):
        st.map_register("a", lambda v, _: "01")
    with pytest.raises(ValueError, match="same values"):
        st.map_register("a", lambda v, _: "101", width=3)
    assert snapshot(st) == before
    st.map_register("a", lambda v, _: v[::-1] + "1", width=3)  # injective
    assert set(expand(st)) == {("001", "0"), ("111", "0"), ("001", "1"),
                                ("111", "1")}


def test_map_register_refuses_a_collision_across_joined_components():
    # keying on b joins a's and b's components; a map that ignores a's
    # value collides, and no joined component may be left behind
    st = gadget_state([("a", "0", "1"), ("b", "0", "1")])
    st.add_register("c", "00")
    before = snapshot(st)
    assert before[1] == [(("a",), 2), (("b",), 2), (("c",), 1)]
    with pytest.raises(ValueError, match="same values"):
        st.map_register("a", lambda v, key: key[:1], keys=["b", "c"])
    assert snapshot(st) == before
    for name in ("a", "b", "c"):  # each register still stands alone
        st.discard_register(name)
    assert st.registers == []


@pytest.mark.parametrize("call", [
    lambda st: st.merge_registers(["a", "a"], "aa"),
    lambda st: st.merge_registers(["a"], "b"),
    lambda st: st.split_register("b", [1, 1], ["a", "x"]),
    lambda st: st.split_register("g", [1, 3], ["y"]),
    lambda st: st.split_register("g", [5, -1], ["y", "z"]),
    lambda st: st.split_register("g", [2, 2], ["y", "y"]),
], ids=["merge-repeats-a-name", "merge-onto-a-live-register",
        "split-onto-a-live-register", "split-width-without-a-name",
        "split-negative-width", "split-repeats-a-name"])
def test_register_plumbing_refuses_before_any_change(call):
    st = gadget_state([("a", "0", "1"), ("b", "01", "10"),
                       ("g", "0110", "1001")])
    before = snapshot(st)
    with pytest.raises(ValueError):
        call(st)
    assert snapshot(st) == before


def test_register_plumbing_may_reuse_a_consumed_name():
    st = gadget_state([("a", "0", "1"), ("b", "01", "10")])
    st.merge_registers(["a", "b"], "a")
    assert st.registers == [("a", 3)]
    st.split_register("a", [1, 2], ["b", "a"])
    assert st.registers == [("b", 1), ("a", 2)]
    assert abs(norm(st) - 1) < ATOL


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
        scale = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        amps = {k: a / scale for k, a in amps.items()}
        st = SparseState()
        st.add_register("c", "0" * cw)
        st.add_register("v", "0" * vw)
        set_branches(st, amps)
        d = st.measure_hadamard("v", rng)
        post = dense_hadamard_post(amps, cw, vw, d)
        prob = float(np.vdot(post, post).real)
        assert prob > 1e-12, (seed, d)
        assert st.registers == [("c", cw)]
        inner = sum(post[int(c, 2)].conjugate() * a
                    for (c,), a in expand(st).items())
        assert abs(inner) ** 2 / prob >= 1 - 1e-9, seed


def spread_state(values):
    st = SparseState()
    st.add_register("c", "0")
    st.add_register("v", values[0])
    amps = [(c, v) for c in "01" for v in values]
    set_branches(st, {a: 1 / math.sqrt(len(amps)) for a in amps})
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
    from bqcsim.bits import apply_perm, invert_perm

    st = SparseState()
    st.add_gadget("g", "0011", "1100")
    perm = [2, 0, 3, 1]
    before = dict(expand(st))
    st.map_register("g", lambda s, _: apply_perm(s, perm))
    assert set(expand(st)) == {("0101",), ("1010",)}
    with pytest.raises(ValueError, match="length mismatch"):
        st.map_register("g", lambda s, _: apply_perm(s, perm[:3]))
    st.map_register("g", lambda s, _: apply_perm(s, invert_perm(perm)))
    assert expand(st) == before


# -- the component store against the single-dict reference -----------------


class ReferenceState:
    """The single-dict SparseState that the component store replaced.

    One map from value-tuples over every register to amplitudes, copied
    from the earlier ``state.py`` (the methods the sequences below call),
    so independent registers multiply its size. Its ``map_register``, like
    the store's, refuses a map under which two branches meet.
    """

    def __init__(self):
        self.registers = []
        self.branches = {(): 1.0 + 0.0j}

    def _index(self, name):
        for i, (n, _) in enumerate(self.registers):
            if n == name:
                return i
        raise KeyError(f"no register named {name!r}")

    def norm(self):
        return math.sqrt(sum(abs(a) ** 2 for a in self.branches.values()))

    def renormalize(self):
        n = self.norm()
        if n < ATOL:
            raise ValueError("state has collapsed to zero norm")
        self.branches = {k: v / n for k, v in self.branches.items()}

    def add_register(self, name, value):
        if any(n == name for n, _ in self.registers):
            raise ValueError(f"register {name!r} already exists")
        self.registers.append((name, len(value)))
        self.branches = {k + (value,): v for k, v in self.branches.items()}
        return name

    def add_gadget(self, name, x0, x1):
        if x0 == x1:
            raise ValueError("gadget requires two different keys")
        if len(x0) != len(x1):
            raise ValueError("gadget keys must have equal width")
        if any(n == name for n, _ in self.registers):
            raise ValueError(f"register {name!r} already exists")
        self.registers.append((name, len(x0)))
        s = 1 / math.sqrt(2)
        new = {}
        for k, v in self.branches.items():
            new[k + (x0,)] = v * s
            new[k + (x1,)] = v * s
        self.branches = new
        return name

    def map_register(self, dst, fn, keys=(), width=None):
        j = self._index(dst)
        ki = [self._index(r) for r in keys]
        w = self.registers[j][1] if width is None else width
        images = {}
        new = {}
        for k, v in self.branches.items():
            arg = (k[j], "".join([k[i] for i in ki]))
            nv = images.get(arg)
            if nv is None:
                nv = images[arg] = fn(*arg)
                if len(nv) != w:
                    raise ValueError(f"map_register: image width {len(nv)}, "
                                     f"expected {w}")
            new[k[:j] + (nv,) + k[j + 1:]] = v
        if len(new) < len(self.branches):
            raise ValueError("map_register: two branches map onto the same "
                             "values")
        self.registers[j] = (dst, w)
        self.branches = new

    def apply_phase_per_branch(self, name, phase_fn):
        i = self._index(name)
        self.branches = {
            k: v * cmath.exp(1j * phase_fn(k[i])) for k, v in self.branches.items()
        }

    def measure_computational(self, name, rng, observable=None):
        i = self._index(name)
        outs = [k[i] for k in self.branches]
        if observable is not None:
            outs = [observable(o) for o in outs]
        weights = {}
        for o, v in zip(outs, self.branches.values()):
            weights[o] = weights.get(o, 0.0) + abs(v) ** 2
        values = sorted(weights)
        outcome = values[self._inverse_cdf([weights[o] for o in values], rng)]
        self.branches = {k: v for o, (k, v) in zip(outs, self.branches.items())
                         if o == outcome}
        self.renormalize()
        return outcome

    def measure_hadamard(self, name, rng):
        i = self._index(name)
        w = self.registers[i][1]
        values = sorted({k[i] for k in self.branches})
        if len(values) > 2:
            raise ValueError(f"register {name!r} holds {len(values)} values; "
                             "a Hadamard measurement takes at most two")
        diff = bits_to_int(values[0]) ^ bits_to_int(values[-1])
        lead = diff.bit_length() - 1
        ctx_amps = self._by_context(i)
        weights = []
        for p in range(len(values)):
            wsum = 0.0
            for amps in ctx_amps.values():
                acc = 0j
                for s, a in amps.items():
                    acc += a * (-1) ** (p * (s != values[0]))
                wsum += abs(acc) ** 2
            weights.append(wsum)
        par = self._inverse_cdf(weights, rng)
        d_int = 0
        for bit in range(w):
            if bit != lead and rng.random() < 0.5:
                d_int |= 1 << bit
        if lead >= 0 and parity(d_int & diff) != par:
            d_int |= 1 << lead
        d = int_to_bits(d_int, w)
        sign = {s: (-1) ** parity(d_int & bits_to_int(s)) for s in values}
        new = {}
        for ctx, amps in ctx_amps.items():
            acc = 0
            for s, a in amps.items():
                acc += a * sign[s]
            new[ctx] = acc
        self.registers.pop(i)
        self.branches = {k: v for k, v in new.items() if abs(v) > ATOL}
        self.renormalize()
        return d

    @staticmethod
    def _inverse_cdf(weights, rng):
        pick = rng.random() * sum(weights)
        acc = 0.0
        for i, wt in enumerate(weights):
            acc += wt
            if pick <= acc:
                return i
        return len(weights) - 1

    def split_register(self, name, widths, new_names):
        i = self._index(name)
        if sum(widths) != self.registers[i][1]:
            raise ValueError("split widths must sum to register width")
        self.registers[i:i + 1] = list(zip(new_names, widths))
        new = {}
        for k, v in self.branches.items():
            parts, off = [], 0
            for w in widths:
                parts.append(k[i][off:off + w])
                off += w
            new[k[:i] + tuple(parts) + k[i + 1:]] = v
        self.branches = new
        return new_names

    def merge_registers(self, names, new_name):
        idxs = [self._index(n) for n in names]
        pos = min(idxs)
        rest = [j for j in range(pos + 1, len(self.registers)) if j not in idxs]
        total = sum(self.registers[i][1] for i in idxs)
        self.registers = (self.registers[:pos] + [(new_name, total)]
                          + [self.registers[j] for j in rest])
        self.branches = {
            k[:pos] + ("".join([k[i] for i in idxs]),)
            + tuple([k[j] for j in rest]): v
            for k, v in self.branches.items()
        }
        return new_name

    def _by_context(self, i):
        ctx_amps = {}
        for k, v in self.branches.items():
            ctx_amps.setdefault(k[:i] + k[i + 1:], {})[k[i]] = v
        return ctx_amps

    def discard_register(self, name):
        i = self._index(name)
        ctx_amps = self._by_context(i)
        first = next(iter(ctx_amps.values()))
        gnorm = math.sqrt(sum(abs(a) ** 2 for a in first.values()))
        g = {s: a / gnorm for s, a in first.items()}
        s0 = next(iter(g))
        out = {}
        for ctx, amps in ctx_amps.items():
            if amps.keys() != g.keys():
                raise EntangledDiscardError("entangled discard")
            r = amps[s0] / g[s0]
            for s, gs in g.items():
                if abs(amps[s] - r * gs) > 1e-7:
                    raise EntangledDiscardError("entangled discard")
            out[ctx] = r
        self.registers.pop(i)
        self.branches = out
        return g


def pure_fn(salt, width, kind):
    """A deterministic value map of the kind ``map_register`` takes."""
    def h(*parts):
        return zlib.crc32("|".join((str(salt),) + parts).encode())

    def fn(v, key):
        if kind == "xor":  # a permutation of v for each key, like a query
            return format(int(v, 2) ^ h(key) % (1 << len(v)), f"0{len(v)}b")
        if kind == "table":  # any function: branches may meet, which raises
            return format(h(v, key) % (1 << width), f"0{width}b")
        return "0" * (width + 1)  # the wrong width
    return fn


def draw_op(data, widths, fresh, grow=True):
    """One state operation with its arguments, on the registers present.

    ``add_gadget``, the one operation that grows the product, is offered
    only if ``grow``.
    """
    names = list(widths)
    bits = lambda w: data.draw(hst.text("01", min_size=w, max_size=w))
    kinds = (["add_gadget", "add_register"] * 2 if grow
             else ["add_register"] * 2)
    if names:
        kinds += ["map_register"] * 4 + [
            "apply_phase_per_branch", "measure_computational",
            "measure_hadamard", "discard_register", "merge_registers"]
        if any(w > 1 for w in widths.values()):
            kinds.append("split_register")
    kind = data.draw(hst.sampled_from(kinds))
    pick = lambda: data.draw(hst.sampled_from(names))
    if kind == "add_gadget":
        w = data.draw(hst.integers(1, 3))
        x0 = bits(w)
        flip = data.draw(hst.integers(1, (1 << w) - 1))
        return kind, (fresh, x0, format(int(x0, 2) ^ flip, f"0{w}b")), {}
    if kind == "add_register":
        return kind, (fresh, bits(data.draw(hst.integers(1, 3)))), {}
    if kind == "map_register":
        dst = pick()
        keys = data.draw(hst.lists(hst.sampled_from(names), unique=True,
                                   min_size=1, max_size=3))
        fkind = data.draw(hst.sampled_from(["xor"] * 4 + ["table"] * 2
                                           + ["wrong"]))
        width = widths[dst] if fkind == "xor" else data.draw(
            hst.integers(1, 3))
        return kind, (dst, pure_fn(data.draw(hst.integers(0, 99)), width,
                                   fkind), keys), (
            {} if fkind == "xor" else {"width": width})
    if kind == "apply_phase_per_branch":
        salt = data.draw(hst.integers(0, 99))
        return kind, (pick(), lambda v: math.pi / 4 * (
            zlib.crc32(f"{salt}|{v}".encode()) % 8)), {}
    if kind == "measure_computational":
        parity_of = data.draw(hst.booleans())
        return kind, (pick(),), (
            {"observable": lambda v: v.count("1") % 2} if parity_of else {})
    if kind in ("measure_hadamard", "discard_register"):
        return kind, (pick(),), {}
    if kind == "merge_registers":
        group = data.draw(hst.lists(hst.sampled_from(names), unique=True,
                                    min_size=2 if len(names) > 1 else 1,
                                    max_size=3))
        return kind, (group, fresh), {}
    name = data.draw(hst.sampled_from([n for n in names if widths[n] > 1]))
    cut = data.draw(hst.integers(1, widths[name] - 1))
    return kind, (name, [cut, widths[name] - cut],
                  [fresh + "a", fresh + "b"]), {}


def outcome_of(state, kind, args, kwargs, rng):
    if kind.startswith("measure"):
        kwargs = dict(kwargs, rng=rng)
    try:
        return "ok", getattr(state, kind)(*args, **kwargs)
    except Exception as e:  # the two implementations must raise alike
        return "raised", (type(e), str(e))


def assert_same_state(got, want):
    """Equal amplitudes within 1e-12, up to one global phase.

    The reference gave a discarded register the phase of its first branch
    in dict order, which depends on the order its history inserted
    branches; the component store keeps no such order, so the global
    phase that a discard leaves may differ.
    """
    assert got.keys() == want.keys()
    if want:
        top = max(want, key=lambda k: abs(want[k]))
        phase = want[top] / got[top]
        phase /= abs(phase)
        for k, a in want.items():
            assert abs(got[k] * phase - a) <= 1e-12, (k, got[k], a)


class Script:
    """Fixed draws for an explicit example: each ``draw`` returns the next."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


# seed 0, then 18 steps: 16 one-bit gadgets of keys "0" and "1" (draws
# kind, width, x0, flip), a phase on r0 (salt, register) and a parity
# measurement of r15 (observable, register) on the 2**16-branch product
BIG_PRODUCT = Script(0, 18, *("add_gadget", 1, "0", 1) * 16,
                     "apply_phase_per_branch", 7, "r0",
                     "measure_computational", True, "r15")


@settings(max_examples=300, deadline=None)
@given(data=hst.data(), budget=hst.just(1 << 12))
@example(data=BIG_PRODUCT, budget=1 << 16)
def test_component_store_matches_single_dict_reference(data, budget):
    # the reference, its expansion and the comparison cost O(product) per
    # step, so no gadget is added once the reference holds ``budget``
    # branches; the fixed example compares a 2**16-branch product
    seed = data.draw(hst.integers(0, 2**32 - 1))
    new, ref = SparseState(), ReferenceState()
    rng_new, rng_ref = random.Random(seed), random.Random(seed)
    for step in range(data.draw(hst.integers(4, 24))):
        widths = dict(ref.registers)
        grow = len(ref.branches) < budget
        if not grow:
            event("branch budget reached")
        kind, args, kwargs = draw_op(data, widths, f"r{step}", grow)
        got = outcome_of(new, kind, args, kwargs, rng_new)
        want = outcome_of(ref, kind, args, kwargs, rng_ref)
        if isinstance(want[1], dict):  # a discarded register's amplitudes
            assert got[0] == "ok"
            assert_same_state(got[1], want[1])
        else:
            assert got == want
        assert new.registers == ref.registers
        assert_same_state(expand(new), ref.branches)
        # no register of a joint component factors out of it
        for names, _ in new.components():
            for name in names if len(names) > 1 else ():
                with pytest.raises(EntangledDiscardError):
                    copy.deepcopy(new).discard_register(name)
