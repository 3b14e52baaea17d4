"""One-call server steps against the scratch-register sequences they replace.

``HonestServer.extend_gadget`` and ``respond_pad_hadamard`` append to the
gadget register in one value map, and ``tables.rev_eval`` merges its inputs
before the forward pass. ``HonestServer.respond_basis_test`` and
``tables.phase_eval`` measure, or phase, the gadget register by the payload
its keys open. Each reference below writes out the earlier sequence: a
scratch register, a coherent evaluation into it, then a merge, or an action
on the scratch, a second evaluation that erases it and a discard. Both are
run on equal seeds and must agree on the state, the query charges, every
measurement outcome and the hash evaluations, less those of the erasing
passes, which the one-call steps skip.
"""

import inspect
import math
import random

import pytest

from bqcsim import tables
from bqcsim.bits import int_to_bits, random_bits
from bqcsim.gadget_prep import PipelineConfig, gdgprep_full
from bqcsim.keychain import KeyPair, sample_key_pair
from bqcsim.oracle import RandomOracle
from bqcsim.protocols import HonestServer, ProtocolParams
from bqcsim.qfactory import qfac8
from bqcsim.state import SparseState
from conftest import SMALL_PIPELINE, expand, run_alone


# -- the scratch-and-merge sequences ----------------------------------------


def old_extend_gadget(server, reg, lam_reg, table):
    st = server.state
    scratch = "ext"
    st.add_register(scratch, "0" * table.payload_len)
    tables.lt_eval_coherent(server.oracle, st, [reg, lam_reg], scratch, table)
    st.merge_registers([reg, scratch], reg)


def old_respond_pad_hadamard(server, reg, pad, kappa_out):
    st, oracle = server.state, server.oracle
    h = "ph_h"
    st.add_register(h, "0" * kappa_out)
    # the XOR form of a superposed query: H(pad || reg) into h
    oracle.count("server")
    st.map_register(h, lambda vout, vin: int_to_bits(
        int(vout, 2) ^ oracle._prf(pad + vin, kappa_out), kappa_out),
        keys=[reg])
    w = "ph_w"
    st.merge_registers([reg, h], w)
    return st.measure_hadamard(w, server.rng)


def old_rev_eval(oracle, state, controls, in_regs, table, out_reg):
    state.add_register(out_reg, "0" * table.forward.payload_len)
    tables.lt_eval_coherent(oracle, state, controls + in_regs, out_reg,
                            table.forward)
    merged = state.merge_registers(in_regs, "zin")
    tables.lt_eval_coherent(oracle, state, controls + [out_reg], merged,
                            table.backward)
    state.discard_register(merged)
    return out_reg


def uncompute(oracle, state, key_regs, scratch, table):
    """Decrypt into ``scratch`` again, erasing it.

    Adds the pass's ``_prf`` calls to ``oracle.uncompute_prf``.
    """
    prf = oracle._prf
    calls = counting_prf(oracle)
    try:
        tables.lt_eval_coherent(oracle, state, key_regs, scratch, table)
    finally:
        oracle._prf = prf
    oracle.uncompute_prf = getattr(oracle, "uncompute_prf", 0) + calls[0]


def old_respond_basis_test(server, reg, table):
    st = server.state
    scratch = "bt"
    st.add_register(scratch, "0" * table.payload_len)
    tables.lt_eval_coherent(server.oracle, st, [reg], scratch, table)
    value = st.measure_computational(scratch, server.rng)
    uncompute(server.oracle, st, [reg], scratch, table)
    st.discard_register(scratch)
    return value


def old_phase_eval(oracle, state, reg, table):
    scratch = "ph"
    state.add_register(scratch, "0" * table.payload_len)
    tables.lt_eval_coherent(oracle, state, [reg], scratch, table)
    state.apply_phase_per_branch(scratch, lambda v: math.pi * int(v, 2) / 4)
    uncompute(oracle, state, [reg], scratch, table)
    state.discard_register(scratch)


def old_respond_phase_table(server, reg, table, qubit_reg):
    st, oracle = server.state, server.oracle
    row0 = table.rows[0]
    oracle.count("server", 2)
    st.add_register(qubit_reg, "0")
    st.map_register(qubit_reg, lambda _, val: "0" if oracle._prf(
        row0.tag_pad + val, len(row0.tag)) == int(row0.tag, 2) else "1",
        keys=[reg])
    old_phase_eval(oracle, st, reg, table)
    return st.measure_hadamard(reg, server.rng)


class OldServer(HonestServer):
    def extend_gadget(self, reg, lam_reg, table):
        old_extend_gadget(self, reg, lam_reg, table)

    def respond_basis_test(self, reg, table):
        return old_respond_basis_test(self, reg, table)

    def respond_phase_table(self, reg, table, qubit_reg):
        return old_respond_phase_table(self, reg, table, qubit_reg)

    def respond_pad_hadamard(self, reg, pad, kappa_out):
        return old_respond_pad_hadamard(self, reg, pad, kappa_out)

    def eval_robust(self, help_reg, k2, x3_reg, table, out_reg):
        k2_reg = "k2"
        self.state.add_gadget(k2_reg, k2.x0, k2.x1)
        return old_rev_eval(self.oracle, self.state, [help_reg],
                            [k2_reg, x3_reg], table, out_reg)


NEW = (HonestServer.extend_gadget, HonestServer.respond_pad_hadamard,
       tables.rev_eval, HonestServer.respond_basis_test, tables.phase_eval)
OLD = (old_extend_gadget, old_respond_pad_hadamard, old_rev_eval,
       old_respond_basis_test, old_phase_eval)


# -- comparison ---------------------------------------------------------------


def counting_prf(oracle):
    """Count every ``_prf`` call of ``oracle`` from now on."""
    calls = [0]
    prf = oracle._prf

    def counted(inp, out_len):
        calls[0] += 1
        return prf(inp, out_len)

    oracle._prf = counted
    return calls


def snapshot(state):
    return state.registers, state.components(), dict(expand(state))


def assert_same_amplitudes(a, b):
    """Equal amplitudes by key, up to one global phase."""
    assert a.keys() == b.keys()
    first = next(iter(a))
    phase = b[first] / a[first]
    assert abs(abs(phase) - 1) < 1e-12
    for k, amp in a.items():
        assert abs(amp * phase - b[k]) < 1e-12


def assert_same_state(a, b):
    regs_a, comps_a, br_a = a
    regs_b, comps_b, br_b = b
    assert regs_a == regs_b
    assert comps_a == comps_b
    assert_same_amplitudes(br_a, br_b)


def run_steps(seed, steps):
    """Reversible tables, refresh extensions, basis tests, phase tables and
    padded Hadamard tests.

    Returns, after each step, the state, the query counters, the number of
    ``_prf`` calls, those of them spent erasing scratch registers, and the
    step's outcome.
    """
    extend, pad_hadamard, rev_eval, basis_test, phase_eval = steps
    oracle = RandomOracle(seed)
    server = HonestServer(oracle, seed=seed + 1)
    st = server.state
    rng = random.Random(seed + 2)
    prf_calls = counting_prf(oracle)
    log = []

    def record(outcome=None):
        log.append((snapshot(st), dict(oracle.counters), prf_calls[0],
                    getattr(oracle, "uncompute_prf", 0), outcome))

    # a branching table entangles the helper with the output register
    kh, k2, k3 = (sample_key_pair(rng, 4) for _ in range(3))
    y2, y3 = sample_key_pair(rng, 6), sample_key_pair(rng, 6)
    perm = list(range(12))
    rng.shuffle(perm)
    for name, pair in (("h", kh), ("a", k2), ("b", k3)):
        server.prepare_gadget(name, pair)
    robust = tables.robust_rlt_build(oracle, kh, k2, k3, y2, y3, perm, 8, rng)
    record(rev_eval(oracle, st, ["h"], ["a", "b"], robust, "out"))

    # a plain reversible table without controls: z holds four values
    c, e = sample_key_pair(rng, 3), sample_key_pair(rng, 5)
    q1, q2 = sample_key_pair(rng, 4), sample_key_pair(rng, 6)
    server.prepare_gadget("c", c)
    server.prepare_gadget("e", e)
    plain = tables.revlt_build(oracle, [c, e], [q1, q2], 6, rng)
    record(rev_eval(oracle, st, [], ["c", "e"], plain, "z"))

    # refresh: extend the entangled helper, then the plain output
    keys = {}
    for reg, values in (("h", [kh.x0, kh.x1]),
                        ("z", [q1[b1] + q2[b2] for b1 in (0, 1)
                               for b2 in (0, 1)])):
        lam = sample_key_pair(rng, 4)
        lam_reg = server.prepare_gadget(f"lam_{reg}", lam)
        y = sample_key_pair(rng, 8)
        table = tables.lt_build(oracle, [(v + lam[b2], y[i & 1])
                                         for i, v in enumerate(values)
                                         for b2 in (0, 1)], 8, rng)
        record(extend(server, reg, lam_reg, table))
        keys[reg] = [v + y[i & 1] for i, v in enumerate(values)]

    # basis tests: an honest one on the entangled helper, and one whose
    # payload is z's first subscript, so its outcome halves z's values
    r = random_bits(rng, 8)
    table = tables.lt_build(oracle, [(v, r) for v in keys["h"]], 8, rng)
    record(basis_test(server, "h", table))
    table = tables.lt_build(oracle, [(v, int_to_bits(i >> 1, 8))
                                     for i, v in enumerate(keys["z"])],
                            8, rng)
    record(basis_test(server, "z", table))

    # phase tables: on the entangled helper and on a lone gadget
    p = sample_key_pair(rng, 5)
    server.prepare_gadget("p", p)
    for reg, pair, n in (("h", KeyPair(*keys["h"]), 3), ("p", p, 5)):
        ptable = tables.phase_lt_build(oracle, pair, n, 8, rng)
        record(phase_eval(oracle, st, reg, ptable))

    # padded Hadamard tests: on lone gadgets and on the entangled helper
    for reg in ("lam_h", "h", "lam_z"):
        pad = random_bits(rng, 8)
        record(pad_hadamard(server, reg, pad, 8))
    return log


@pytest.mark.parametrize("seed", range(6))
def test_single_map_steps_match_scratch_and_merge(seed):
    new, old = run_steps(seed, NEW), run_steps(seed, OLD)
    assert len(new) == len(old) == 11
    for i, (n, o) in enumerate(zip(new, old)):
        (st_n, q_n, prf_n, unc_n, out_n), (st_o, q_o, prf_o, unc_o, out_o) \
            = n, o
        assert_same_state(st_n, st_o)
        assert q_n == q_o, i
        assert unc_n == 0
        assert prf_n == prf_o - unc_o, i
        assert out_n == out_o, i  # r and d, from the same server seed
    # the erasing passes of the two basis tests and two phase tables hashed
    assert new[-1][3] == 0 < old[-1][3]
    # the basis tests returned their r, the padded Hadamard tests a d
    assert all(isinstance(out, str) for *_, out in new[4:6] + new[-3:])


def test_qfac8_matches_scratch_register_server():
    def run(server_cls):
        oracle = RandomOracle(41)
        server = server_cls(oracle, seed=42)
        rng = random.Random(43)
        pair = sample_key_pair(rng, 6)
        reg = server.prepare_gadget("g", pair)
        prf_calls = counting_prf(oracle)
        params = ProtocolParams(pad_len=6, kappa_out=8, test_rounds=2)
        qb, tr = run_alone(qfac8, oracle, (pair, reg), params, server, rng)
        return (qb, tr.serialize(), dict(oracle.counters), prf_calls[0],
                getattr(oracle, "uncompute_prf", 0), snapshot(server.state))

    new, old = run(HonestServer), run(OldServer)
    (qb_n, tr_n, q_n, prf_n, unc_n, st_n) = new
    (qb_o, tr_o, q_o, prf_o, unc_o, st_o) = old
    assert tr_n.endswith("verdict\tpass\t\n")
    assert (tr_n, q_n, qb_n.angle) == (tr_o, q_o, qb_o.angle)
    assert unc_n == 0 < unc_o
    assert prf_n == prf_o - unc_o
    assert_same_amplitudes({0: qb_n.alpha, 1: qb_n.beta},
                           {0: qb_o.alpha, 1: qb_o.beta})
    assert_same_state(st_n, st_o)


def test_pipeline_matches_scratch_and_merge_server():
    def run(server_cls):
        oracle = RandomOracle(4)
        server = server_cls(oracle, seed=5)
        prf_calls = counting_prf(oracle)
        cfg = PipelineConfig(L=4, N=2, **SMALL_PIPELINE)
        out, tr, _ = gdgprep_full(oracle, cfg, server, random.Random(6))
        return (out, tr.serialize(), dict(oracle.counters), prf_calls[0],
                getattr(oracle, "uncompute_prf", 0), snapshot(server.state))

    new, old = run(HonestServer), run(OldServer)
    assert new[1].endswith("verdict\tpass\t\n")
    assert new[:3] == old[:3]
    assert new[4] == 0 < old[4]
    assert new[3] == old[3] - old[4]
    assert_same_state(new[5], old[5])


# -- failing closed -----------------------------------------------------------


def refresh_world():
    oracle = RandomOracle(31)
    server = HonestServer(oracle, seed=32)
    rng = random.Random(33)
    g, lam = sample_key_pair(rng, 4), sample_key_pair(rng, 4)
    server.prepare_gadget("g", g)
    server.prepare_gadget("lam", lam)
    return oracle, server, rng, g, lam


def refresh_table(oracle, rng, pair, lam, payload):
    """A refresh table keyed by ``pair``'s keys followed by ``lam``'s."""
    return tables.lt_build(oracle, [(pair[b] + lam[b2], payload)
                                    for b in (0, 1) for b2 in (0, 1)],
                           8, rng)


def test_extend_gadget_fails_closed_on_an_unopened_key():
    oracle, server, rng, g, lam = refresh_world()
    # built for another gadget: no row opens under the register's keys
    table = refresh_table(oracle, rng, sample_key_pair(rng, 4), lam, "1" * 8)
    before = snapshot(server.state)
    with pytest.raises(tables.UndecryptableBranch):
        server.extend_gadget("g", "lam", table)
    assert snapshot(server.state) == before


def test_extend_gadget_fails_closed_on_a_wrong_payload_width():
    oracle, server, rng, g, lam = refresh_world()
    table = refresh_table(oracle, rng, g, lam, "01" * 4)
    # a header that disagrees with the rows' 8-bit payloads
    lying = tables.LookupTable(table.rows, 6, table.key_len)
    before = snapshot(server.state)
    with pytest.raises(ValueError, match="image width"):
        server.extend_gadget("g", "lam", lying)
    assert snapshot(server.state) == before
    # the honest header extends every branch by the opened payload
    server.extend_gadget("g", "lam", table)
    assert server.state.registers == [("g", 12), ("lam", 4)]
    assert {k[0] for k in expand(server.state)} == {g.x0 + "01" * 4,
                                                     g.x1 + "01" * 4}


def test_refresh_and_padded_hadamard_are_one_map_each(monkeypatch):
    oracle, server, rng, g, lam = refresh_world()
    table = refresh_table(oracle, rng, g, lam, "01" * 4)
    calls = []
    for name in ("add_register", "merge_registers", "map_register"):
        def spy(self, *args, _name=name, _orig=getattr(SparseState, name),
                **kwargs):
            calls.append(_name)
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(SparseState, name, spy)
    server.extend_gadget("g", "lam", table)
    d = server.respond_pad_hadamard("g", random_bits(rng, 8), 8)
    # no scratch register, no merge: one value map per step
    assert calls == ["map_register", "map_register"]
    assert len(d) == 4 + 8 + 8
    assert server.state.registers == [("lam", 4)]


def test_basis_test_and_phase_table_fail_closed_on_an_unopened_key():
    oracle, server, rng, g, lam = refresh_world()
    # x0 opens a row, x1 opens none
    half = KeyPair(g.x0, next(v for v in ("0000", "0001", "0010")
                              if v not in (g.x0, g.x1)))
    table = tables.lt_build(oracle, [(half.x0, "1" * 8), (half.x1, "1" * 8)],
                            8, rng)
    ptable = tables.phase_lt_build(oracle, half, 3, 8, rng)
    before, draws = snapshot(server.state), server.rng.getstate()
    for step in (lambda: server.respond_basis_test("g", table),
                 lambda: tables.phase_eval(oracle, server.state, "g",
                                           ptable)):
        with pytest.raises(tables.UndecryptableBranch):
            step()
        assert snapshot(server.state) == before
        assert server.rng.getstate() == draws


def test_basis_test_and_phase_table_are_one_state_call_each(monkeypatch):
    oracle, server, rng, g, lam = refresh_world()
    r = random_bits(rng, 8)
    table = tables.lt_build(oracle, [(g.x0, r), (g.x1, r)], 8, rng)
    ptable = tables.phase_lt_build(oracle, g, 3, 8, rng)
    calls = []
    for name, fn in list(vars(SparseState).items()):
        if not inspect.isfunction(fn) or name.startswith("_"):
            continue

        def spy(self, *args, _name=name, _orig=fn, **kwargs):
            calls.append(_name)
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(SparseState, name, spy)
    assert server.respond_basis_test("g", table) == r
    tables.phase_eval(oracle, server.state, "g", ptable)
    # no scratch register to add, erase or discard
    assert calls == ["measure_computational", "apply_phase_per_branch"]
    assert server.state.registers == [("g", 4), ("lam", 4)]
