"""Single-map server steps against the scratch-and-merge sequences they replace.

``HonestServer.extend_gadget`` and ``respond_pad_hadamard`` append to the
gadget register in one value map, and ``tables.rev_eval`` merges its inputs
before the forward pass. Each reference below writes out the earlier
sequence: a scratch register, a coherent evaluation into it, then a merge.
Both are run on equal seeds and must agree on the state, the query charges,
the hash evaluations and every measurement outcome.
"""

import random

import pytest

from bqcsim import tables
from bqcsim.bits import int_to_bits, random_bits
from bqcsim.gadget_prep import PipelineConfig, gdgprep_full
from bqcsim.keychain import sample_key_pair
from bqcsim.oracle import RandomOracle
from bqcsim.protocols import HonestServer
from bqcsim.state import SparseState


# -- the scratch-and-merge sequences ----------------------------------------


def old_extend_gadget(server, reg, lam_reg, table):
    st = server.state
    scratch = st.fresh_name("ext")
    st.add_register(scratch, "0" * table.payload_len)
    tables.lt_eval_coherent(server.oracle, st, [reg, lam_reg], scratch, table)
    st.merge_registers([reg, scratch], reg)


def old_respond_pad_hadamard(server, reg, pad, kappa_out):
    st, oracle = server.state, server.oracle
    h = st.fresh_name("ph_h")
    st.add_register(h, "0" * kappa_out)
    # the XOR form of a superposed query: H(pad || reg) into h
    oracle.count("server")
    st.map_register(h, lambda vout, vin: int_to_bits(
        int(vout, 2) ^ oracle._prf(pad + vin, kappa_out), kappa_out),
        keys=[reg])
    w = st.fresh_name("ph_w")
    st.merge_registers([reg, h], w)
    return st.measure_hadamard(w, server.rng)


def old_rev_eval(oracle, state, controls, in_regs, table, out_reg):
    state.add_register(out_reg, "0" * table.forward.payload_len)
    tables.lt_eval_coherent(oracle, state, controls + in_regs, out_reg,
                            table.forward)
    merged = state.merge_registers(in_regs, state.fresh_name("zin"))
    tables.lt_eval_coherent(oracle, state, controls + [out_reg], merged,
                            table.backward)
    state.discard_register(merged)
    return out_reg


class OldServer(HonestServer):
    def extend_gadget(self, reg, lam_reg, table):
        old_extend_gadget(self, reg, lam_reg, table)

    def respond_pad_hadamard(self, reg, pad, kappa_out):
        return old_respond_pad_hadamard(self, reg, pad, kappa_out)

    def eval_robust(self, help_reg, k2, x3_reg, table, out_reg):
        k2_reg = self.state.fresh_name("k2")
        self.state.add_gadget(k2_reg, k2.x0, k2.x1)
        return old_rev_eval(self.oracle, self.state, [help_reg],
                            [k2_reg, x3_reg], table, out_reg)


NEW = (HonestServer.extend_gadget, HonestServer.respond_pad_hadamard,
       tables.rev_eval)
OLD = (old_extend_gadget, old_respond_pad_hadamard, old_rev_eval)


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
    return state.registers, state.components(), dict(state.branches)


def assert_same_state(a, b):
    regs_a, comps_a, br_a = a
    regs_b, comps_b, br_b = b
    assert regs_a == regs_b
    assert comps_a == comps_b
    assert br_a.keys() == br_b.keys()
    first = next(iter(br_a))
    phase = br_b[first] / br_a[first]
    assert abs(abs(phase) - 1) < 1e-12
    for k, amp in br_a.items():
        assert abs(amp * phase - br_b[k]) < 1e-12


def run_steps(seed, steps):
    """Reversible tables, a refresh extension and padded Hadamard tests.

    Returns, after each step, the state, the query counters, the number of
    ``_prf`` calls and the step's outcome.
    """
    extend, pad_hadamard, rev_eval = steps
    oracle = RandomOracle(seed)
    server = HonestServer(oracle, seed=seed + 1)
    st = server.state
    rng = random.Random(seed + 2)
    prf_calls = counting_prf(oracle)
    log = []

    def record(outcome=None):
        log.append((snapshot(st), dict(oracle.counters), prf_calls[0],
                    outcome))

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
    for reg, values in (("h", [kh.x0, kh.x1]),
                        ("z", [q1[b1] + q2[b2] for b1 in (0, 1)
                               for b2 in (0, 1)])):
        lam = sample_key_pair(rng, 4)
        lam_reg = server.prepare_gadget(f"lam_{reg}", lam)
        y = sample_key_pair(rng, 8)
        table = tables.lt_build(oracle, [(v + lam[b2], y[i & 1])
                                         for i, v in enumerate(values)
                                         for b2 in (0, 1)], 8, 8, rng)
        record(extend(server, reg, lam_reg, table))

    # padded Hadamard tests: on lone gadgets and on the entangled helper
    for reg in ("lam_h", "h", "lam_z"):
        pad = random_bits(rng, 8)
        record(pad_hadamard(server, reg, pad, 8))
    return log


@pytest.mark.parametrize("seed", range(6))
def test_single_map_steps_match_scratch_and_merge(seed):
    new, old = run_steps(seed, NEW), run_steps(seed, OLD)
    assert len(new) == len(old) == 7
    for i, ((st_n, q_n, prf_n, out_n), (st_o, q_o, prf_o, out_o)) in \
            enumerate(zip(new, old)):
        assert_same_state(st_n, st_o)
        assert q_n == q_o, i
        assert prf_n == prf_o, i
        assert out_n == out_o, i  # the padded Hadamard d, same server seed
    # the three padded Hadamard tests each returned a d
    assert all(isinstance(out, str) for *_, out in new[-3:])


def test_pipeline_matches_scratch_and_merge_server():
    def run(server_cls):
        oracle = RandomOracle(4)
        server = server_cls(oracle, seed=5)
        prf_calls = counting_prf(oracle)
        out, tr, _ = gdgprep_full(oracle, PipelineConfig(L=4, N=2), server,
                                  random.Random(6))
        return (out, tr.serialize(), dict(oracle.counters), prf_calls[0],
                snapshot(server.state))

    new, old = run(HonestServer), run(OldServer)
    assert new[1].endswith("verdict\tpass\t\n")
    assert new[:4] == old[:4]
    assert_same_state(new[4], old[4])


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
                           8, 8, rng)


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
    assert {k[0] for k in server.state.branches} == {g.x0 + "01" * 4,
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
