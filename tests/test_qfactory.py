"""Eight-basis qubit preparation and the blind cluster computation."""

import cmath
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

from bqcsim import qfactory as qf
from bqcsim import tables
from bqcsim.keychain import sample_key_pair
from bqcsim.oracle import RandomOracle
from bqcsim.protocols import HonestServer, ProtocolParams
from conftest import SMALL_PIPELINE, fidelity_vs_angle


def make_qfac(seed, width=5):
    o = RandomOracle(seed)
    srv = HonestServer(o, seed=seed + 1)
    rng = random.Random(seed ^ 0xF00)
    params = ProtocolParams(pad_len=6, kappa_out=8, test_rounds=2)
    pair = sample_key_pair(rng, width)
    reg = srv.prepare_gadget("g", pair)
    return qf.qfac8(o, (pair, reg), params, srv, rng)


@pytest.mark.parametrize("answer", [None, 5, "0101", "01x10"])
def test_qfac8_fails_closed_on_malformed_d(answer):
    class BadD(HonestServer):
        def respond_phase_table(self, reg, table, qubit_reg):
            super().respond_phase_table(reg, table, qubit_reg)
            return answer

    o = RandomOracle(3)
    srv = BadD(o, seed=4)
    rng = random.Random(5)
    params = ProtocolParams(pad_len=6, kappa_out=8, test_rounds=1)
    pair = sample_key_pair(rng, 5)
    qb, tr = qf.qfac8(o, (pair, srv.prepare_gadget("g", pair)), params,
                      srv, rng)
    assert qb is None
    assert (tr.verdict, tr.fail_reason) == ("fail", "malformed d")


class WrongR(HonestServer):
    """Flips the first bit of every basis-test answer."""

    def respond_basis_test(self, reg, table):
        r = super().respond_basis_test(reg, table)
        return "10"[int(r[0])] + r[1:]


def test_qfac8_fails_closed_on_a_failed_basis_test():
    o = RandomOracle(3)
    srv = WrongR(o, seed=4)
    rng = random.Random(5)
    params = ProtocolParams(pad_len=6, kappa_out=8, test_rounds=2)
    pair = sample_key_pair(rng, 5)
    qb, tr = qf.qfac8(o, (pair, srv.prepare_gadget("g", pair)), params,
                      srv, rng)
    assert qb is None
    assert (tr.verdict, tr.fail_reason) == (
        "fail", "basis test: round 0: wrong r")
    # no phase table follows the failed test
    assert [t for _, t, _ in tr.messages] == ["bt.table", "bt.r"]


class NoMeasure(HonestServer):
    """Answers with a well-formed d but leaves the key register unmeasured,
    so the prepared qubit stays entangled with it."""

    def respond_phase_table(self, reg, table, qubit_reg):
        def index(old, val):
            opens = tables.dec_row(self.oracle, table.rows[0], val, "server")
            return "1" if opens is None else "0"

        self.state.add_register(qubit_reg, "0")
        self.state.map_register(qubit_reg, index, keys=[reg])
        return "0" * self.state.width(reg)


class NoIndexRegister(HonestServer):
    """Never creates the register that should hold the prepared qubit."""

    def respond_phase_table(self, reg, table, qubit_reg):
        tables.phase_eval(self.oracle, self.state, reg, table)
        return self.state.measure_hadamard(reg, self.rng)


class WideQubit(HonestServer):
    """Prepares the qubit honestly, then widens its register to two bits."""

    def respond_phase_table(self, reg, table, qubit_reg):
        d = super().respond_phase_table(reg, table, qubit_reg)
        self.state.map_register(qubit_reg, lambda v, _: v + "0", width=2)
        return d


HAND_OFF_CHEATS = [(NoMeasure, "hand-off: entangled discard"),
                   (NoIndexRegister, "hand-off: no register named 'g_q'"),
                   (WideQubit, "hand-off: 'g_q' is not one bit wide")]


@pytest.mark.parametrize("server_cls,reason", HAND_OFF_CHEATS)
def test_qfac8_fails_closed_when_the_qubit_cannot_be_handed_off(server_cls,
                                                               reason):
    o = RandomOracle(3)
    srv = server_cls(o, seed=4)
    rng = random.Random(5)
    params = ProtocolParams(pad_len=6, kappa_out=8, test_rounds=1)
    pair = sample_key_pair(rng, 5)
    qb, tr = qf.qfac8(o, (pair, srv.prepare_gadget("g", pair)), params,
                      srv, rng)
    assert qb is None
    assert (tr.verdict, tr.fail_reason) == ("fail", reason)


def perfect_qubit(octant):
    s = 1 / math.sqrt(2)
    return qf.PreparedQubit(
        s, s * cmath.exp(1j * qf.OCTANT * octant), octant)


def test_qfac8_prepares_the_claimed_plus_state():
    for seed in range(40):
        qb, tr = make_qfac(seed)
        assert tr.passed, tr.fail_reason
        assert fidelity_vs_angle(qb) > 1 - 1e-9


def test_qfac8_theta1_roughly_uniform():
    t1 = [make_qfac(seed)[0].angle >> 2 for seed in range(300)]
    assert 0.4 < sum(t1) / len(t1) < 0.6


def test_qfac8_angles_hit_all_octants():
    seen = {make_qfac(seed)[0].angle for seed in range(120)}
    assert seen == set(range(8))


def test_j_gate_matrix():
    j0 = qf.j_gate(0.0)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(j0, h)


def test_dense_output_prob_known_circuits():
    # J(0) = H: H|+> = |0>, so a single zero-angle gate outputs 0
    assert qf.dense_output_prob([0]) < 1e-12
    # two H's: H H |+> = |+>, Z-measurement is a coin flip
    assert abs(qf.dense_output_prob([0, 0]) - 0.5) < 1e-12
    # J(4)=H Z: H Z |+> = |1>
    assert qf.dense_output_prob([4]) > 1 - 1e-12


def skewed_qubit(octant, t):
    """|alpha| = cos(t), |beta| = sin(t): an imperfect preparation."""
    return qf.PreparedQubit(
        math.cos(t), math.sin(t) * cmath.exp(1j * (qf.OCTANT * octant + t)),
        octant)


def complex_qubit(octant, t):
    """An imperfect preparation whose alpha is complex too, as qfac8 can
    extract it from the server state (skewed_qubit's alpha is real)."""
    return qf.PreparedQubit(
        math.cos(t) * cmath.exp(1j * (0.9 - 2 * t)),
        math.sin(t) * cmath.exp(1j * (qf.OCTANT * octant + 0.4 + t)),
        octant)


# -- per-shot reference for the batched kernel -----------------------------

_CZ = np.diag([1, 1, 1, -1]).astype(complex)


def ref_reblind(qubit, k):
    return qf.PreparedQubit(
        qubit.alpha, qubit.beta * cmath.exp(1j * qf.OCTANT * k),
        (qubit.angle + k) % 8)


def ref_run(qubits, circuit_octants, r, u):
    """One shot with explicit kron/CZ state vectors and given draws.

    Returns (output bit, deltas, raw outcomes, P(m=0) per gate followed by
    P(1) of the final Z measurement, final x frame bit).
    """
    carrier = np.array([qubits[0].alpha, qubits[0].beta], dtype=complex)
    x = z = 0
    deltas, outcomes, probs = [], [], []
    for i, phi in enumerate(circuit_octants):
        sign = -1 if x == 0 else 1
        delta = (qubits[i].angle + sign * phi + 4 * r[i]) % 8
        deltas.append(delta)

        nxt = np.array([qubits[i + 1].alpha, qubits[i + 1].beta],
                       dtype=complex)
        joint = _CZ @ np.kron(carrier, nxt)
        # project the carrier onto (|0> +/- exp(i*delta)|1>)/sqrt(2)
        e = cmath.exp(-1j * qf.OCTANT * delta)
        branch0 = (joint[0:2] + e * joint[2:4]) / math.sqrt(2)
        branch1 = (joint[0:2] - e * joint[2:4]) / math.sqrt(2)
        p0 = float(np.vdot(branch0, branch0).real)
        p1 = float(np.vdot(branch1, branch1).real)
        probs.append(p0 / (p0 + p1))
        m = 0 if u[i] * (p0 + p1) <= p0 else 1
        carrier = (branch0 if m == 0 else branch1)
        carrier = carrier / np.linalg.norm(carrier)
        outcomes.append(m)

        x, z = m ^ z ^ r[i], x
    p_one = float(abs(carrier[1]) ** 2)
    probs.append(p_one)
    o = 1 if u[-1] < p_one else 0
    return o ^ x, deltas, outcomes, probs, x


def replay_draws(seed, shots, n):
    """The draws ubqc_shots makes from random.Random(seed), in its order:
    shifts, r bits and uniforms per tile of ``SHOT_TILE`` shots, joined."""
    gen = np.random.default_rng(random.Random(seed).getrandbits(128))
    tiles = []
    for start in range(0, shots, qf.SHOT_TILE):
        size = min(qf.SHOT_TILE, shots - start)
        tiles.append((gen.integers(8, size=(size, n + 1)),
                      gen.integers(2, size=(size, n)),
                      gen.random((size, n + 1))))
    return tuple(np.concatenate(draw) for draw in zip(*tiles))


def ref_shots(qubits, circ, shifts, r, u):
    """``ref_run`` for every shot of the draws, on re-blinded qubits."""
    ref = []
    for s in range(len(u)):
        qs = [ref_reblind(q, int(k)) for q, k in zip(qubits, shifts[s])]
        ref.append(ref_run(qs, circ, [int(b) for b in r[s]], list(u[s])))
    return ref


def reference_circuit(make_qubit, gates):
    setup = random.Random(31)
    circ = [setup.randrange(8) for _ in range(gates)]
    return circ, [make_qubit(setup.randrange(8), i) for i in range(gates + 1)]


def assert_shots_match_reference(qubits, circ, seed, shots):
    ref = ref_shots(qubits, circ, *replay_draws(seed, shots, len(circ)))
    ones, deltas = qf.ubqc_shots(qubits, circ, random.Random(seed), shots)
    assert (ones, deltas.tolist()) == (
        sum(row[0] for row in ref), [d for row in ref for d in row[1]])


@pytest.mark.parametrize("make_qubit, gates, tile", [
    (lambda k, i: perfect_qubit(k), 3, None),
    (lambda k, i: skewed_qubit(k, 0.3 + 0.4 * i), 3, None),
    (lambda k, i: complex_qubit(k, 0.2 + 0.23 * i), 6, None),
    (lambda k, i: complex_qubit(k, 0.2 + 0.23 * i), 6, 64),
], ids=["perfect", "skewed", "complex-6-gates", "complex-6-gates-tile-64"])
def test_batched_kernel_matches_per_shot_reference(make_qubit, gates, tile,
                                                   monkeypatch):
    if tile is not None:
        monkeypatch.setattr(qf, "SHOT_TILE", tile)
    circ, qubits = reference_circuit(make_qubit, gates)
    n, shots, seed = len(circ), 300, 17
    shifts, r, u = replay_draws(seed, shots, n)

    ref = ref_shots(qubits, circ, shifts, r, u)
    ref_out = np.array([row[0] for row in ref])
    ref_deltas = np.array([row[1] for row in ref])
    ref_probs = np.array([row[3] for row in ref])
    ref_x = np.array([row[4] for row in ref])

    ones, deltas = qf.ubqc_shots(qubits, circ, random.Random(seed), shots)
    assert (ones, deltas.tolist()) == (int(ref_out.sum()),
                                       ref_deltas.ravel().tolist())
    angles = qf.reblind(qubits, shifts)
    out, deltas, outcomes = qf.ubqc_run(qubits, angles, circ, r, u)
    assert out.tolist() == ref_out.tolist()
    assert deltas.tolist() == ref_deltas.tolist()
    assert outcomes.tolist() == [row[2] for row in ref]

    # the kernel's outcome flips exactly where the reference probability
    # lies: a uniform 1e-12 below it gives m=0 (final Z: 1), above it m=1
    for j in range(n + 1):
        below, above = u.copy(), u.copy()
        below[:, j] = ref_probs[:, j] - 1e-12
        above[:, j] = ref_probs[:, j] + 1e-12
        out_b, _, m_b = qf.ubqc_run(qubits, angles, circ, r, below)
        out_a, _, m_a = qf.ubqc_run(qubits, angles, circ, r, above)
        if j < n:
            assert (m_b[:, j] == 0).all() and (m_a[:, j] == 1).all()
        else:
            assert (out_b == ref_x ^ 1).all() and (out_a == ref_x).all()


def test_complex_by_real_division_is_a_reciprocal_scaling():
    # ubqc_run scales the kept branch's bxy by 1/p_m instead of dividing by
    # p_m; that keeps every result bit only because numpy divides a complex
    # by a real p as the product with 1/p
    gen = np.random.default_rng(3)
    c = gen.standard_normal(10_000) + 1j * gen.standard_normal(10_000)
    p = gen.random(10_000) + 1e-3
    assert ((c / p).view(np.int64) == (c * (1.0 / p)).view(np.int64)).all()


def test_ubqc_run_needs_matching_qubit_count():
    qubits = [perfect_qubit(0)]
    angles = qf.reblind(qubits, np.zeros((5, 1), int))
    with pytest.raises(ValueError):
        qf.ubqc_run(qubits, angles, [1, 2], np.zeros((5, 2), int),
                    np.zeros((5, 3)))


def test_ubqc_shots_returns_one_flat_int8_array_of_deltas():
    qubits = [complex_qubit(k, 0.3 * k) for k in (4, 1, 6, 3)]
    for shots in (1, 7, qf.SHOT_TILE + 3):
        ones, deltas = qf.ubqc_shots(qubits, [2, 7, 5], random.Random(4),
                                     shots)
        assert type(ones) is int and 0 <= ones <= shots
        assert isinstance(deltas, np.ndarray)
        assert deltas.dtype == np.int8 and deltas.shape == (3 * shots,)
        assert deltas.flags.c_contiguous
        assert deltas.min() >= 0 and deltas.max() <= 7


def test_ubqc_shots_memory_stays_within_one_tile():
    # shots run tile by tile, so 16 or 64 tiles' worth of shots needs no
    # more memory than one tile, less the returned deltas, which cost one
    # byte each plus the array header
    qubits = [perfect_qubit(k) for k in (1, 3, 6, 0)]

    def peak(shots):
        tracemalloc.start()
        try:
            _, deltas = qf.ubqc_shots(qubits, [1, 3, 6], random.Random(5),
                                      shots)
            return tracemalloc.get_traced_memory()[1], sys.getsizeof(deltas)
        finally:
            tracemalloc.stop()

    header = sys.getsizeof(np.empty(0, dtype=np.int8))
    peak(qf.SHOT_TILE)  # the first call also sets up numpy's own state
    one_tile, _ = peak(qf.SHOT_TILE)
    for tiles in (16, 64):
        total, deltas = peak(tiles * qf.SHOT_TILE)
        assert deltas <= 3 * tiles * qf.SHOT_TILE + header, tiles
        assert total - deltas <= 1.25 * one_tile, tiles


@pytest.mark.parametrize("shots", [1, 6, 7, 8, 49, 50, 51, 123])
def test_ubqc_shots_tiles_are_invisible(monkeypatch, shots):
    # the tile fixes only how the draws group, in 50-shot tiles here: the
    # first tile draws what a call of as many shots draws, later tiles go
    # on drawing from the same generator, and every shot matches the
    # per-shot reference on its tile's draws
    qubits = [complex_qubit(k, 0.3 * k) for k in (4, 1, 6, 3)]
    circ = [2, 7, 5]
    head = min(shots, 50)
    _, first = qf.ubqc_shots(qubits, circ, random.Random(shots), head)
    monkeypatch.setattr(qf, "SHOT_TILE", 50)
    _, deltas = qf.ubqc_shots(qubits, circ, random.Random(shots), shots)
    assert np.array_equal(deltas[:3 * head], first)
    assert len(deltas) == 3 * shots
    if shots >= 100:
        assert not np.array_equal(deltas[150:300], deltas[:150])
    assert_shots_match_reference(qubits, circ, shots, shots)


def test_ubqc_shots_chunks_continue_one_generator(monkeypatch):
    # the first tile draws what an untiled run of as many shots draws;
    # later tiles go on drawing from the same generator
    qubits = [perfect_qubit(k) for k in (2, 5, 7)]
    one_tile = qf.ubqc_shots(qubits, [4, 1], random.Random(8), 100)
    monkeypatch.setattr(qf, "SHOT_TILE", 100)
    ones, deltas = qf.ubqc_shots(qubits, [4, 1], random.Random(8), 250)
    assert np.array_equal(deltas[:200], one_tile[1]) and len(deltas) == 500
    assert not np.array_equal(deltas[200:400], deltas[:200])
    assert 0 <= ones <= 250


def test_ubqc_shots_calls_may_overlap(monkeypatch):
    # a delegation started while another runs leaves both results as they
    # are when each runs alone: no draw or buffer is shared between calls
    qubits = [complex_qubit(k, 0.3 * k) for k in (4, 1, 6, 3)]
    circ, shots = [2, 7, 5], 2 * qf.SHOT_TILE + 5
    outer = qf.ubqc_shots(qubits, circ, random.Random(5), shots)
    inner = qf.ubqc_shots(qubits, circ, random.Random(6), shots)
    run, nested = qf.ubqc_run, []

    def run_after_a_nested_delegation(*args):
        if not nested:
            nested.append(None)  # the nested delegation's passes skip this
            nested[0] = qf.ubqc_shots(qubits, circ, random.Random(6), shots)
        return run(*args)

    monkeypatch.setattr(qf, "ubqc_run", run_after_a_nested_delegation)
    ones, deltas = qf.ubqc_shots(qubits, circ, random.Random(5), shots)
    assert ones == outer[0] and np.array_equal(deltas, outer[1])
    [(nested_ones, nested_deltas)] = nested
    assert nested_ones == inner[0] and np.array_equal(nested_deltas, inner[1])


def test_ubqc_shots_rejects_fewer_than_one_shot():
    qubits = [perfect_qubit(0), perfect_qubit(1)]
    for shots in (0, -3):
        with pytest.raises(ValueError):
            qf.ubqc_shots(qubits, [2], random.Random(0), shots)


@pytest.mark.parametrize("trial", range(4))
def test_ubqc_matches_dense_oracle_with_perfect_qubits(trial):
    rng = random.Random(trial)
    n = rng.randrange(1, 4)
    circ = [rng.randrange(8) for _ in range(n)]
    qubits = [perfect_qubit(rng.randrange(8)) for _ in range(n + 1)]
    shots = 4000
    ones, _ = qf.ubqc_shots(qubits, circ, rng, shots)
    p = qf.dense_output_prob(circ)
    sigma = math.sqrt(max(p * (1 - p), 1e-4) / shots)
    assert abs(ones / shots - p) < 5 * sigma + 0.01


def test_ubqc_deltas_uniform_with_fresh_angles():
    rng = random.Random(11)
    circ = [3, 6]
    qubits = [perfect_qubit(rng.randrange(8)) for _ in range(3)]
    _, deltas = qf.ubqc_shots(qubits, circ, rng, 2000)
    values = deltas.tolist()
    counts = [values.count(k) for k in range(8)]
    n = len(deltas)
    for c in counts:
        assert abs(c / n - 1 / 8) < 0.03


def test_reblind_shifts_angle_and_keeps_fidelity():
    qubits = [perfect_qubit(3), skewed_qubit(6, 0.4), complex_qubit(1, 0.7)]
    shifts = np.arange(24).reshape(8, 3) % 8
    angles = qf.reblind(qubits, shifts)
    assert angles.tolist() == ((np.array([3, 6, 1]) + shifts) % 8).tolist()
    # the shifted preparation the angles stand for keeps the amplitudes'
    # moduli and the fidelity: an imperfect one stays exactly as imperfect
    for q, column, ks in zip(qubits, angles.T, shifts.T):
        for angle, k in zip(column, ks):
            shifted = ref_reblind(q, int(k))
            assert shifted.angle == angle
            assert abs(abs(shifted.alpha) - abs(q.alpha)) < 1e-15
            assert abs(abs(shifted.beta) - abs(q.beta)) < 1e-15
            assert abs(fidelity_vs_angle(shifted)
                       - fidelity_vs_angle(q)) < 1e-12
    assert abs(fidelity_vs_angle(qubits[0]) - 1) < 1e-12


def test_succ_ubqc_end_to_end():
    from bqcsim.gadget_prep import PipelineConfig

    o = RandomOracle(21)
    srv = HonestServer(o, seed=22)
    cfg = PipelineConfig(L=4, N=2, J=1, **SMALL_PIPELINE)
    circ = [2, 5]
    shots = 3000
    ones, deltas, tr = qf.succ_ubqc(o, cfg, circ, srv, random.Random(7),
                                    shots=shots)
    assert tr.passed
    p = qf.dense_output_prob(circ)
    assert abs(ones / shots - p) < 0.04
    assert len(deltas) == shots * len(circ)


def test_succ_ubqc_rejects_oversized_circuit():
    from bqcsim.gadget_prep import PipelineConfig

    o = RandomOracle(23)
    srv = HonestServer(o, seed=24)
    cfg = PipelineConfig(L=4, N=2, J=1, **SMALL_PIPELINE)
    ones, _, tr = qf.succ_ubqc(o, cfg, [1] * 9, srv, random.Random(1))
    assert ones is None and not tr.passed


def test_succ_ubqc_refuses_a_too_large_circuit_before_the_pipeline():
    from bqcsim.gadget_prep import PipelineConfig

    # a passing pipeline yields exactly L gadgets: 2 cannot run 3 gates
    o = RandomOracle(23)
    srv = HonestServer(o, seed=24)
    cfg = PipelineConfig(L=2, N=2, J=1, **SMALL_PIPELINE)
    ones, deltas, tr = qf.succ_ubqc(o, cfg, [1, 2, 3], srv, random.Random(1))
    assert (ones, deltas) == (None, [])
    assert (tr.verdict, tr.fail_reason) == ("fail", "L=2 too small for 3 gates")
    assert (tr.messages, srv.state.registers, o.counters) == ([], [], {})


def test_succ_ubqc_keeps_the_qfactory_fail_reason():
    from bqcsim.gadget_prep import PipelineConfig

    class BadD(HonestServer):
        def respond_phase_table(self, reg, table, qubit_reg):
            super().respond_phase_table(reg, table, qubit_reg)
            return "01x10"

    o = RandomOracle(21)
    srv = BadD(o, seed=22)
    cfg = PipelineConfig(L=4, N=2, J=1, **SMALL_PIPELINE)
    ones, deltas, tr = qf.succ_ubqc(o, cfg, [2, 5], srv, random.Random(7))
    assert (ones, deltas) == (None, [])
    assert (tr.verdict, tr.fail_reason) == ("fail", "qfactory: malformed d")
    assert tr.messages[-1] == ("server", "qf.d", "01x10")


def test_succ_ubqc_fails_closed_when_the_pipeline_fails():
    from bqcsim.gadget_prep import PipelineConfig

    o = RandomOracle(21)
    srv = WrongR(o, seed=22)
    cfg = PipelineConfig(L=4, N=2, J=1, **SMALL_PIPELINE)
    ones, deltas, tr = qf.succ_ubqc(o, cfg, [2, 5], srv, random.Random(7))
    assert (ones, deltas) == (None, [])
    assert (tr.verdict, tr.fail_reason) == (
        "fail", "1pn: basis test: round 0: wrong r")
    assert not any(t.startswith("qf.") for _, t, _ in tr.messages)


@pytest.mark.parametrize("server_cls", [cls for cls, _ in HAND_OFF_CHEATS])
def test_succ_ubqc_fails_closed_when_the_qubit_cannot_be_handed_off(
        server_cls):
    from bqcsim.gadget_prep import PipelineConfig

    o = RandomOracle(21)
    srv = server_cls(o, seed=22)
    cfg = PipelineConfig(L=4, N=2, J=1, **SMALL_PIPELINE)
    ones, deltas, tr = qf.succ_ubqc(o, cfg, [2, 5], srv, random.Random(7))
    assert (ones, deltas) == (None, [])
    assert tr.verdict == "fail"
    assert tr.fail_reason.startswith("qfactory: hand-off: ")
