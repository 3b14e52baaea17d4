"""Eight-basis qubit preparation and the blind cluster computation."""

import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest

from bqcsim import qfactory as qf
from bqcsim.keychain import sample_key_pair
from bqcsim.oracle import RandomOracle
from bqcsim.protocols import HonestServer, ProtocolParams
from conftest import fidelity_vs_angle


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
        def phase_and_measure(self, reg, ptable):
            super().phase_and_measure(reg, ptable)
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


class NoMeasure(HonestServer):
    """Answers with a well-formed d but leaves the key register unmeasured,
    so the prepared qubit stays entangled with it."""

    def phase_and_measure(self, reg, ptable):
        return "0" * self.state.width(reg)


class NoIndexRegister(HonestServer):
    """Never creates the register that should hold the prepared qubit."""

    def derive_index_register(self, reg, ptable, idx_reg):
        return idx_reg


HAND_OFF_CHEATS = [(NoMeasure, "hand-off: entangled discard"),
                   (NoIndexRegister, "hand-off: no register named 'qb1'")]


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
    """The draws ubqc_shots makes from random.Random(seed), in its order."""
    gen = np.random.default_rng(random.Random(seed).getrandbits(128))
    return (gen.integers(8, size=(shots, n + 1)),
            gen.integers(2, size=(shots, n)), gen.random((shots, n + 1)))


@pytest.mark.parametrize("make_qubit, gates", [
    (lambda k, i: perfect_qubit(k), 3),
    (lambda k, i: skewed_qubit(k, 0.3 + 0.4 * i), 3),
    (lambda k, i: complex_qubit(k, 0.2 + 0.23 * i), 6),
], ids=["perfect", "skewed", "complex-6-gates"])
def test_batched_kernel_matches_per_shot_reference(make_qubit, gates):
    setup = random.Random(31)
    circ = [setup.randrange(8) for _ in range(gates)]
    n, shots, seed = len(circ), 300, 17
    qubits = [make_qubit(setup.randrange(8), i) for i in range(n + 1)]
    shifts, r, u = replay_draws(seed, shots, n)

    ref = []
    for s in range(shots):
        qs = [ref_reblind(q, int(k)) for q, k in zip(qubits, shifts[s])]
        ref.append(ref_run(qs, circ, [int(b) for b in r[s]], list(u[s])))
    ref_out = np.array([row[0] for row in ref])
    ref_deltas = np.array([row[1] for row in ref])
    ref_probs = np.array([row[3] for row in ref])
    ref_x = np.array([row[4] for row in ref])

    assert qf.ubqc_shots(qubits, circ, random.Random(seed), shots) == (
        int(ref_out.sum()), ref_deltas.ravel().tolist())
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


def test_ubqc_run_needs_matching_qubit_count():
    qubits = [perfect_qubit(0)]
    angles = qf.reblind(qubits, np.zeros((5, 1), int))
    with pytest.raises(ValueError):
        qf.ubqc_run(qubits, angles, [1, 2], np.zeros((5, 2), int),
                    np.zeros((5, 3)))


def test_ubqc_shots_memory_stays_within_one_chunk():
    # shots run in chunks, so four chunks' worth of shots needs little more
    # memory than one chunk (only the returned deltas grow)
    qubits = [perfect_qubit(k) for k in (1, 3, 6, 0)]
    peaks = []
    for shots in (qf.SHOT_CHUNK, 4 * qf.SHOT_CHUNK):
        tracemalloc.start()
        try:
            qf.ubqc_shots(qubits, [1, 3, 6], random.Random(5), shots)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_ubqc_shots_chunks_continue_one_generator(monkeypatch):
    # the first chunk draws what an unchunked run of as many shots draws;
    # later chunks go on drawing from the same generator
    qubits = [perfect_qubit(k) for k in (2, 5, 7)]
    one_chunk = qf.ubqc_shots(qubits, [4, 1], random.Random(8), 100)
    monkeypatch.setattr(qf, "SHOT_CHUNK", 100)
    ones, deltas = qf.ubqc_shots(qubits, [4, 1], random.Random(8), 250)
    assert deltas[:200] == one_chunk[1] and len(deltas) == 500
    assert deltas[200:400] != deltas[:200]
    assert 0 <= ones <= 250


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
    counts = [deltas.count(k) for k in range(8)]
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
    cfg = PipelineConfig(L=4, N=2, key_width=4, kappa_out=8, pad_base=4, J=1)
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
    cfg = PipelineConfig(L=4, N=2, key_width=4, kappa_out=8, pad_base=4, J=1)
    ones, _, tr = qf.succ_ubqc(o, cfg, [1] * 9, srv, random.Random(1))
    assert ones is None and not tr.passed


def test_succ_ubqc_keeps_the_qfactory_fail_reason():
    from bqcsim.gadget_prep import PipelineConfig

    class BadD(HonestServer):
        def phase_and_measure(self, reg, ptable):
            super().phase_and_measure(reg, ptable)
            return "01x10"

    o = RandomOracle(21)
    srv = BadD(o, seed=22)
    cfg = PipelineConfig(L=4, N=2, key_width=4, kappa_out=8, pad_base=4, J=1)
    ones, deltas, tr = qf.succ_ubqc(o, cfg, [2, 5], srv, random.Random(7))
    assert (ones, deltas) == (None, [])
    assert (tr.verdict, tr.fail_reason) == ("fail", "qfactory: malformed d")
    assert tr.messages[-1] == ("server", "qf.d", "01x10")


@pytest.mark.parametrize("server_cls", [cls for cls, _ in HAND_OFF_CHEATS])
def test_succ_ubqc_fails_closed_when_the_qubit_cannot_be_handed_off(
        server_cls):
    from bqcsim.gadget_prep import PipelineConfig

    o = RandomOracle(21)
    srv = server_cls(o, seed=22)
    cfg = PipelineConfig(L=4, N=2, key_width=4, kappa_out=8, pad_base=4, J=1)
    ones, deltas, tr = qf.succ_ubqc(o, cfg, [2, 5], srv, random.Random(7))
    assert (ones, deltas) == (None, [])
    assert tr.verdict == "fail"
    assert tr.fail_reason.startswith("qfactory: hand-off: ")
