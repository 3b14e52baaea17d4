"""Eight-basis remote state preparation and the blind-computation layer.

``qfac8`` turns one prepared gadget into a single server-side qubit
(|0> + exp(i*theta)|1>)/sqrt(2) whose angle theta = pi*k/4 is known only to
the client: theta2/theta3 come from the client's phase table, theta1 from
the server's Hadamard outcome on the key register.

On top of the prepared qubits, ``ubqc_run`` executes a 1D-cluster
measurement-based computation of a J-gate circuit (J(phi) = H Rz(phi)) with
blinded measurement angles, for all shots (>= 1) of a delegation in one
numpy pass, each shot on freshly re-blinded qubits. ``succ_ubqc`` chains the
full gadget pipeline, the qfactory, and the cluster computation end to end.
A dense statevector evaluator of the same circuits serves as the comparison
oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import tables
from .bits import dot
from .gadget_prep import Gadget, PipelineConfig, gdgprep_full
from .protocols import (ProtocolParams, Transcript, basis_test_multi,
                        is_bitstring)

OCTANT = math.pi / 4


@dataclass(frozen=True)
class AngleOctant:
    """An angle k*pi/4 decomposed as pi*t1 + (pi/2)*t2 + (pi/4)*t3."""

    t1: int
    t2: int
    t3: int

    @property
    def index(self) -> int:
        return (4 * self.t1 + 2 * self.t2 + self.t3) % 8

    @property
    def radians(self) -> float:
        return OCTANT * self.index


@dataclass
class PreparedQubit:
    """A server-held qubit plus the client's secret angle for it."""

    alpha: complex
    beta: complex
    angle: AngleOctant

    def fidelity_vs_angle(self) -> float:
        """Overlap with the ideal (|0> + exp(i*theta)|1>)/sqrt(2)."""
        target = cmath.exp(1j * self.angle.radians)
        return abs(self.alpha + target.conjugate() * self.beta) ** 2 / 2


def qfac8(oracle, gadget: Gadget, params: ProtocolParams, server, rng):
    """One gadget -> one 8-basis qubit on the server.

    Returns (PreparedQubit | None, Transcript). The finished qubit is
    unentangled from the rest of the server state, so it is extracted into
    explicit amplitudes for the computation layer.
    """
    tr = Transcript()
    pair, reg = gadget

    bt = basis_test_multi(oracle, pair, reg, params.test_rounds, params,
                          server, rng)
    if not tr.absorb(bt, "basis test"):
        return None, tr

    t2, t3 = rng.randrange(2), rng.randrange(2)
    ptable = tables.phase_lt_build(oracle, pair, 2 * t2 + t3, 4,
                                   params.pad_len, rng)
    tr.send("client", "qf.phase_table", tables.serialize_table(ptable.table))

    idx_reg = server.state.fresh_name("qb")
    server.derive_index_register(reg, ptable, idx_reg)
    d = server.phase_and_measure(reg, ptable)
    tr.send("server", "qf.d", d)
    if not is_bitstring(d, pair.width):
        tr.finish(False, "malformed d")
        return None, tr

    t1 = dot(d, pair.delta())
    tr.finish(True)
    angle = AngleOctant(t1, t2, t3)
    g = server.state.discard_register(idx_reg)
    alpha, beta = g.get("0", 0j), g.get("1", 0j)
    return PreparedQubit(alpha, beta, angle), tr


# -- dense circuit oracle --------------------------------------------------


def j_gate(phi: float) -> np.ndarray:
    """J(phi) = H Rz(phi), the universal single-qubit building block."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    rz = np.diag([1, cmath.exp(1j * phi)])
    return h @ rz


def dense_output_prob(circuit_octants: list[int]) -> float:
    """P(output = 1) for J(phi_n)...J(phi_1)|+> measured in Z."""
    psi = np.array([1, 1], dtype=complex) / math.sqrt(2)
    for k in circuit_octants:
        psi = j_gate(OCTANT * k) @ psi
    return float(abs(psi[1]) ** 2)


# -- blind 1D-cluster computation ------------------------------------------

_PHASES = np.exp(-1j * OCTANT * np.arange(8))  # exp(-i*pi*delta/4) per octant


def reblind(qubits: list[PreparedQubit], shifts: np.ndarray):
    """Re-blind every qubit of every shot by a random octant.

    Models preparing fresh qubits for each shot without rerunning the
    factory: ``shifts[s, i]`` is the extra Rz(k*pi/4) on qubit i in shot s,
    which shifts its secret angle by k and leaves any preparation
    imperfection untouched. Returns (amplitudes of shape (shots, n+1, 2),
    angle octants of shape (shots, n+1)).
    """
    amps = np.empty(shifts.shape + (2,), dtype=complex)
    amps[..., 0] = [q.alpha for q in qubits]
    amps[..., 1] = np.array([q.beta for q in qubits]) * _PHASES[shifts].conj()
    angles = (np.array([q.angle.index for q in qubits]) + shifts) % 8
    return amps, angles


def ubqc_run(amps: np.ndarray, angles: np.ndarray,
             circuit_octants: list[int], r: np.ndarray, u: np.ndarray):
    """All blind shots of the circuit in one pass, one row per shot.

    Qubit i is entangled to its successor and measured at the blinded angle

        delta_i = theta_i - (-1)^x * phi_i + pi*r_i

    (as an octant index mod 8). With e = exp(-i*pi*delta/4), CZ and the
    projection of the carrier (c0, c1) onto (|0> +/- exp(i*delta)|1>)/sqrt(2)
    leave ((c0 +/- e*c1)*q0, (c0 -/+ e*c1)*q1)/sqrt(2) on the next qubit. A
    uniform u[:, i] above P(m=0) gives outcome m=1; the final Z measurement
    gives 1 iff u[:, n] < P(1). Byproduct frame: x' = m xor z xor r, z' = x;
    the output bit is corrected by x. Returns (output bits, delta octants,
    raw outcomes) of shapes (shots,), (shots, n), (shots, n).
    """
    shots, n = len(amps), len(circuit_octants)
    if amps.shape[1] != n + 1:
        raise ValueError("need n+1 qubits for an n-gate circuit")
    c0, c1 = amps[:, 0, 0], amps[:, 0, 1]
    x = z = np.zeros(shots, dtype=np.int64)
    deltas = np.empty((shots, n), dtype=np.int64)
    outcomes = np.empty((shots, n), dtype=np.int64)
    for i, phi in enumerate(circuit_octants):
        delta = (angles[:, i] + np.where(x == 0, -phi, phi) + 4 * r[:, i]) % 8
        deltas[:, i] = delta
        e_c1 = _PHASES[delta] * c1
        plus, minus = c0 + e_c1, c0 - e_c1
        q0, q1 = amps[:, i + 1, 0], amps[:, i + 1, 1]
        w0, w1 = abs(q0) ** 2, abs(q1) ** 2
        p0 = abs(plus) ** 2 * w0 + abs(minus) ** 2 * w1  # 2 * P(m=0)
        p1 = abs(minus) ** 2 * w0 + abs(plus) ** 2 * w1
        m = (u[:, i] * (p0 + p1) > p0).astype(np.int64)
        outcomes[:, i] = m
        c0 = np.where(m == 0, plus, minus) * q0
        c1 = np.where(m == 0, minus, plus) * q1
        norm = np.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
        c0, c1 = c0 / norm, c1 / norm
        x, z = m ^ z ^ r[:, i], x
    o = (u[:, n] < abs(c1) ** 2).astype(np.int64)
    return o ^ x, deltas, outcomes


SHOT_CHUNK = 1 << 16  # shots held in memory at once


def ubqc_shots(qubits: list[PreparedQubit], circuit_octants: list[int],
               rng, shots: int):
    """Blind shots, each on freshly re-blinded qubits.

    Returns (count of 1s, all delta octants shot by shot). Every draw comes
    from one numpy Generator seeded from ``rng``. Shots run in chunks of at
    most ``SHOT_CHUNK``, which bounds memory; each chunk draws, in this
    order: re-blinding octants (chunk, n+1), r bits (chunk, n), uniforms
    (chunk, n+1).
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    n = len(circuit_octants)
    gen = np.random.default_rng(rng.getrandbits(128))
    ones, deltas = 0, []
    for start in range(0, shots, SHOT_CHUNK):
        size = min(SHOT_CHUNK, shots - start)
        amps, angles = reblind(qubits,
                               gen.integers(8, size=(size, len(qubits))))
        out, chunk_deltas, _ = ubqc_run(amps, angles, circuit_octants,
                                        gen.integers(2, size=(size, n)),
                                        gen.random((size, n + 1)))
        ones += int(out.sum())
        deltas += chunk_deltas.ravel().tolist()
    return ones, deltas


# -- the full stack --------------------------------------------------------


def succ_ubqc(oracle, config: PipelineConfig, circuit_octants: list[int],
              server, rng, shots: int = 1):
    """Pipeline -> qfactory per gadget -> blind cluster computation.

    The pipeline must yield at least n+1 gadgets for an n-gate circuit.
    Returns (ones count, delta octants, Transcript).
    """
    tr = Transcript()
    gadgets, sub, _ = gdgprep_full(oracle, config, server, rng)
    if not tr.absorb(sub):
        return None, [], tr

    need = len(circuit_octants) + 1
    if len(gadgets) < need:
        tr.finish(False, "pipeline yielded too few gadgets")
        return None, [], tr
    params = config.params_for_round(config.rounds() or 1)
    qubits = []
    for g in gadgets[:need]:
        qb, qtr = qfac8(oracle, g, params, server, rng)
        if not tr.absorb(qtr, "qfactory"):
            return None, [], tr
        qubits.append(qb)

    ones, deltas = ubqc_shots(qubits, circuit_octants, rng, shots)
    tr.send("client", "ubqc.result", f"shots={shots} ones={ones}")
    tr.finish(True)
    return ones, deltas, tr
