"""Eight-basis remote state preparation and the blind-computation layer.

``qfac8`` turns one prepared gadget into a single server-side qubit
(|0> + exp(i*theta)|1>)/sqrt(2) whose angle theta = pi*k/4 is known only to
the client: theta2/theta3 come from the client's phase table, theta1 from
the server's Hadamard outcome on the key register.

On top of the prepared qubits, ``ubqc_run`` executes a 1D-cluster
measurement-based computation of a J-gate circuit (J(phi) = H Rz(phi)) with
blinded measurement angles, for many shots at once in one numpy pass, each
shot on freshly re-blinded qubits. Re-blinding changes only the blinded
angles delta, as its phase cancels in the measurement at delta, so shots
never copy the prepared amplitudes. ``ubqc_shots`` runs a delegation as
one loop over tiles of ``SHOT_TILE`` shots, each drawing its own randomness
and then running the kernel: the tile fixes the draws, nothing is kept
between delegations, and the working memory beyond the returned deltas is
one tile's. The deltas are one flat int8 array, one byte per delta.
``succ_ubqc`` chains the full gadget pipeline, the qfactory, and the
cluster computation end to end; it returns ``[]`` for the deltas when a
delegation fails before its shots. A dense statevector evaluator of
the same circuits is the comparison oracle.
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
from .state import EntangledDiscardError

OCTANT = math.pi / 4


@dataclass
class PreparedQubit:
    """A server-held qubit plus the client's secret angle for it."""

    alpha: complex
    beta: complex
    angle: int  # the octant k of theta = k*pi/4, 4*t1 + 2*t2 + t3


def qfac8(oracle, gadget: Gadget, params: ProtocolParams, server, rng):
    """One gadget -> one 8-basis qubit on the server.

    Returns (PreparedQubit | None, Transcript). The finished qubit must be
    unentangled from the rest of the server state: it is extracted into
    explicit amplitudes for the computation layer, or the run fails.
    """
    tr = Transcript()
    pair, reg = gadget

    bt = basis_test_multi(oracle, pair, reg, params.test_rounds, params,
                          server, rng)
    if not tr.absorb(bt, "basis test"):
        return None, tr

    t2, t3 = rng.randrange(2), rng.randrange(2)
    ptable = tables.phase_lt_build(oracle, pair, 2 * t2 + t3,
                                   params.pad_len, rng)
    tr.send("client", "qf.phase_table", tables.serialize_table(ptable))

    qubit_reg = f"{reg}_q"
    d = server.respond_phase_table(reg, ptable, qubit_reg)
    tr.send("server", "qf.d", d)
    if not is_bitstring(d, pair.width):
        tr.finish(False, "malformed d")
        return None, tr

    t1 = dot(d, pair.delta())
    # the one simulator step outside the protocol: the qubit leaves the
    # server state as amplitudes for the computation layer
    try:
        g = server.state.discard_register(qubit_reg)
    except (KeyError, EntangledDiscardError) as e:
        tr.finish(False, f"hand-off: {e.args[0]}")
        return None, tr
    if not g.keys() <= {"0", "1"}:
        tr.finish(False, f"hand-off: {qubit_reg!r} is not one bit wide")
        return None, tr
    tr.finish(True)
    alpha, beta = g.get("0", 0j), g.get("1", 0j)
    return PreparedQubit(alpha, beta, 4 * t1 + 2 * t2 + t3), tr


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

_PHASES = np.exp(-1j * OCTANT * np.arange(8))  # exp(-i*pi*s/4) per octant


def reblind(qubits: list[PreparedQubit], shifts: np.ndarray) -> np.ndarray:
    """Re-blind every qubit of every shot by a random octant.

    ``shifts[s, i]`` = k models a fresh qubit i in shot s, rotated by an
    extra Rz(k*pi/4): its secret angle gains k and its |1> amplitude
    exp(i*pi*k/4), a phase that cancels in ``ubqc_run``. So only the angles
    change: returns the blinded angle octants, shape (shots, n+1).
    """
    return (np.array([q.angle for q in qubits]) + shifts) & 7


def ubqc_run(qubits: list[PreparedQubit], angles: np.ndarray,
             circuit_octants: list[int], r: np.ndarray, u: np.ndarray):
    """Blind shots of the circuit in one numpy pass, one row per shot.

    Qubit i is entangled to its successor and measured at the blinded angle
    delta_i = theta_i - (-1)^x * phi_i + pi*r_i (octants mod 8, theta_i from
    ``angles``). With e = exp(-i*pi*delta/4), CZ and the projection of the
    carrier (c0, c1) onto (|0> +/- exp(i*delta)|1>)/sqrt(2) leave
    ((c0 +/- e*c1)*alpha, (c0 -/+ e*c1)*beta)/sqrt(2) on the next qubit.
    Re-blinding by k puts exp(i*pi*k/4) on c1 and adds k to delta, which
    cancel in e*c1: the carrier sees only s = delta - k, the octant of the
    qubit's own angle, so only delta depends on k.

    The carrier is kept as its Bloch vector: bz = |c0|^2 - |c1|^2 and a
    complex bxy = 2*conj(c0)*c1. With w0, w1 = |alpha|^2, |beta|^2, sign = +1
    (m=0) or -1 (m=1) and g + i*h = exp(-i*pi*s/4)*bxy, outcome m has weight
    p_m = w0 + w1 + sign*g*(w0 - w1); a uniform u[:, i] above P(m=0) =
    p0 / (p0 + p1) gives m=1. The kept branch is bz = (w0 - w1 +
    sign*g*(w0 + w1))/p_m and bxy = 2*conj(alpha)*beta*(bz - sign*i*h)/p_m.
    The final Z measurement gives 1 iff u[:, n] < (1 - bz)/2. Byproduct
    frame: x' = m xor z xor r, z' = x, and x corrects the output bit. Returns
    (output bits, delta octants, raw outcomes): (shots,), (shots, n) twice,
    the deltas as int8.

    The turn -/+phi_i + 4*r_i takes one of four values, picked per shot by
    2*r_i + x. The code carries flip = -sign, and sets the real and
    imaginary parts of bz - sign*i*h directly; both give the same bits as
    the formulas above with fewer numpy passes.
    """
    shots, n = len(u), len(circuit_octants)
    if len(qubits) != n + 1 or angles.shape[1] != n + 1:
        raise ValueError("need n+1 qubits for an n-gate circuit")
    w0, w1 = abs(qubits[0].alpha) ** 2, abs(qubits[0].beta) ** 2
    bz = (w0 - w1) / (w0 + w1)
    bxy = 2 * qubits[0].alpha.conjugate() * qubits[0].beta / (w0 + w1)
    r = r.T.astype(np.int8)  # one contiguous row per gate
    x = z = np.zeros(shots, dtype=np.int8)
    key = np.empty(shots, dtype=np.int8)
    deltas = np.empty((shots, n), dtype=np.int8)  # -7..18 before the & 7
    outcomes = np.empty((n, shots), dtype=bool)
    branch = np.empty(shots, dtype=complex)  # bz - sign*i*h, unscaled
    for i, (phi, q) in enumerate(zip(circuit_octants, qubits[1:])):
        turns = np.array([4 * rb + 2 * phi * xb - phi
                          for rb in (0, 1) for xb in (0, 1)])
        np.add(r[i] << 1, x, out=key)
        np.add(angles[:, i], turns.take(key), out=deltas[:, i])
        e_bxy = _PHASES[(qubits[i].angle + turns) & 7].take(key) * bxy
        w0, w1 = abs(q.alpha) ** 2, abs(q.beta) ** 2
        tilt = e_bxy.real * (w0 - w1)
        m = np.greater(u[:, i] * (2 * (w0 + w1)), w0 + w1 + tilt,
                       out=outcomes[i])
        flip = 2.0 * m - 1.0
        p_m = w0 + w1 - flip * tilt
        branch.real = bz
        np.multiply(flip, e_bxy.imag, out=branch.imag)
        bz = (w0 - w1 - flip * e_bxy.real * (w0 + w1)) / p_m
        bxy = 2 * q.alpha.conjugate() * q.beta * branch
        bxy *= 1.0 / p_m  # numpy's complex / real scales by 1/p: same bits
        x, z = m ^ z ^ r[i], x
    deltas &= 7
    o = u[:, n] < (1 - bz) / 2
    return o ^ x, deltas, outcomes.T


SHOT_TILE = 1 << 12  # shots drawn and run per kernel pass


def ubqc_shots(qubits: list[PreparedQubit], circuit_octants: list[int],
               rng, shots: int):
    """Blind shots, each on freshly re-blinded qubits.

    Returns (count of 1s, delta octants): the deltas are one flat,
    C-contiguous int8 array of shots*n entries, shot by shot and gate by
    gate within a shot, one byte per delta. Every draw comes
    from one numpy Generator seeded from ``rng``, in tiles of at most
    ``SHOT_TILE`` shots; each tile draws, in this order: re-blinding
    octants (tile, n+1), r bits (tile, n), uniforms (tile, n+1), and then
    runs the kernel on them. So the tile size fixes the draws. No state is
    kept between calls, and the working memory beyond the returned deltas
    is one tile's.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    n = len(circuit_octants)
    gen = np.random.default_rng(rng.getrandbits(128))
    ones, deltas = 0, np.empty(shots * n, dtype=np.int8)
    rows = deltas.reshape(shots, n)
    for start in range(0, shots, SHOT_TILE):
        size = min(SHOT_TILE, shots - start)
        angles = reblind(qubits, gen.integers(8, size=(size, len(qubits))))
        r = gen.integers(2, size=(size, n))
        u = gen.random((size, n + 1))
        out, tile, _ = ubqc_run(qubits, angles, circuit_octants, r, u)
        ones += int(out.sum())
        rows[start:start + size] = tile
    return ones, deltas


# -- the full stack --------------------------------------------------------


def succ_ubqc(oracle, config: PipelineConfig, circuit_octants: list[int],
              server, rng, shots: int = 1):
    """Pipeline -> qfactory per gadget -> blind cluster computation.

    An n-gate circuit needs L >= n+1 gadgets; a smaller L fails at once.
    Returns (ones count, delta octants, Transcript), the deltas as
    ``ubqc_shots`` returns them: one flat int8 array, one byte per delta.
    A delegation that fails before its shots returns (None, [], Transcript).
    """
    tr = Transcript()
    need = len(circuit_octants) + 1
    if config.L < need:
        tr.finish(False, f"L={config.L} too small for {need - 1} gates")
        return None, [], tr
    gadgets, sub, _ = gdgprep_full(oracle, config, server, rng)
    if not tr.absorb(sub):
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
