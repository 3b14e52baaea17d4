#!/usr/bin/env python3
"""Delegate single-qubit circuits blindly and compare with a dense simulator.

Each circuit is a list of J(phi) = H Rz(phi) gates with phi a multiple of
pi/4. The client prepares gadgets through the pipeline, turns them into
8-basis qubits with secret angles, and drives the measurement-based
computation with blinded angles; the server never learns the circuit.
"""

import random

import numpy as np

from bqcsim.gadget_prep import PipelineConfig
from bqcsim.oracle import RandomOracle
from bqcsim.protocols import HonestServer
from bqcsim.qfactory import dense_output_prob, succ_ubqc

SHOTS = 4000
CIRCUITS = [[0], [4], [2, 6], [3, 5, 1], [7, 7, 2]]


def main():
    print(f"{SHOTS} shots per circuit")
    print("circuit (octants)\tdense p(1)\tblind p(1)")
    all_deltas = []
    for i, circ in enumerate(CIRCUITS):
        oracle = RandomOracle(4000 + i)
        server = HonestServer(oracle, seed=i)
        cfg = PipelineConfig(L=4, N=2, key_width=4, kappa_out=8, pad_base=4,
                             J=1)
        ones, deltas, tr = succ_ubqc(oracle, cfg, circ, server,
                                     random.Random(i), shots=SHOTS)
        assert tr.passed, tr.fail_reason
        all_deltas.append(deltas)
        print(f"{circ}\t\t{dense_output_prob(circ):.4f}\t\t"
              f"{ones / SHOTS:.4f}")

    hist = np.bincount(np.concatenate(all_deltas), minlength=8)
    n = hist.sum()
    print("\nmeasurement-angle octants seen by the server "
          "(uniform = blind):")
    for k in range(8):
        print(f"  delta={k}: {hist[k] / n:.4f}")


if __name__ == "__main__":
    main()
