#!/usr/bin/env python3
"""Walk the gadget-preparation pipeline from 2 to 8 gadgets.

Prints every stage report, the total helper consumption, and verifies that
the server ends up holding exactly the superposition the client expects.
"""

import random
import time

from bqcsim.gadget_prep import (PipelineConfig, expected_helper_count,
                                gdgprep_full)
from bqcsim.oracle import RandomOracle
from bqcsim.protocols import HonestServer
from bqcsim.state import SparseState

SEED = 2024


def main():
    oracle = RandomOracle(SEED)
    server = HonestServer(oracle, seed=SEED + 1)
    config = PipelineConfig(L=8, N=2, key_width=4, kappa_out=8, pad_base=4,
                            J=1, test_rounds=1)
    print(f"pipeline: N={config.N} -> L={config.L} "
          f"({config.rounds()} doubling rounds)")

    t0 = time.perf_counter()
    gadgets, transcript, reports = gdgprep_full(oracle, config, server,
                                                random.Random(SEED))
    dt = time.perf_counter() - t0

    print("\nstage\tin\tout\thelpers\tverdict\tqueries")
    for r in reports:
        print(r.line())

    print(f"\nverdict: {transcript.verdict}  ({dt:.2f} s, "
          f"{len(transcript.messages)} messages)")
    print(f"helpers consumed: {reports[-1].helpers_consumed} "
          f"(closed form: {expected_helper_count(config)})")

    expect = SparseState()
    for pair, reg in gadgets:
        expect.add_gadget(reg, pair.x0, pair.x1)
    fid = server.state.fidelity(expect)
    print(f"output gadgets: {len(gadgets)}, key width "
          f"{gadgets[0][0].width} bits each")
    print(f"fidelity vs Gadget(K_out): {fid:.12f}")


if __name__ == "__main__":
    main()
