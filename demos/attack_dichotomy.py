#!/usr/bin/env python3
"""The free-lunch attack with and without the output permutation.

Without the secret bit-permutation on the table outputs, an adversary that
measures its gadgets and decrypts two rows recovers all four output keys
every single time. The permutation alone collapses the success rate, and
the collapse sharpens as the output keys grow.
"""

from bqcsim.adversary import estimate, free_lunch_rate, MeasureThenRandomD
from bqcsim.protocols import HonestServer, ProtocolParams

TRIALS = 200


def main():
    print(f"free-lunch attack, {TRIALS} trials per row")
    print("variant\t\tkappa_out\trate\twilson95")
    for variant, kout in (("unpermuted", 20), ("permuted", 2),
                          ("permuted", 8), ("permuted", 20)):
        params = ProtocolParams(pad_len=8, kappa_out=kout)
        st = free_lunch_rate(variant, params, TRIALS)
        lo, hi = st.wilson()
        print(f"{variant}\t{kout}\t\t{st.p_hat:.3f}\t[{lo:.3f},{hi:.3f}]")

    print("\npadded Hadamard test, 5000 trials per row")
    params = ProtocolParams(pad_len=6, kappa_out=16, test_rounds=1,
                            key_width=8)
    for name, cls in (("honest", HonestServer),
                      ("measure-then-guess", MeasureThenRandomD)):
        st = estimate(cls, "pad_hadamard", params, 5000, experiment=name)
        lo, hi = st.wilson()
        print(f"{name}: pass rate {st.p_hat:.4f} [{lo:.4f},{hi:.4f}]")


if __name__ == "__main__":
    main()
