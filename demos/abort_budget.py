#!/usr/bin/env python3
"""How large a pipeline one honest abort budget allows.

Every padded Hadamard test rejects an honest all-zero tail with probability
2^-kappa_out, and a pipeline of L output gadgets runs (L - N) + 2*T*J such
tests, so an honest run aborts with probability
1 - (1 - 2^-kappa_out)^tests. For each kappa_out this prints the largest L
whose abort rate stays at most EPSILON, next to EPSILON * 2^kappa_out. With
about one test per output gadget, L tracks that product to within the factor
of two that doubling rounds impose. The closed form needs no sampling.
"""

from dataclasses import replace

from bqcsim.gadget_prep import PipelineConfig, expected_helper_count

EPSILON = 0.01
N, J = 2, 1


def abort_rate(config: PipelineConfig) -> float:
    """Closed-form honest abort probability of one pipeline run."""
    tests = expected_helper_count(config)  # one padded Hadamard test each
    return 1 - (1 - 2.0 ** -config.kappa_out) ** tests


def largest_pipeline(kappa_out: int) -> PipelineConfig:
    """The pipeline with the most output gadgets that aborts at most
    EPSILON of honest runs (L doubles from N while it does)."""
    config = PipelineConfig(L=N, N=N, J=J, kappa_out=kappa_out)
    while abort_rate(wider := replace(config, L=2 * config.L)) <= EPSILON:
        config = wider
    return config


def main():
    print(f"largest L with honest abort rate <= {EPSILON:.0%} "
          f"(N={N}, J={J})")
    print("kappa_out\tL\ttests\tabort\teps*2^kappa_out")
    for kappa_out in (8, 12, 16, 20):
        config = largest_pipeline(kappa_out)
        print(f"{kappa_out}\t\t{config.L}\t{expected_helper_count(config)}"
              f"\t{abort_rate(config):.4%}\t{EPSILON * 2 ** kappa_out:.2f}")


if __name__ == "__main__":
    main()
