"""The remote-gadget-preparation pipeline.

Stages, bottom to top:

* ``gdgprep_1pn``     -- one helper shared across n inputs -> 2n gadgets:
  basis tests, one branching reversible table per input, a padded Hadamard
  test on the helper. With n = 1 it is the paper's basic 2 -> 2 step.
* ``gdgprep_logk``    -- iterated doubling with one helper per round.
* ``gdgprep_repeat``  -- M independent doubling blocks + block permutation.
* ``security_refreshing`` -- consume J fresh gadgets to extend and re-pad
  the keys of N existing gadgets (N + J -> N).
* ``gdgprep_oneround``-- one doubling round: repeat, then refresh.
* ``gdgprep_full``    -- the complete pipeline: one initial quantum message,
  then T purely classical doubling rounds, each followed by a second
  refresh.

``combine`` (in :mod:`bqcsim.protocols`) is a stand-alone sub-protocol; no
stage runs it.

Every stage takes the run's transcript as its last argument, appends its
messages and its StageReport (whose gadget arithmetic is asserted by tests)
to it, and returns its output gadgets as (KeyPair, register) tuples. A
failing check raises ``Rejected`` through every stage above it; the 1pn and
refresh stages prefix its reason and file their ``"fail"`` report on the
way (``Transcript.rejecting``). ``gdgprep_full`` is a run's entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tables
from .bits import random_bits
from .keychain import KeyPair, sample_key_pair
from .protocols import (PipelineConfig, ProtocolParams, Transcript,
                        basis_test_multi, pad_hadamard)

Gadget = tuple[KeyPair, str]  # client-side key pair + server register name


def send_gadgets(server, rng, count: int, width: int,
                 prefix: str = "g") -> list[Gadget]:
    """Sample ``count`` key pairs and send each as gadget ``{prefix}{i}``:
    the one way a gadget reaches the server (``prepare_gadget``)."""
    out = []
    for i in range(count):
        pair = sample_key_pair(rng, width)
        out.append((pair, server.prepare_gadget(f"{prefix}{i}", pair)))
    return out


@dataclass
class StageReport:
    stage: str
    gadgets_in: int
    gadgets_out: int
    helpers_consumed: int
    verdict: str
    queries: int = 0

    def line(self) -> str:
        return (f"{self.stage}\t{self.gadgets_in}\t{self.gadgets_out}"
                f"\t{self.helpers_consumed}\t{self.verdict}\t{self.queries}")


# -- doubling --------------------------------------------------------------


def gdgprep_1pn(oracle, helper: Gadget, k3_list: list[Gadget],
                params: ProtocolParams, server, rng, tr: Transcript):
    """One shared helper turns n gadgets into 2n (n = 1: the 2 -> 2 step).

    The transcript carries both directions of every branching table the
    server evaluates.
    """
    h_pair, h_reg = helper
    n = len(k3_list)
    kout = params.kappa_out
    failed = StageReport("1pn", n + 1, 0, 0, "fail")

    with tr.rejecting("1pn: basis test", failed):
        for pair, reg in k3_list:
            # the input for T rounds, then the helper for one; the order is
            # part of the transcript
            for p, r, rounds in ((pair, reg, params.test_rounds),
                                 (h_pair, h_reg, 1)):
                basis_test_multi(oracle, p, r, rounds, params, server, rng,
                                 tr)

    plan = []
    for i, (k3_pair, k3_reg) in enumerate(k3_list):
        k2 = sample_key_pair(rng, k3_pair.width)
        y2 = sample_key_pair(rng, kout)
        y3 = sample_key_pair(rng, kout)
        perm = list(range(2 * kout))
        rng.shuffle(perm)
        table = tables.robust_rlt_build(oracle, h_pair, k2, k3_pair, y2, y3,
                                        perm, params.pad_len, rng)
        tr.send("client", f"gp.robust_fwd[{i}]",
                tables.serialize_table(table.forward))
        tr.send("client", f"gp.robust_bwd[{i}]",
                tables.serialize_table(table.backward))
        tr.send("client", f"gp.k2[{i}]", k2.x0 + "," + k2.x1)
        out_reg = f"{k3_reg}_out"
        server.eval_robust(h_reg, k2, k3_reg, table, out_reg)
        plan.append((y2, y3, perm, out_reg))

    with tr.rejecting("1pn: pad hadamard", failed):
        pad_hadamard(oracle, h_pair, h_reg, params, server, rng, tr)

    out: list[Gadget] = []
    for i, (y2, y3, perm, out_reg) in enumerate(plan):
        tr.send("client", f"gp.perm[{i}]", ",".join(map(str, perm)))
        r2, r3 = f"{out_reg}a", f"{out_reg}b"
        server.depermute_split(out_reg, perm, kout, (r2, r3))
        out.extend([(y2, r2), (y3, r3)])
    tr.reports.append(StageReport("1pn", n + 1, 2 * n, 1, "pass"))
    return out


def gdgprep_logk(oracle, helpers: list[Gadget], seed: Gadget,
                 params: ProtocolParams, server, rng, tr: Transcript):
    """R doubling rounds: R + 1 gadgets -> 2^R."""
    cur = [seed]
    for helper in helpers:
        cur = gdgprep_1pn(oracle, helper, cur, params, server, rng, tr)
    tr.reports.append(StageReport("logk", len(helpers) + 1, len(cur),
                                  len(helpers), "pass"))
    return cur


def gdgprep_repeat(oracle, blocks: list[tuple[list[Gadget], Gadget]],
                   params: ProtocolParams, server, rng, tr: Transcript):
    """M independent doubling blocks, then a random block permutation."""
    results = [gdgprep_logk(oracle, helpers, seed, params, server, rng, tr)
               for helpers, seed in blocks]
    perm = list(range(len(blocks)))
    rng.shuffle(perm)
    tr.send("client", "gp.block_perm", ",".join(map(str, perm)))
    flat = [g for p in perm for g in results[p]]
    n_in = sum(len(h) + 1 for h, _ in blocks)
    helpers_used = sum(len(h) for h, _ in blocks)
    tr.reports.append(StageReport("repeat", n_in, len(flat), helpers_used,
                                  "pass"))
    return flat


# -- security refreshing ---------------------------------------------------


def security_refreshing(oracle, gadgets: list[Gadget], lams: list[Gadget],
                        params: ProtocolParams, server, rng, tr: Transcript):
    """Consume J fresh gadgets to extend and re-pad N existing ones."""
    n, j_rounds = len(gadgets), len(lams)
    failed = StageReport("refresh", n + j_rounds, 0, 0, "fail")
    # keys as held in the registers, growing with each extension round
    cur = [pair for pair, _ in gadgets]

    for j, (lam_pair, lam_reg) in enumerate(lams):
        for i, (pair, reg) in enumerate(gadgets):
            y = sample_key_pair(rng, params.kappa_out)
            mapping = [
                (cur[i][b] + lam_pair[b2], y[b])
                for b in (0, 1) for b2 in (0, 1)
            ]
            table = tables.lt_build(oracle, mapping, params.pad_len, rng)
            tr.send("client", f"sr.table[{j}][{i}]",
                    tables.serialize_table(table))
            server.extend_gadget(reg, lam_reg, table)
            cur[i] = KeyPair(cur[i].x0 + y.x0, cur[i].x1 + y.x1)
        with tr.rejecting("refresh: pad hadamard", failed):
            pad_hadamard(oracle, lam_pair, lam_reg, params, server, rng, tr)

    out: list[Gadget] = []
    for i, (_, reg) in enumerate(gadgets):
        pad = random_bits(rng, params.pad_len)
        tr.send("client", f"sr.pad[{i}]", pad)
        server.prepend_pad(reg, pad)
        out.append((KeyPair(pad + cur[i].x0, pad + cur[i].x1), reg))
    tr.reports.append(StageReport("refresh", n + j_rounds, n, j_rounds,
                                  "pass"))
    return out


# -- one-round and full pipeline -------------------------------------------


def gdgprep_oneround(oracle, blocks: list[tuple[list[Gadget], Gadget]],
                     lams: list[Gadget], params: ProtocolParams, server, rng,
                     tr: Transcript):
    """One doubling round: ``gdgprep_repeat``, then ``security_refreshing``.

    ``blocks`` is the block structure of the repeat stage and ``lams`` the
    gadgets its refresh consumes.
    """
    expanded = gdgprep_repeat(oracle, blocks, params, server, rng, tr)
    out = security_refreshing(oracle, expanded, lams, params, server, rng, tr)
    helpers_used = sum(len(h) for h, _ in blocks) + len(lams)
    tr.reports.append(StageReport("oneround", len(blocks) + helpers_used,
                                  len(out), helpers_used, "pass"))
    return out


def gdgprep_full(oracle, config: PipelineConfig, server, rng,
                 tr: Transcript | None = None):
    """The complete pipeline: one quantum message, then classical rounds.

    Round t doubles the gadget count by giving every current gadget a fresh
    helper (client-supplied, like the refresh gadgets) and running the
    expansion block, followed by two refresh layers. After T = log2(L/N)
    rounds the server holds Gadget(K_out) with |K_out| = L.

    A run of its own (no ``tr``) returns (output gadgets, or [] on
    rejection, Transcript, stage reports). Given the run's ``tr``, the
    pipeline continues that record and raises ``Rejected`` on failure.

    An honest run aborts with probability 1 - (1 - 2**-kappa_out)**n: each
    of its n = (L - N) + 2*T*J padded Hadamard tests rejects an honest
    all-zero tail with probability 2**-kappa_out.
    """
    if tr is None:
        tr = Transcript()
        out = tr.run(_pipeline, oracle, config, server, rng)
    else:
        out = _pipeline(oracle, config, server, rng, tr)
    return out or [], tr, tr.reports


def _pipeline(oracle, config: PipelineConfig, server, rng, tr: Transcript):
    """``gdgprep_full``'s rounds on the run's record."""
    t_rounds = config.rounds()

    # the single quantum message: every gadget the pipeline will consume
    server_q0 = oracle.counters.get("server", 0)
    w = config.key_width
    cur = send_gadgets(server, rng, config.N, w, "k")
    helpers: list[list[Gadget]] = []
    lam1: list[list[Gadget]] = []
    lam2: list[list[Gadget]] = []
    for t in range(t_rounds):
        helpers.append(send_gadgets(server, rng, config.N << t, w, f"h{t}_"))
        lam1.append(send_gadgets(server, rng, config.J, w, f"l1_{t}_"))
        lam2.append(send_gadgets(server, rng, config.J, w, f"l2_{t}_"))
    tr.send("client", "gp.init", f"N={config.N} T={t_rounds} J={config.J}")

    for t in range(t_rounds):
        params = config.params_for_round(t + 1)
        blocks = [([helpers[t][m]], cur[m]) for m in range(len(cur))]
        out = gdgprep_oneround(oracle, blocks, lam1[t], params, server, rng,
                               tr)
        cur = security_refreshing(oracle, out, lam2[t], params, server, rng,
                                  tr)

    queries = oracle.counters.get("server", 0) - server_q0
    helpers_total = sum(len(h) for h in helpers) + 2 * t_rounds * config.J
    tr.reports.append(StageReport("full", config.N, len(cur), helpers_total,
                                  "pass", queries))
    return cur


def expected_helper_count(config: PipelineConfig) -> int:
    """Closed-form count of client-supplied auxiliary gadgets."""
    t_rounds = config.rounds()
    doubling_helpers = config.N * (2 ** t_rounds - 1)
    return doubling_helpers + 2 * t_rounds * config.J
