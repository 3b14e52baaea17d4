"""Atomic interactive sub-protocols.

Each protocol is a client routine that drives a server object through typed
messages. The server side is pluggable: :class:`HonestServer` implements the
intended quantum behavior on a SparseState; adversaries subclass it and
override individual responses (see :mod:`bqcsim.adversary`).

Every run appends its messages to a :class:`Transcript`, which serializes to
tab-separated records so equal seeds replay byte-identically. A record
usually takes one line, but table payloads contain newlines, so a record
may span several lines (the ROADMAP moves transcripts to JSON Lines).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import tables
from .bits import apply_perm, dot, invert_perm, random_bits
from .keychain import KeyPair, combine_keys
from .state import SparseState


@dataclass
class ProtocolParams:
    """One round's widths; ``PipelineConfig.params_for_round`` builds it."""

    pad_len: int              # table/pad length
    kappa_out: int            # output key / hash length
    test_rounds: int = 2      # T, basis-test rounds (PipelineConfig's default)


class Transcript:
    """Append-only message log with a single pass/fail verdict."""

    def __init__(self):
        self.messages: list[tuple[str, str, str]] = []
        self.verdict: str | None = None
        self.fail_reason: str | None = None

    def send(self, sender: str, tag: str, payload: str = "") -> None:
        self.messages.append((sender, tag, payload))

    def finish(self, ok: bool, reason: str | None = None) -> None:
        if self.verdict is not None:
            raise RuntimeError("verdict already set")
        self.verdict = "pass" if ok else "fail"
        self.fail_reason = reason

    def absorb(self, sub: Transcript, what: str = "") -> bool:
        """Append ``sub``'s messages and return whether ``sub`` passed.

        A failed ``sub`` fails this transcript with its reason, prefixed by
        ``what`` when given.
        """
        self.messages.extend(sub.messages)
        if not sub.passed:
            reason = sub.fail_reason
            self.finish(False, f"{what}: {reason}" if what else reason)
        return sub.passed

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def serialize(self) -> str:
        records = [f"{s}\t{t}\t{p}\n" for s, t, p in self.messages]
        records.append(f"verdict\t{self.verdict}\t{self.fail_reason or ''}\n")
        return "".join(records)


class HonestServer:
    """The server the protocols are designed for.

    Holds the quantum memory and answers every client message with the
    honest behavior. All oracle traffic is charged to the "server" party.
    """

    def __init__(self, oracle, seed: int = 0):
        self.oracle = oracle
        self.rng = random.Random(seed)
        self.state = SparseState()

    def prepare_gadget(self, name: str, pair: KeyPair) -> str:
        return self.state.add_gadget(name, pair.x0, pair.x1)

    # -- padded Hadamard test ---------------------------------------------

    def respond_pad_hadamard(self, reg: str, pad: str, kappa_out: int) -> str:
        """Hadamard-measure the gadget after appending H(pad || x) to it."""
        self.oracle.query_superposed(self.state, reg, kappa_out, prefix=pad)
        return self.state.measure_hadamard(reg, self.rng)

    # -- basis test --------------------------------------------------------

    def respond_basis_test(self, reg: str, table) -> str:
        """Measure the r that the gadget's keys open in the test table."""
        return tables.lt_measure_coherent(self.oracle, self.state, reg, table,
                                          self.rng)

    # -- combine -----------------------------------------------------------

    def respond_combine(self, reg_a: str, reg_b: str, tag_a0: str,
                        tag_b0: str, pads: tuple[str, str],
                        out_reg: str) -> int:
        """Merge the two gadgets and measure the XOR of their subscripts.

        Subscripts are identified by comparing global tags of the branch
        values against the published tag of each pair's 0-key; the merged
        register, with the subscript pad prefixed, is the output gadget.
        """
        st = self.state
        sub_cache: dict[tuple[str, int], int] = {}

        def subscript(val: str, which: int) -> int:
            key = (val, which)
            if key not in sub_cache:
                t = self.oracle.tag(val, party="server")
                sub_cache[key] = 0 if t == (tag_a0 if which == 0 else tag_b0) else 1
            return sub_cache[key]

        wa = st.width(reg_a)
        st.merge_registers([reg_a, reg_b], out_reg)
        outcome = st.measure_computational(
            out_reg, self.rng,
            lambda val: subscript(val[:wa], 0) ^ subscript(val[wa:], 1))
        st.map_register(out_reg,
                        lambda val, _: pads[subscript(val[:wa], 0)] + val,
                        width=st.width(out_reg) + len(pads[0]))
        return outcome

    # -- gadget preparation ------------------------------------------------

    def eval_robust(self, help_reg: str, k2: KeyPair, x3_reg: str,
                    table, out_reg: str) -> str:
        """Build the plaintext K2 gadget and run the branching table."""
        k2_reg = f"{out_reg}_k2"
        self.state.add_gadget(k2_reg, k2.x0, k2.x1)
        return tables.rev_eval(self.oracle, self.state, [help_reg],
                               [k2_reg, x3_reg], table, out_reg)

    def depermute_split(self, out_reg: str, perm: list[int],
                        width2: int, names: tuple[str, str]) -> None:
        inv = invert_perm(perm)
        self.state.map_register(out_reg, lambda s, _: apply_perm(s, inv))
        total = self.state.width(out_reg)
        self.state.split_register(out_reg, [width2, total - width2], list(names))

    def extend_gadget(self, reg: str, lam_reg: str, table) -> None:
        """Append the key the table opens under (reg, lam_reg) to reg."""
        tables.lt_append_coherent(self.oracle, self.state, [reg, lam_reg],
                                  reg, table)

    def prepend_pad(self, reg: str, pad: str) -> None:
        self.state.map_register(reg, lambda v, _: pad + v,
                                width=self.state.width(reg) + len(pad))

    # -- 8-basis qfactory --------------------------------------------------

    def respond_phase_table(self, reg: str, table, qubit_reg: str) -> str:
        """Index ``reg`` into ``qubit_reg``, phase ``reg`` by the table and
        return its Hadamard outcome ``d``."""
        tables.index_eval(self.oracle, self.state, reg, table, qubit_reg)
        tables.phase_eval(self.oracle, self.state, reg, table)
        return self.state.measure_hadamard(reg, self.rng)


# -- client-side protocol drivers ------------------------------------------


def is_bitstring(answer, width: int) -> bool:
    """Whether a server's answer is a string over {0,1} of ``width`` bits."""
    return (isinstance(answer, str) and len(answer) == width
            and not set(answer) - {"0", "1"})


def pad_hadamard(oracle, pair: KeyPair, reg: str, params: ProtocolParams,
                 server, rng) -> Transcript:
    """Padded Hadamard test on one gadget (consumes it on the server)."""
    tr = Transcript()
    pad = random_bits(rng, params.pad_len)
    tr.send("client", "ph.pad", pad)
    d = server.respond_pad_hadamard(reg, pad, params.kappa_out)
    tr.send("server", "ph.d", d)
    if not is_bitstring(d, pair.width + params.kappa_out):
        tr.finish(False, "malformed d")
        return tr
    h0 = oracle.query_classical(pad + pair.x0, params.kappa_out)
    h1 = oracle.query_classical(pad + pair.x1, params.kappa_out)
    w0, w1 = pair.x0 + h0, pair.x1 + h1
    tail = d[-params.kappa_out:]
    if tail == "0" * params.kappa_out:
        tr.finish(False, "all-zero tail")
    elif dot(d, w0) != dot(d, w1):
        tr.finish(False, "parity mismatch")
    else:
        tr.finish(True)
    return tr


def basis_test_multi(oracle, pair: KeyPair, reg: str, rounds: int,
                     params: ProtocolParams, server, rng) -> Transcript:
    """T sequential basis tests: each round, both keys decrypt to one fresh r."""
    tr = Transcript()
    for t in range(rounds):
        r = random_bits(rng, params.kappa_out)
        table = tables.lt_build(oracle, [(pair.x0, r), (pair.x1, r)],
                                params.pad_len, params.kappa_out, rng)
        tr.send("client", "bt.table", tables.serialize_table(table))
        answer = server.respond_basis_test(reg, table)
        tr.send("server", "bt.r", answer)
        if not is_bitstring(answer, params.kappa_out):
            tr.finish(False, f"round {t}: malformed r")
            return tr
        if answer != r:
            tr.finish(False, f"round {t}: wrong r")
            return tr
    tr.finish(True)
    return tr


def combine(oracle, pair_a: KeyPair, pair_b: KeyPair, reg_a: str, reg_b: str,
            params: ProtocolParams, server, rng):
    """Combine two gadgets into one by measuring the subscript XOR.

    The output keys are prefixed by a fresh pad per output subscript.
    Returns (new KeyPair or None, Transcript, output register name).
    """
    tr = Transcript()
    tag_a0 = oracle.tag(pair_a.x0)
    tag_b0 = oracle.tag(pair_b.x0)
    tr.send("client", "cb.tags", tag_a0 + "," + tag_b0)
    pads = (random_bits(rng, params.pad_len), random_bits(rng, params.pad_len))
    # binding commitments of the four keys under fresh pads
    commits = []
    for p in (pair_a, pair_b):
        for b in (0, 1):
            rpad = random_bits(rng, params.pad_len)
            commits.append(rpad + ":" + oracle.query_classical(
                rpad + p[b], params.kappa_out))
    tr.send("client", "cb.commits", ";".join(commits))
    tr.send("client", "cb.pads", pads[0] + "," + pads[1])
    name = f"cb_{reg_a}_{reg_b}"
    outcome = server.respond_combine(reg_a, reg_b, tag_a0, tag_b0, pads, name)
    tr.send("server", "cb.outcome", str(outcome))
    # bool and float answers compare equal to 0 or 1 but are not bits
    if type(outcome) is not int or outcome not in (0, 1):
        tr.finish(False, "non-bit response")
        return None, tr, name
    new_pair = combine_keys(pair_a, pair_b, outcome, pads)
    tr.finish(True)
    return new_pair, tr, name
