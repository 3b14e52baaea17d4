"""Atomic interactive sub-protocols.

Each protocol is a client routine that drives a server object through typed
messages. The server side is pluggable: :class:`HonestServer` implements the
intended quantum behavior on a SparseState; adversaries subclass it and
override individual responses (see :mod:`bqcsim.adversary`).

A run has one :class:`Transcript`, made by its entry point. Every driver
takes it as its last argument and appends its messages to it; a failed
check raises :class:`Rejected`, which ends the run, and
:meth:`Transcript.run` turns it into the fail verdict. The transcript
serializes to tab-separated records so equal seeds replay byte-identically.
A record usually takes one line, but table payloads contain newlines, so a
record may span several lines (the ROADMAP moves transcripts to JSON Lines).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass

from . import tables
from .bits import apply_perm, dot, invert_perm, random_bits
from .keychain import KeyPair, combine_keys
from .state import SparseState


@dataclass
class PipelineConfig:
    """Pipeline shape and widths: the one source of protocol defaults.

    ``N`` initial gadgets of ``key_width`` bits double over ``rounds()``
    rounds to ``L`` output gadgets; each refresh consumes ``J`` gadgets.
    Round t (from 1) pads with ``pad_base * t`` bits, outputs ``kappa_out``-bit
    keys and runs ``test_rounds`` basis tests per input.

    A stand-alone run or attack takes every width from
    ``params_for_round(1)``. ``kappa_out = 16`` puts the closed-form honest
    abort rate at 0.015% for L = 8 and 1.6% for L = 1,024; ``pad_base = 8``
    makes a stand-alone run equal to round 1 of the pipeline.
    """

    L: int = 8
    N: int = 2
    key_width: int = 6
    kappa_out: int = 16
    pad_base: int = 8
    J: int = 1
    test_rounds: int = 2

    def rounds(self) -> int:
        q, r = divmod(self.L, self.N)
        if r or q < 1 or q & (q - 1):
            raise ValueError("L/N must be a power of two")
        return q.bit_length() - 1

    def params_for_round(self, t: int) -> ProtocolParams:
        return ProtocolParams(pad_len=self.pad_base * t,
                              kappa_out=self.kappa_out,
                              test_rounds=self.test_rounds,
                              key_width=self.key_width)


@dataclass
class ProtocolParams:
    """One round's widths; ``PipelineConfig.params_for_round`` builds it.

    ``key_width`` is the width of each gadget a stand-alone run or attack
    sends. Both defaults are ``PipelineConfig``'s.
    """

    pad_len: int              # table/pad length
    kappa_out: int            # output key / hash length
    test_rounds: int = PipelineConfig.test_rounds  # T, basis-test rounds
    key_width: int = PipelineConfig.key_width      # sent gadgets' width


class Rejected(Exception):
    """A client check failed; the reason ends the run as its verdict."""


class Transcript:
    """One run's append-only message log, stage reports and verdict."""

    def __init__(self):
        self.messages: list[tuple[str, str, str]] = []
        self.reports: list = []  # gadget_prep.StageReport, in finish order
        self.verdict: str | None = None
        self.fail_reason: str | None = None

    def send(self, sender: str, tag: str, payload: str = "") -> None:
        self.messages.append((sender, tag, payload))

    def finish(self, ok: bool, reason: str | None = None) -> None:
        if self.verdict is not None:
            raise RuntimeError("verdict already set")
        self.verdict = "pass" if ok else "fail"
        self.fail_reason = reason

    @contextmanager
    def rejecting(self, what: str, failed=None):
        """Prefix ``what`` to a rejection raised inside, after filing the
        stage report ``failed`` when given."""
        try:
            yield
        except Rejected as e:
            if failed is not None:
                self.reports.append(failed)
            raise Rejected(f"{what}: {e.args[0]}") from None

    def run(self, step, *args):
        """Run ``step(*args, self)`` to its verdict and return its output:
        pass if it returns, fail with the reason (and None) if it rejects."""
        try:
            out = step(*args, self)
        except Rejected as e:
            self.finish(False, e.args[0])
            return None
        self.finish(True)
        return out

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
                 server, rng, tr: Transcript) -> None:
    """Padded Hadamard test on one gadget (consumes it on the server)."""
    pad = random_bits(rng, params.pad_len)
    tr.send("client", "ph.pad", pad)
    d = server.respond_pad_hadamard(reg, pad, params.kappa_out)
    tr.send("server", "ph.d", d)
    if not is_bitstring(d, pair.width + params.kappa_out):
        raise Rejected("malformed d")
    h0 = oracle.query_classical(pad + pair.x0, params.kappa_out)
    h1 = oracle.query_classical(pad + pair.x1, params.kappa_out)
    w0, w1 = pair.x0 + h0, pair.x1 + h1
    if d[-params.kappa_out:] == "0" * params.kappa_out:
        raise Rejected("all-zero tail")
    if dot(d, w0) != dot(d, w1):
        raise Rejected("parity mismatch")


def basis_test_multi(oracle, pair: KeyPair, reg: str, rounds: int,
                     params: ProtocolParams, server, rng,
                     tr: Transcript) -> None:
    """T sequential basis tests: each round, both keys decrypt to one fresh r."""
    for t in range(rounds):
        r = random_bits(rng, params.kappa_out)
        table = tables.lt_build(oracle, [(pair.x0, r), (pair.x1, r)],
                                params.pad_len, rng)
        tr.send("client", "bt.table", tables.serialize_table(table))
        answer = server.respond_basis_test(reg, table)
        tr.send("server", "bt.r", answer)
        if not is_bitstring(answer, params.kappa_out):
            raise Rejected(f"round {t}: malformed r")
        if answer != r:
            raise Rejected(f"round {t}: wrong r")


def combine(oracle, pair_a: KeyPair, pair_b: KeyPair, reg_a: str, reg_b: str,
            params: ProtocolParams, server, rng, tr: Transcript):
    """Combine two gadgets into one by measuring the subscript XOR.

    The output keys are prefixed by a fresh pad per output subscript.
    Returns (new KeyPair, output register name).
    """
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
        raise Rejected("non-bit response")
    return combine_keys(pair_a, pair_b, outcome, pads), name
