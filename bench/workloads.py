"""The benchmark workloads: their inputs, operations and output checks.

Every workload is a closed loop: one caller runs a step, waits for it to
finish, checks its outputs, and only then starts the next. Steps alternate
between the workload's heavy kind and its light kind. Each operation gets a
fresh ``RandomOracle``, server and ``rng`` seeded from the workload seed and
the operation's index, so a run is fully determined by ``(workload, seed)``
and any prefix of it can be replayed exactly.

The bqcsim modules are imported by the caller (``run.py`` puts the
checkout's ``src`` first on ``sys.path``). Library functions are looked up
on their module at call time so that a :class:`tracing.Tracer` sees them.
"""

from __future__ import annotations

import hashlib
import math
import random
import signal
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count, islice
from time import perf_counter

from bqcsim import adversary, gadget_prep, oracle, protocols, qfactory, state

EXACT = 1 - 1e-9
# The pipeline shape of the ROADMAP baseline. An honest padded Hadamard test
# rejects when its kappa_out-bit tail is all zero (probability 2^-kappa_out);
# an L=8 run makes 10 such tests, so about 4% of honest L=8 runs abort. That
# abort is the protocol's completeness error, not a failed operation: each
# one is checked to be exactly that, and a pooled check bounds their rate.
PIPELINE = dict(N=2, key_width=4, kappa_out=8, pad_base=4, J=1,
                test_rounds=1)
HONEST_ABORT = "all-zero tail"
ABORT_MIN_PVALUE = 1e-6
UBQC_GATES = 3
UBQC_SHOTS = 10_000
UBQC_TOLERANCE = 0.05  # |p_hat(1) - dense| bound; 10 sigma at 10k shots
FREE_LUNCH = dict(pad_len=8, kappa_out=20)
FREE_LUNCH_GUESSES = 64
FREE_LUNCH_TRIALS_PER_STEP = 20
PERMUTED_MAX_RATE = 0.02
CHEAT = dict(pad_len=6, kappa_out=16, test_rounds=1)
CHEAT_TRIALS_PER_STEP = 200
CHEAT_SIGMAS = 5  # two-sided normal tail at 5 sigma: 5.7e-7
CHI2_MIN_PVALUE = 1e-6


def derive_seed(*parts) -> int:
    """A 62-bit seed determined by ``parts``."""
    text = "|".join(map(str, parts)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(),
                          "big") >> 2


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fresh_party(s: int):
    """Fresh oracle, honest server and client rng for one operation."""
    orc = oracle.RandomOracle(s)
    server = protocols.HonestServer(orc, seed=s + 1)
    return orc, server, random.Random(s ^ 0xBE7C)


@dataclass
class Step:
    kind: str  # "heavy" or "light"
    index: int
    ops: list


@dataclass
class Checked:
    """What the output checks found for one operation."""

    ok: bool
    digest: str
    transcripts: tuple = ()
    aborted: bool = False  # an honest all-zero-tail abort


@dataclass
class PooledCheck:
    name: str
    ok: bool
    ops: int  # operations the check covers
    detail: str


class Workload:
    """Base: step sequence, timing-free operation runs, and checks."""

    name = ""
    ops_per_step = {"heavy": 1, "light": 1}
    peak_kinds = ("heavy",)  # step kinds replayed to read the peak state size

    def __init__(self, seed: int):
        self.seed = seed
        self.abort_ops = self.hadamard_tests = self.aborts = 0

    def steps(self):
        for i in count():
            kind = "heavy" if i % 2 == 0 else "light"
            n = self.ops_per_step[kind]
            yield Step(kind, i, [self.make_op(kind, i * 1000 + j)
                                 for j in range(n)])

    def make_op(self, kind: str, index: int):
        raise NotImplementedError

    def run_op(self, kind: str, op):
        raise NotImplementedError

    def check_op(self, kind: str, op, result) -> Checked:
        raise NotImplementedError

    def note_aborts(self, tr) -> bool:
        """Count the padded Hadamard tests in ``tr``; True on honest abort."""
        self.abort_ops += 1
        self.hadamard_tests += sum(tag == "ph.pad" for _, tag, _ in
                                   tr.messages)
        aborted = (not tr.passed
                   and (tr.fail_reason or "").endswith(HONEST_ABORT))
        self.aborts += aborted
        return aborted

    def pooled_checks(self) -> list[PooledCheck]:
        """The honest-abort rate is within the binomial bound."""
        p = binomial_sf(self.aborts, self.hadamard_tests,
                        2.0 ** -PIPELINE["kappa_out"])
        return [PooledCheck("abort_rate", p >= ABORT_MIN_PVALUE,
                            self.abort_ops,
                            f"{self.aborts} aborts in {self.hadamard_tests} "
                            f"padded Hadamard tests, p={p:.3g}")]


class Pipeline(Workload):
    """gdgprep_full from N=2 to L, alternating L=8 and L=4."""

    name = "pipeline"

    def make_op(self, kind, index):
        return (8 if kind == "heavy" else 4,
                derive_seed(self.name, self.seed, index))

    def run_op(self, kind, op):
        L, s = op
        orc, server, rng = fresh_party(s)
        cfg = gadget_prep.PipelineConfig(L=L, **PIPELINE)
        out, tr, reports = gadget_prep.gdgprep_full(orc, cfg, server, rng)
        return cfg, server, out, tr, reports

    def check_op(self, kind, op, result):
        cfg, server, out, tr, reports = result
        if self.note_aborts(tr):
            return Checked(True, digest(tr.serialize()), (tr,), aborted=True)
        ideal = state.gadget_state([(reg, p.x0, p.x1) for p, reg in out])
        ok = (tr.passed and len(out) == cfg.L
              and server.state.fidelity(ideal) >= EXACT
              and reports[-1].helpers_consumed
              == gadget_prep.expected_helper_count(cfg))
        return Checked(ok, digest(tr.serialize()), (tr,))


class Ubqc(Workload):
    """succ_ubqc delegations: 10k-shot (heavy) and 1-shot (light)."""

    name = "ubqc"
    peak_kinds = ("light",)  # the shots never touch the server state

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(derive_seed(self.name, seed, "circuit"))
        self.circuit = [rng.randrange(8) for _ in range(UBQC_GATES)]
        self.p_one = qfactory.dense_output_prob(self.circuit)
        self.delta_counts = [0] * 8
        self.delegations = 0

    def make_op(self, kind, index):
        return (UBQC_SHOTS if kind == "heavy" else 1,
                derive_seed(self.name, self.seed, index))

    def run_op(self, kind, op):
        shots, s = op
        orc, server, rng = fresh_party(s)
        cfg = gadget_prep.PipelineConfig(L=UBQC_GATES + 1, **PIPELINE)
        return qfactory.succ_ubqc(orc, cfg, self.circuit, server, rng,
                                  shots=shots)

    def check_op(self, kind, op, result):
        shots, _ = op
        ones, deltas, tr = result
        for d in deltas:
            self.delta_counts[d] += 1
        self.delegations += 1
        if self.note_aborts(tr):
            return Checked(not deltas, digest(tr.serialize()), (tr,),
                           aborted=True)
        ok = (tr.passed and ones is not None and 0 <= ones <= shots
              and len(deltas) == shots * UBQC_GATES
              and (shots == 1
                   or abs(ones / shots - self.p_one) <= UBQC_TOLERANCE))
        return Checked(ok, digest(tr.serialize()), (tr,))

    def pooled_checks(self):
        n = sum(self.delta_counts)
        p = chi2_sf_7(chi_square(self.delta_counts)) if n else 1.0
        return super().pooled_checks() + [
            PooledCheck("delta_uniformity", p >= CHI2_MIN_PVALUE,
                        self.delegations, f"chi2 p={p:.3g} over {n} deltas")]


class Attack(Workload):
    """Free-lunch trials (heavy) and Hadamard-cheat trials (light)."""

    name = "attack"
    ops_per_step = {"heavy": FREE_LUNCH_TRIALS_PER_STEP,
                    "light": CHEAT_TRIALS_PER_STEP}
    peak_kinds = ("heavy", "light")

    def __init__(self, seed):
        super().__init__(seed)
        self.permuted = self.permuted_hits = 0
        self.cheats = self.cheat_passes = 0

    def make_op(self, kind, index):
        s = derive_seed(self.name, self.seed, index)
        if kind == "light":
            return s
        return ("permuted" if index % 2 else "unpermuted", s)

    def run_op(self, kind, op):
        if kind == "light":
            return adversary.run_with_adversary(
                "pad_hadamard", adversary.MeasureThenRandomD,
                protocols.ProtocolParams(**CHEAT), op)
        variant, s = op
        return adversary.free_lunch_attack(
            s, variant, protocols.ProtocolParams(**FREE_LUNCH),
            FREE_LUNCH_GUESSES)

    def check_op(self, kind, op, result):
        if kind == "light":
            verdict, _, tr = result
            self.cheats += 1
            self.cheat_passes += verdict == "pass"
            return Checked(verdict in ("pass", "fail"),
                           digest(tr.serialize()), (tr,))
        variant, _ = op
        trial = digest(repr(op + (result,)))
        if variant == "permuted":
            self.permuted += 1
            self.permuted_hits += result is True
            return Checked(isinstance(result, bool), trial)
        return Checked(result is True, trial)

    def pooled_checks(self):
        # cheat trials fail on purpose; no honest-abort check applies
        n = self.cheats
        sigma = math.sqrt(n) / 2
        permuted_max = PERMUTED_MAX_RATE * self.permuted
        return [
            PooledCheck("permuted_rate", self.permuted_hits <= permuted_max,
                        self.permuted,
                        f"{self.permuted_hits}/{self.permuted} recovered"),
            PooledCheck("cheat_rate",
                        abs(self.cheat_passes - n / 2) <= CHEAT_SIGMAS * sigma,
                        n, f"{self.cheat_passes}/{n} passed"),
        ]


WORKLOADS = {w.name: w for w in (Pipeline, Ubqc, Attack)}


# -- host-speed calibration ------------------------------------------------
#
# On a shared host the speed of pure-Python code drifts by up to a third
# within seconds (other tenants' load), which swamps run-to-run comparisons
# of raw wall time. So the benchmark samples the host's speed with a fixed
# calibration loop built from the kinds of work bqcsim does (bit strings,
# dicts, small ints): five times before and after each step, and every
# SAMPLE_INTERVAL_S during it from a SIGALRM handler. Sampling time is
# excluded from every timing, and times are reported scaled to a host on
# which the loop takes REFERENCE_S. The loop is benchmark code, so no
# library change can alter it; raw wall times are reported next to the
# scaled ones.

REFERENCE_S = 0.001
SAMPLE_INTERVAL_S = 0.05
BRACKET_SAMPLES = 5


def calibrate() -> float:
    """Wall time of one fixed calibration loop (about 1 ms)."""
    t0 = perf_counter()
    table: dict[str, int] = {}
    for i in range(450):
        key = format(i * 2654435761 % 65536, "016b")
        table[key] = table.get(key, 0) + 1
        "".join("1" if a != b else "0" for a, b in zip(key, key[::-1]))
    return perf_counter() - t0


class HostClock:
    """A wall clock that excludes speed sampling, and the samples taken."""

    def __init__(self):
        self.stolen = 0.0
        self.samples: list[float] = []

    def now(self) -> float:
        return perf_counter() - self.stolen

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        self.samples.append(calibrate())
        self.stolen += perf_counter() - t0

    def bracket(self) -> None:
        for _ in range(BRACKET_SAMPLES):
            self.sample()

    @contextmanager
    def sampling(self):
        """Sample before, during (on a timer signal) and after the block."""
        self.samples = []
        self.bracket()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.bracket()

    def scale(self) -> float:
        """Factor from wall time to reference-speed time (last block)."""
        return REFERENCE_S / (sum(self.samples) / len(self.samples))


# -- running steps ---------------------------------------------------------


@dataclass
class StepRecord:
    kind: str
    ops: int
    seconds: float  # wall time of the operations, sampling and checks excluded
    scale: float  # HostClock.scale() over the step
    failed: int = 0
    aborted: int = 0
    digests: list[str] = field(default_factory=list)

    @property
    def op_s(self) -> float:
        return self.seconds / self.ops

    @property
    def scaled_op_s(self) -> float:
        """Time per operation at the reference host speed."""
        return self.op_s * self.scale


def run_step(workload: Workload, step: Step, clock: HostClock,
             tracer=None) -> StepRecord:
    """Run one step's operations, timing them, then check the outputs."""
    results = []
    with clock.sampling():
        t0 = clock.now()
        for j, op in enumerate(step.ops):
            if tracer:
                tracer.begin_op(step.index * 1000 + j)
            try:
                results.append(workload.run_op(step.kind, op))
            except Exception:
                traceback.print_exc()
                results.append(None)
            finally:
                if tracer:
                    tracer.end_op()
        seconds = clock.now() - t0
    rec = StepRecord(step.kind, len(step.ops), seconds, clock.scale())
    for op, result in zip(step.ops, results):
        checked = None
        if result is not None:
            try:
                checked = workload.check_op(step.kind, op, result)
            except Exception:
                traceback.print_exc()
        if checked is None:
            rec.failed += 1
            rec.digests.append("")
            continue
        rec.failed += not checked.ok
        rec.aborted += checked.aborted
        rec.digests.append(checked.digest)
        if tracer:
            tracer.add_transcripts(checked.transcripts)
    return rec


def run_for(workload: Workload, seconds: float) -> list[StepRecord]:
    """Closed loop for ``seconds``.

    It runs at least one step of each kind in which no operation aborted.
    """
    clock = HostClock()
    records = []
    deadline = perf_counter() + seconds
    for step in workload.steps():
        if (perf_counter() >= deadline
                and {r.kind for r in records if not r.aborted}
                == {"heavy", "light"}):
            break
        records.append(run_step(workload, step, clock))
    return records


def replay(workload: Workload, n_steps: int, tracer=None,
           clock: HostClock | None = None) -> list[StepRecord]:
    """The first ``n_steps`` steps again."""
    clock = clock or HostClock()
    return [run_step(workload, step, clock, tracer)
            for step in islice(workload.steps(), n_steps)]


def peak_branches(workload: Workload, tracer) -> int:
    """Most server-state branches in a full run of each ``peak_kinds`` step.

    For each kind, this is the first step of that kind in which no operation
    aborted honestly (an abort ends a run before its largest state).
    ``tracer`` must be installed.
    """
    clock, peak, wanted = HostClock(), 0, set(workload.peak_kinds)
    for step in workload.steps():
        if not wanted:
            return peak
        if step.kind not in wanted:
            continue
        tracer.peak_branches = 0
        if not run_step(workload, step, clock, tracer).aborted:
            wanted.discard(step.kind)
            peak = max(peak, tracer.peak_branches)


# -- statistics ------------------------------------------------------------


def binomial_sf(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    below = sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i)
                for i in range(k))
    return max(0.0, 1.0 - below)


def chi_square(counts: list[int]) -> float:
    n = sum(counts)
    expected = n / len(counts)
    return sum((c - expected) ** 2 / expected for c in counts)


def chi2_sf_7(x: float) -> float:
    """Survival function of the chi-square distribution with 7 dof."""
    y = x / 2
    # Q(7/2, y) = erfc(sqrt y) + e^-y * sum_{j=1..3} y^(j-1/2) / Gamma(j+1/2)
    tail = sum(y ** (j - 0.5) / math.gamma(j + 0.5) for j in (1, 2, 3))
    return math.erfc(math.sqrt(y)) + math.exp(-y) * tail
