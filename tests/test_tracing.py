"""The benchmark tracer (bench/tracing.py) still finds every name it reads.

The tracer wraps bqcsim functions and methods by name and its metrics read
them back by label, so deleting or renaming one of them breaks
``bench/run.py --trace 1``. This test fails first.
"""

import importlib.util
import random
from collections import Counter
from pathlib import Path

import bqcsim
import bqcsim.adversary  # noqa: F401  (loads every layer module)
import bqcsim.qfactory  # noqa: F401
from conftest import SMALL_PIPELINE, run_alone

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_reports_metrics():
    tracer = load_tracing().Tracer()
    tracer.install(bqcsim)
    try:
        tracer.begin_op(0)
        oracle = bqcsim.oracle.RandomOracle(1)
        server = bqcsim.protocols.HonestServer(oracle, seed=2)
        rng = random.Random(3)
        pair = bqcsim.keychain.sample_key_pair(rng, 6)
        reg = server.prepare_gadget("g", pair)
        params = bqcsim.protocols.ProtocolParams(pad_len=6, kappa_out=8)
        _, tr = run_alone(bqcsim.protocols.pad_hadamard, oracle, pair, reg,
                          params, server, rng)
        tracer.end_op()
        tracer.add_transcripts([tr])
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["oracle.prf_calls"] > 0
    assert m["oracle.queries.server"] == 1  # one superposed query
    assert m["state.map_branches"] > 0  # the value map is still counted
    assert m["protocols.messages"] == len(tr.messages)


def test_every_pipeline_stage_the_bench_names_is_timed():
    tracer = load_tracing().Tracer()
    tracer.install(bqcsim)
    try:
        tracer.begin_op(0)
        oracle = bqcsim.oracle.RandomOracle(1)
        server = bqcsim.protocols.HonestServer(oracle, seed=2)
        cfg = bqcsim.gadget_prep.PipelineConfig(L=4, N=2,
                                                **SMALL_PIPELINE)
        _, tr, _ = bqcsim.gadget_prep.gdgprep_full(oracle, cfg, server,
                                                   random.Random(3))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert tr.passed
    m = tracer.metrics()
    for stage in ("1pn", "logk", "repeat", "refresh", "oneround", "full"):
        assert m[f"gadget_prep.{stage}.s"] > 0, stage


def test_blind_shot_names_the_bench_reads_are_timed():
    tracer = load_tracing().Tracer()
    tracer.install(bqcsim)
    try:
        tracer.begin_op(0)
        oracle = bqcsim.oracle.RandomOracle(21)
        server = bqcsim.protocols.HonestServer(oracle, seed=22)
        cfg = bqcsim.gadget_prep.PipelineConfig(L=4, N=2, J=1,
                                                **SMALL_PIPELINE)
        ones, _, tr = bqcsim.qfactory.succ_ubqc(oracle, cfg, [2, 5], server,
                                                random.Random(7), shots=10)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert tr.passed and 0 <= ones <= 10
    m = tracer.metrics()
    assert m["qfactory.shots"] == 1  # one pass per tile
    assert m["qfactory.ubqc_run_s"] > 0
    assert "qfactory.reblind_s" in m and m["qfactory.reblind_s"] > 0

    # one shot past a tile takes a second kernel pass and re-blinding
    def delegation():
        oracle = bqcsim.oracle.RandomOracle(21)
        server = bqcsim.protocols.HonestServer(oracle, seed=22)
        return bqcsim.qfactory.succ_ubqc(
            oracle, cfg, [2, 5], server, random.Random(7),
            shots=bqcsim.qfactory.SHOT_TILE + 1)

    (_, _, tr), m = traced(delegation)
    assert tr.passed
    assert m["qfactory.shots"] == 2 and m["qfactory.reblind_s"] > 0


def traced(run):
    """``run()`` as one traced operation: its result and the metrics."""
    tracer = load_tracing().Tracer()
    tracer.install(bqcsim)
    try:
        tracer.begin_op(0)
        result = run()
        tracer.end_op()
    finally:
        tracer.uninstall()
    return result, tracer.metrics()


def hash_work(m):
    return (m["oracle.prf_calls"], m["oracle.queries.client"],
            m["oracle.queries.server"], m["oracle.queries.attacker"])


def test_hash_work_of_a_pipeline_and_an_attack_trial_is_pinned():
    # every _prf call and every charged query, as the bench counts them:
    # the charged queries are the protocol's and may not move, and a row
    # tag with a recorded owner costs no _prf call
    def pipeline():
        oracle = bqcsim.oracle.RandomOracle(1)
        server = bqcsim.protocols.HonestServer(oracle, seed=2)
        cfg = bqcsim.gadget_prep.PipelineConfig(L=4, N=2,
                                                **SMALL_PIPELINE)
        return bqcsim.gadget_prep.gdgprep_full(oracle, cfg, server,
                                               random.Random(3))[1]

    tr, m = traced(pipeline)
    assert tr.passed
    # 232 = 144 + 16 + 72: the client's tag and mask of each of its 72
    # rows, 16 calls outside tables, and one mask per row the server opens,
    # 72 openings in all. Each opening reads its row's tag from the memo;
    # the in-order scan called _prf for every tag it tried, 236 in all
    # (468 = 232 + 236). The four basis tests (two inputs, two helpers)
    # open their 2-row tables once and are charged two passes.
    assert hash_work(m) == (232, 152, 164, 0)

    params = bqcsim.protocols.ProtocolParams(pad_len=8, kappa_out=20)
    won, m = traced(lambda: bqcsim.adversary.free_lunch_attack(
        5, "permuted", params, 64))
    assert won is False
    # one instance, one 16-row table: 32 = 16 rows at two client charges.
    # 521 rows tried = 9 by the two forward decryptions up to the rows they
    # open + 64 guesses * 8 backward rows, none of which opens; 523 = 521
    # + 2 openings. Every row tag has the owner the client's build recorded,
    # so no tag is hashed: 34 = 32 + the 2 unmasks of the forward openings.
    # Hashing every tag tried made it 555 = 32 + 523. The readers charge
    # the rows they pass over and call dec_row only on the 2 rows that
    # open, so the rows tried are the attacker's charges less the openings
    assert hash_work(m) == (34, 32, 0, 523)
    assert m["tables.rows_tried"] == 2
    assert m["oracle.queries.attacker"] - m["tables.rows_tried"] == 521


def test_single_map_server_steps_keep_their_traced_names():
    # the tracer wraps these server steps by name; a padded Hadamard test
    # is one superposed query and the pipeline still evaluates tables
    tracer = load_tracing().Tracer()
    tracer.install(bqcsim)
    try:
        tracer.begin_op(0)
        oracle = bqcsim.oracle.RandomOracle(1)
        server = bqcsim.protocols.HonestServer(oracle, seed=2)
        cfg = bqcsim.gadget_prep.PipelineConfig(L=4, N=2,
                                                **SMALL_PIPELINE)
        _, tr, _ = bqcsim.gadget_prep.gdgprep_full(oracle, cfg, server,
                                                   random.Random(3))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert tr.passed
    m = tracer.metrics()
    pads = sum(tag == "ph.pad" for _, tag, _ in tr.messages)
    assert pads > 0
    assert m["oracle.superposed_calls"] == pads
    assert m["tables.eval_coherent_calls"] > 0
    spans = Counter(tracer.labels[i] for i in tracer.name)
    for label in ("protocols.extend_gadget", "protocols.respond_pad_hadamard",
                  "oracle.query_superposed", "tables.lt_eval_coherent",
                  "tables.rev_eval"):
        assert spans[label] > 0, label


def test_phase_table_answer_counts_as_server_time():
    # the bench finds server steps by name prefix; with no basis-test round,
    # a qfac8's only server step is its answer to the phase table
    tracer = load_tracing().Tracer()
    tracer.install(bqcsim)
    try:
        oracle = bqcsim.oracle.RandomOracle(1)
        server = bqcsim.protocols.HonestServer(oracle, seed=2)
        rng = random.Random(3)
        pair = bqcsim.keychain.sample_key_pair(rng, 6)
        gadget = (pair, server.prepare_gadget("g", pair))
        params = bqcsim.protocols.ProtocolParams(pad_len=6, kappa_out=8,
                                                 test_rounds=0)
        tracer.begin_op(0)
        qb, tr = run_alone(bqcsim.qfactory.qfac8, oracle, gadget, params,
                           server, rng)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert tr.passed and qb is not None
    spans = Counter(tracer.labels[i] for i in tracer.name)
    server_steps = [lab for lab in spans if lab.removeprefix("protocols.")
                    in vars(bqcsim.protocols.HonestServer)]
    assert server_steps == ["protocols.respond_phase_table"]
    assert spans["protocols.respond_phase_table"] == 1
    assert tracer.metrics()["protocols.server_self_s"] > 0
