"""CLI: exit codes, output files, config handling, replay determinism."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from bqcsim import cli
from bqcsim.cli import RUN_PROTOCOLS, ConfigError, main, parse_config, DEFAULTS
from bqcsim.gadget_prep import PipelineConfig
from bqcsim.protocols import ProtocolParams


def run(argv):
    return main(argv)


def test_run_pad_hadamard_exit_zero(tmp_path):
    code = run(["run", "pad-hadamard", "--seed", "1",
                "--out", str(tmp_path)])
    assert code == 0
    log = (tmp_path / "pad-hadamard.log").read_text()
    assert log.endswith("verdict\tpass\t\n")


def test_run_writes_stage_reports(tmp_path):
    code = run(["run", "gdgprep-1pn", "--seed", "2",
                "--out", str(tmp_path)])
    assert code == 0
    stages = (tmp_path / "gdgprep-1pn.stages.tsv").read_text()
    assert stages.splitlines()[0] == "stage\tin\tout\thelpers\tverdict\tqueries"
    assert "\tpass\t" in stages


def test_run_full_pipeline(tmp_path):
    code = run(["run", "gdgprep-full", "--seed", "3", "--out", str(tmp_path),
                "--set", "L=4"])
    assert code == 0
    assert (tmp_path / "gdgprep-full.stages.tsv").exists()


def test_seed_replay_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["run", "gdgprep-1pn", "--seed", "9",
                    "--out", str(out)]) == 0
    assert ((a / "gdgprep-1pn.log").read_bytes()
            == (b / "gdgprep-1pn.log").read_bytes())


@pytest.mark.parametrize("protocol", RUN_PROTOCOLS)
def test_every_run_protocol_passes(tmp_path, protocol):
    assert run(["run", protocol, "--seed", "1", "--out", str(tmp_path)]) == 0
    log = (tmp_path / f"{protocol}.log").read_text()
    assert log.splitlines()[-1].startswith("verdict\tpass")


def test_unknown_protocol_exit_two():
    assert run(["run", "no-such-thing", "--seed", "1"]) == 2


def test_missing_seed_exit_two():
    assert run(["run", "pad-hadamard"]) == 2


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# comment\nkappa_out = 10\npad_base=5\n")
    parsed = parse_config(cfg.read_text(), DEFAULTS)
    assert parsed["kappa_out"] == 10 and parsed["pad_base"] == 5
    code = run(["run", "pad-hadamard", "--seed", "4", "--out", str(tmp_path),
                "--config", str(cfg), "--set", "kappa_out=12"])
    assert code == 0


def test_config_rejects_unknown_key():
    # pad_len is no key: round 1's pad is pad_base bits
    for text in ("no_such_knob=1", "pad_len=5"):
        with pytest.raises(ConfigError):
            parse_config(text, DEFAULTS)
    with pytest.raises(ConfigError):
        parse_config("kappa_out=ten", DEFAULTS)


def test_protocol_keys_are_pipeline_config_fields(capsys):
    # one default set: every protocol key is a PipelineConfig field with
    # the field's default, and only the experiment sizes are the CLI's own
    widths = {f.name: f.default for f in fields(PipelineConfig)}
    assert {k: DEFAULTS[k] for k in widths} == widths
    assert set(DEFAULTS) - set(widths) == {"shots", "guesses"}
    # the per-round record keeps two defaults, and they are the pipeline's
    kept = {f.name: f.default for f in fields(ProtocolParams)
            if f.default is not MISSING}
    assert kept == {"test_rounds": PipelineConfig().test_rounds,
                    "key_width": PipelineConfig().key_width}
    assert run(["run", "pad-hadamard", "--seed", "1",
                "--set", "pad_len=8"]) == 2
    assert capsys.readouterr().err == "error: line 1: unknown key 'pad_len'\n"


def test_bad_config_file_exit_two(tmp_path):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("garbage line without equals\n")
    assert run(["run", "pad-hadamard", "--seed", "1",
                "--config", str(cfg)]) == 2


def test_attack_free_lunch_unpermuted(tmp_path):
    code = run(["attack", "free-lunch-unpermuted", "--seed", "1",
                "--trials", "10", "--set", "kappa_out=12",
                "--out", str(tmp_path)])
    assert code == 0
    stats = (tmp_path / "free-lunch-unpermuted.tsv").read_text()
    assert "\t10\t10\t1.000000\t" in stats


def test_attack_hadamard_cheat(tmp_path):
    code = run(["attack", "hadamard-cheat", "--seed", "2", "--trials", "50",
                "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "hadamard-cheat.tsv").exists()


def test_ubqc_zero_circuit_outputs_zero(tmp_path):
    # one J(0) = H gate: H|+> = |0>, the histogram concentrates on 0
    circ = tmp_path / "circ.txt"
    circ.write_text("0\n")
    code = run(["ubqc", str(circ), "--seed", "5", "--out", str(tmp_path),
                "--set", "shots=200", "--set", "L=2", "--set", "N=2"])
    assert code == 0
    hist = (tmp_path / "ubqc.hist.tsv").read_text()
    line1 = [l for l in hist.splitlines() if l.startswith("1\t")][0]
    assert line1.split("\t")[1] == "0"


def test_ubqc_missing_file_exit_two(tmp_path):
    assert run(["ubqc", str(tmp_path / "none.txt"), "--seed", "1"]) == 2


def test_ubqc_bad_circuit_token(tmp_path):
    circ = tmp_path / "circ.txt"
    circ.write_text("1 two 3\n")
    assert run(["ubqc", str(circ), "--seed", "1"]) == 2


def test_ubqc_rejects_fewer_than_one_shot(tmp_path):
    circ = tmp_path / "circ.txt"
    circ.write_text("3 5 1\n")
    for shots in ("0", "-2"):
        assert run(["ubqc", str(circ), "--seed", "5", "--set",
                    f"shots={shots}", "--set", "L=4"]) == 2


def test_trials_only_for_attack(tmp_path):
    circ = tmp_path / "circ.txt"
    circ.write_text("3\n")
    for command in (["run", "pad-hadamard"],
                    ["ubqc", str(circ), "--set", "shots=10", "--set", "L=2"]):
        command += ["--seed", "1", "--out", str(tmp_path)]
        assert run(command) == 0
        assert run(command + ["--trials", "5"]) == 2


def test_ubqc_seed_replay_byte_identical(tmp_path):
    circ = tmp_path / "circ.txt"
    circ.write_text("3 5 1\n")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["ubqc", str(circ), "--seed", "5", "--set", "shots=2000",
                    "--set", "L=4", "--out", str(out)]) == 0
    for name in ("ubqc.log", "ubqc.hist.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# For each config key, a command and a value other than its default that
# change the command's output bytes: no key is inert.
KEY_PROBES = {
    "kappa_out": ("run pad-hadamard", 12),
    "test_rounds": ("run basis-test", 3),
    "key_width": ("run pad-hadamard", 5),
    "L": ("run gdgprep-full", 4),
    "N": ("run gdgprep-full", 4),
    "pad_base": ("run gdgprep-full", 3),
    "J": ("run gdgprep-full", 2),
    "shots": ("ubqc CIRCUIT", 10),
    "guesses": ("attack free-lunch-permuted --trials 20 --set kappa_out=2",
                0),
}


def test_no_config_key_is_inert(tmp_path):
    assert set(KEY_PROBES) == set(DEFAULTS)
    circ = tmp_path / "circ.txt"
    circ.write_text("1 3 6\n")

    def outputs(argv, out):
        argv = [str(circ) if a == "CIRCUIT" else a for a in argv]
        assert run(argv + ["--seed", "1", "--out", str(out)]) == 0
        return {f.name: f.read_bytes() for f in out.iterdir()}

    for key, (command, value) in KEY_PROBES.items():
        argv = command.split()
        base = outputs(argv, tmp_path / key / "default")
        changed = outputs(argv + ["--set", f"{key}={value}"],
                          tmp_path / key / "set")
        assert changed != base, key

    cfg = tmp_path / "kappa.txt"
    cfg.write_text("kappa=8\n")
    out = tmp_path / "rejected"
    for argv in (["run", "gdgprep-full", "--mode", "paper"],
                 ["ubqc", str(circ), "--mode", "toy"],
                 ["run", "gdgprep-full", "--config", str(cfg)]):
        assert run(argv + ["--seed", "1", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command,setting", [
    ("run gdgprep-full", "N=0"),
    ("run gdgprep-full", "L=6"),
    ("run gdgprep-full", "key_width=0"),
    ("run gdgprep-full", "kappa_out=0"),
    ("run gdgprep-full", "pad_base=0"),
    ("run basis-test", "pad_base=0"),
    ("ubqc CIRCUIT", "N=0"),
])
def test_out_of_range_config_exit_two(tmp_path, capsys, command, setting):
    circ = tmp_path / "circ.txt"
    circ.write_text("3\n")
    argv = [str(circ) if a == "CIRCUIT" else a for a in command.split()]
    out = tmp_path / "out"
    assert run(argv + ["--set", setting, "--seed", "1",
                       "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def child_env(**extra) -> dict:
    """The environment for a child interpreter that imports this bqcsim."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_near_power_of_two_shape_exits_two_at_once():
    # L/N = 2**59 + 1 is no power of two; the run must not start
    proc = subprocess.run(
        [sys.executable, "-m", "bqcsim.cli", "run", "gdgprep-full", "--seed",
         "1", "--set", "L=1152921504606846978", "--set", "N=2"],
        env=child_env(), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")


def test_attack_refuses_the_keys_it_does_not_read(tmp_path, capsys):
    attack = ["attack", "hadamard-cheat", "--seed", "1", "--trials", "40"]
    out = tmp_path / "out"
    for key in cli.ATTACK_UNREAD:
        cfg = tmp_path / f"{key}.txt"
        cfg.write_text(f"{key}=4\n")
        for given in (["--set", f"{key}=4"], ["--config", str(cfg)]):
            assert run(attack + given + ["--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: attack reads no {key}\n"
    assert run(attack + ["--set", "L=6", "--set", "N=5", "--set", "J=3",
                         "--set", "shots=7", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: attack reads no L, N, J, shots\n"
    assert not out.exists()


@pytest.mark.parametrize("command,settings,refused", [
    ("run pad-hadamard", ["L=64"], "run reads no L"),
    ("run pad-hadamard", ["N=4"], "run reads no N"),
    ("run pad-hadamard", ["shots=5"], "run reads no shots"),
    ("run pad-hadamard", ["L=64", "N=4", "shots=5"],
     "run reads no L, N, shots"),
    ("run combine", ["test_rounds=3"], "run reads no test_rounds"),
    ("run basis-test", ["J=2"], "run reads no J"),
    ("run refresh", ["L=16", "N=4", "J=2"], "run reads no L"),
    ("run gdgprep-full", ["shots=5", "guesses=0"],
     "run reads no shots, guesses"),
    ("ubqc CIRCUIT", ["guesses=7"], "ubqc reads no guesses"),
    ("attack hadamard-cheat", ["guesses=3"], "attack reads no guesses"),
    ("attack hadamard-cheat", ["guesses=3", "test_rounds=5"],
     "attack reads no test_rounds, guesses"),
    ("attack free-lunch-permuted", ["test_rounds=5"],
     "attack reads no test_rounds"),
    ("attack free-lunch-unpermuted", ["guesses=3"], "attack reads no guesses"),
    ("attack basis-cheat", ["guesses=3"], "attack reads no guesses"),
])
def test_a_command_refuses_the_keys_it_does_not_read(tmp_path, capsys,
                                                     command, settings,
                                                     refused):
    # each of these settings once left the output byte for byte the same
    circ = tmp_path / "circ.txt"
    circ.write_text("1 3 6\n")
    argv = [str(circ) if a == "CIRCUIT" else a for a in command.split()]
    for key in settings:
        argv += ["--set", key]
    out = tmp_path / "out"
    assert run(argv + ["--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {refused}\n"
    assert not out.exists()


def test_every_command_has_its_unread_keys():
    assert set(cli.UNREAD) == {*cli.RUN_PROTOCOLS, *cli.ATTACKS, "ubqc"}
    for name, keys in cli.UNREAD.items():
        assert set(keys) <= set(DEFAULTS) and len(set(keys)) == len(keys)
        if name in cli.ATTACKS:
            assert keys[:len(cli.ATTACK_UNREAD)] == cli.ATTACK_UNREAD


def test_attack_rejects_fewer_than_one_trial(tmp_path):
    for trials in ("0", "-3"):
        assert run(["attack", "hadamard-cheat", "--seed", "1", "--trials",
                    trials, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "hadamard-cheat.tsv").exists()


def test_attack_seeds_draw_disjoint_trials(tmp_path, monkeypatch):
    # no two --seed values share a trial seed, also when they differ by 1
    # or by the cheat estimates' seed step of 1000
    from bqcsim import adversary
    seen = []
    monkeypatch.setattr(adversary, "free_lunch_attack",
                        lambda s, *a: seen.append(s) or False)
    monkeypatch.setattr(adversary, "run_with_adversary",
                        lambda p, c, q, s: seen.append(s) or ("fail",))

    def seeds(attack, seed):
        seen.clear()
        assert run(["attack", attack, "--seed", str(seed),
                    "--out", str(tmp_path)]) == 0
        assert len(seen) == len(set(seen)) == 200
        return set(seen)

    for attack, a, b in (("free-lunch-permuted", 1, 2),
                         ("free-lunch-unpermuted", 1, 2),
                         ("hadamard-cheat", 1, 1001),
                         ("basis-cheat", 1, 2)):
        assert not seeds(attack, a) & seeds(attack, b), (attack, a, b)
    # seed 0 keeps the trial seeds every demo and test draws
    assert seeds("free-lunch-permuted", 0) == set(range(200))
    assert seeds("hadamard-cheat", 0) == set(range(0, 200_000, 1000))


def test_attack_rejects_negative_seed(tmp_path):
    # random.Random(-s) seeds like random.Random(s): refused, not mapped
    assert run(["attack", "hadamard-cheat", "--seed", "-1", "--trials", "3",
                "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "hadamard-cheat.tsv").exists()


@pytest.mark.parametrize("command", ["run basis-test", "ubqc CIRCUIT",
                                     "attack free-lunch-permuted"])
def test_every_command_rejects_a_negative_seed(tmp_path, capsys, command):
    # seed -1 would replay seed 1's client pads, seed -2 seed 0's server
    circ = tmp_path / "circ.txt"
    circ.write_text("3\n")
    argv = [str(circ) if a == "CIRCUIT" else a for a in command.split()]
    out = tmp_path / "out"
    for seed in ("-1", "-2"):
        assert run(argv + ["--seed", seed, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --seed {seed}: need at least 0\n"
    assert not out.exists()


@pytest.mark.parametrize("where", ["circuit", "config"])
def test_input_file_that_is_not_utf8_exits_two(tmp_path, capsys, where):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff3 5 1\n")
    circ = tmp_path / "circ.txt"
    circ.write_text("3\n")
    argv = ["ubqc", str(bad if where == "circuit" else circ), "--seed", "1"]
    if where == "config":
        argv += ["--config", str(bad)]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {where} file {bad} is not UTF-8 text\n"
    assert not out.exists()


# trial counts one past the last that fits one seed block of 2**40 seeds:
# the cheaters step trial seeds by 1000, the free-lunch attacks by 1
TRIAL_LIMITS = {"hadamard-cheat": -(-2**40 // 1000),
                "basis-cheat": -(-2**40 // 1000),
                "free-lunch-unpermuted": 2**40,
                "free-lunch-permuted": 2**40}


@pytest.mark.parametrize("attack", sorted(TRIAL_LIMITS))
def test_attack_rejects_more_trials_than_a_seed_block(tmp_path, capsys,
                                                      monkeypatch, attack):
    from bqcsim import adversary

    def trial(*args):
        raise ValueError("inside a trial")

    monkeypatch.setattr(adversary, "free_lunch_attack", trial)
    monkeypatch.setattr(adversary, "run_with_adversary", trial)
    limit = TRIAL_LIMITS[attack]
    argv = ["attack", attack, "--seed", "0", "--out", str(tmp_path / "out")]
    assert run(argv + ["--trials", str(limit)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: trials={limit}: more than one seed block\n"
    assert not (tmp_path / "out").exists()
    # one trial fewer fits: its first trial runs, and an error raised
    # there is the trial's own, not a usage error
    with pytest.raises(ValueError, match="inside a trial"):
        run(argv + ["--trials", str(limit - 1)])


@pytest.mark.parametrize("where", ["file", "below-a-file"])
def test_run_rejects_an_out_that_is_no_directory(tmp_path, capsys, where):
    existing = tmp_path / "taken"
    existing.write_text("kept\n")
    out = existing if where == "file" else existing / "out"
    assert run(["run", "pad-hadamard", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert existing.read_text() == "kept\n"
    assert [f.name for f in tmp_path.iterdir()] == ["taken"]


def test_qfac8_angle_is_a_file_not_a_message(tmp_path):
    # the client never sends its angle, so no transcript record holds it
    assert run(["run", "qfac8", "--seed", "1", "--out", str(tmp_path)]) == 0
    log = (tmp_path / "qfac8.log").read_text()
    assert "theta" not in log and log.endswith("server\tqf.d\t010001\n"
                                               "verdict\tpass\t\n")
    header, angle = (tmp_path / "qfac8.angle.tsv").read_text().splitlines()
    assert header == "theta_index" and angle in "01234567"


def test_ubqc_circuit_longer_than_the_pipeline_exits_two(tmp_path, capsys):
    circ = tmp_path / "circ.txt"
    circ.write_text("1 2 3 4 5 6 7 0\n")  # 8 gates need L >= 9
    out = tmp_path / "out"
    assert run(["ubqc", str(circ), "--seed", "1", "--set", "L=8",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: pipeline L=8 too small for "
                                       "8 gates\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", range(5))
def test_failed_delegation_exits_one_without_histogram(tmp_path, seed):
    # a 1-bit output hash tail is all zero half the time, so some padded
    # Hadamard test of the pipeline aborts the honest run
    circ = tmp_path / "circ.txt"
    circ.write_text("3 5 1\n")
    assert run(["ubqc", str(circ), "--seed", str(seed), "--set",
                "kappa_out=1", "--out", str(tmp_path)]) == 1
    log = (tmp_path / "ubqc.log").read_text()
    assert log.splitlines()[-1].startswith("verdict\tfail\t")
    assert not (tmp_path / "ubqc.hist.tsv").exists()


# sha256 of every output file of fixed runs. Refactors must keep them; a
# change that moves them changes transcripts for a given seed on purpose.
GOLDEN = {
    "gdgprep-full": (["run", "gdgprep-full", "--seed", "1"], {
        "gdgprep-full.log":
            "99aac0335d285b3fd96daaf6287a30d57d73cfb7470a44c96e2d44d2affa2253",
        "gdgprep-full.stages.tsv":
            "21c3554f431c00d1d0002e1c29e65b3e77a15fc6d6b63f6a3d40330fcd699bae",
    }),
    # round 2's pad is 64 bits, exactly TAG_BITS: the widest pad whose
    # tags were never narrowed to TAG_BITS
    "gdgprep-full-pad64": (["run", "gdgprep-full", "--seed", "1",
                            "--set", "pad_base=32"], {
        "gdgprep-full.log":
            "36d08e4eee6b78028e4e00a1870a55a8c1038382765048a3440b3623ed9c97ba",
        "gdgprep-full.stages.tsv":
            "21c3554f431c00d1d0002e1c29e65b3e77a15fc6d6b63f6a3d40330fcd699bae",
    }),
    "gdgprep-1pn": (["run", "gdgprep-1pn", "--seed", "1"], {
        "gdgprep-1pn.log":
            "9615dc8db02b4728e99fb98c5ed55d48cc246b99820ff3cdae473e03d155da0d",
        "gdgprep-1pn.stages.tsv":
            "874a8db594ee6336b3a947a39c796cc6e256c2362a17b11573322f982b8bc6d5",
    }),
    "refresh": (["run", "refresh", "--seed", "1"], {
        "refresh.log":
            "e429d4d949d53bd1b4f69f301d28a0d94165d12f1acffb84f9e215e538680c95",
        "refresh.stages.tsv":
            "98fdda41a1e1e32ef6698283ac86b60c76759b754659716778bd615930a301e2",
    }),
    "pad-hadamard": (["run", "pad-hadamard", "--seed", "1"], {
        "pad-hadamard.log":
            "b90189904b59f5e1713b59ca0137129f23fbf2675e56b198e43c53d13384a7ca",
    }),
    "combine": (["run", "combine", "--seed", "1"], {
        "combine.log":
            "350185525d74572a91c089729c657b1fdce2a92541d986e7f282447ff06d1474",
    }),
    "qfac8": (["run", "qfac8", "--seed", "1"], {
        "qfac8.log":
            "ae601ff4546ba56413a6ad2d50db9d755ae73c260099783e3f64f930817f7e8a",
        "qfac8.angle.tsv":
            "56714c8a89592e8899d9d02cb67297533a86e6a026d04ad10da8c5da03f3d3db",
    }),
    "hadamard-cheat": (["attack", "hadamard-cheat", "--seed", "1",
                        "--trials", "40", "--set", "key_width=8"], {
        "hadamard-cheat.tsv":
            "76a04a48f8a6922584352a79a9f691f122da31a221de04979cec098426378e2f",
    }),
    "hadamard-cheat-default": (["attack", "hadamard-cheat", "--seed", "1",
                                "--trials", "40"], {
        "hadamard-cheat.tsv":
            "4a96aba830cf8fabfd2c667e2add6916d7e648b39ac79912231cb1b327653d38",
    }),
    "basis-cheat": (["attack", "basis-cheat", "--seed", "1",
                     "--trials", "40"], {
        "basis-cheat.tsv":
            "f70117e5fc8cd687a1aadd3d3dd1d47e5ee6b56c6702352025113d737d6a76f3",
    }),
    "free-lunch-unpermuted": (["attack", "free-lunch-unpermuted", "--seed",
                               "1", "--trials", "40", "--set", "kappa_out=4"], {
        "free-lunch-unpermuted.tsv":
            "b491e8afd953b0ad957cdb8069b2fa0d93e209a167eee0b5f75b722e4f3fcf28",
    }),
    "free-lunch-permuted": (["attack", "free-lunch-permuted", "--seed", "1",
                             "--trials", "40", "--set", "kappa_out=4"], {
        "free-lunch-permuted.tsv":
            "fc9c2a0cb768e1d93d36b22af146c4f0c974ed838ad124ae05522d722a1166f0",
    }),
    # 14 of 200 trials win: a guess the backward reader opens is checked
    "free-lunch-permuted-200": (["attack", "free-lunch-permuted", "--seed",
                                 "1", "--trials", "200", "--set",
                                 "kappa_out=4"], {
        "free-lunch-permuted.tsv":
            "c51d2f0fd97c0c5789b47605854a3cd39bbca38c65a6cc8865590fd8c58a2c4e",
    }),
    "free-lunch-unpermuted-200": (["attack", "free-lunch-unpermuted",
                                   "--seed", "1", "--trials", "200"], {
        "free-lunch-unpermuted.tsv":
            "0f132a91a000f2d55f71596f0d63d19d0cf5279717f0310aff824cd165cbfbcb",
    }),
    "ubqc": (["ubqc", "CIRCUIT", "--seed", "1", "--set", "shots=2000"], {
        "ubqc.log":
            "7e6d81649c647009b1003551aa9e510d0127fb9b21ce5616bae79c0e6513c597",
        "ubqc.hist.tsv":
            "e9ae148ef44ac31eef76a7ca9d37bbc678a0bfbc2348a981d1518b6195032ab7",
    }),
    # two full 4,096-shot tiles and a partial one
    "ubqc-tiles": (["ubqc", "CIRCUIT", "--seed", "1", "--set", "shots=8197"], {
        "ubqc.log":
            "c7238a8752047951253fc47aa5c21bbae11a7a168f201430ca230846f6eb1c22",
        "ubqc.hist.tsv":
            "def138f176c8b651101a2316e0bca78c8290a855ee82472b301bbbd4af7a3cd4",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(tmp_path, name):
    argv, want = GOLDEN[name]
    circ = tmp_path / "circ.txt"
    circ.write_text("1 3 6\n")  # a 3-gate circuit
    out = tmp_path / "out"
    argv = [str(circ) if a == "CIRCUIT" else a for a in argv]
    assert run(argv + ["--out", str(out)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in out.iterdir()}
    assert got == want


# sha256 of every output file of fixed runs that an honest server fails,
# each by a padded Hadamard test's all-zero tail at kappa_out = 1 or 2.
# Refactors of how a failure reaches the verdict must keep them.
REJECTED = {
    # rejected in round 1's second refresh
    "gdgprep-full-refresh": (["run", "gdgprep-full", "--seed", "3", "--set",
                              "kappa_out=1", "--set", "L=16"], {
        "gdgprep-full.log":
            "0994be8b8e4b143d8df6e9c6b81807171307898774a36c5b136f4ff4c11b7f86",
        "gdgprep-full.stages.tsv":
            "7040d16eb9d1b925b9ad24126c823ddd2ff625782ad0efdc999047bae3cd6ac9",
    }),
    # rejected in round 2's first 1pn step
    "gdgprep-full-1pn": (["run", "gdgprep-full", "--seed", "5", "--set",
                          "kappa_out=2", "--set", "L=16"], {
        "gdgprep-full.log":
            "93f69b810eec606b2640349420b6d2ceeb49c002868c24f20513b4aeab0ae1cc",
        "gdgprep-full.stages.tsv":
            "b5f1cd4d420d06d0ef2bdea7ac99dc02eb14f89d410f4521f92ad1167a8d3f78",
    }),
    "refresh": (["run", "refresh", "--seed", "1", "--set", "kappa_out=1"], {
        "refresh.log":
            "4abe901d8157b7c91050f23d935ef71eb5d80a432cef2ddd739cf7aa063d907b",
        "refresh.stages.tsv":
            "2f0f65bb3cabd6eeca06cc65e81cd6c674a97c1ace22db24ac7c5ee9e36b6f19",
    }),
    "gdgprep-1pn": (["run", "gdgprep-1pn", "--seed", "2", "--set",
                     "kappa_out=1"], {
        "gdgprep-1pn.log":
            "0e916ae5958cfcb83fafbdc78511b1a2e149519642fe3cdd47031833685e02b0",
        "gdgprep-1pn.stages.tsv":
            "493b18fccd6f6c805bfaa5c1dfcef880d61fda78ad1fe992ec566a9548bcd5d8",
    }),
    "ubqc": (["ubqc", "CIRCUIT", "--seed", "2", "--set", "kappa_out=1"], {
        "ubqc.log":
            "0dd4257d4595a2b0f06dc8f7af545fbdb0cd7ecd5ab9af837a61b0bfe64be45f",
    }),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_run_digests(tmp_path, name):
    argv, want = REJECTED[name]
    circ = tmp_path / "circ.txt"
    circ.write_text("1 3 6\n")  # a 3-gate circuit
    out = tmp_path / "out"
    argv = [str(circ) if a == "CIRCUIT" else a for a in argv]
    assert run(argv + ["--out", str(out)]) == 1
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in out.iterdir()}
    assert got == want


# Runs each argv list (JSON, from argv[1]) through the module's __main__
# entry point in this one interpreter; prints the exit codes as JSON.
GOLDEN_RUNNER = """
import json, runpy, sys
codes = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["bqcsim.cli", *argv]
    try:
        runpy.run_module("bqcsim.cli", run_name="__main__")
        codes.append(None)
    except SystemExit as e:
        codes.append(e.code)
print(json.dumps(codes))
"""


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_golden_digests_independent_of_hash_seed(tmp_path, hashseed):
    # string hashing is randomized per process; no output may depend on it.
    # One interpreter per hash seed runs every GOLDEN command, in dev mode
    # with warnings as errors. An unclosed file's ResourceWarning is raised
    # in a finalizer, which only prints it, so stderr must stay empty too.
    circ = tmp_path / "circ.txt"
    circ.write_text("1 3 6\n")
    env = child_env(PYTHONHASHSEED=hashseed)
    names = sorted(GOLDEN)
    argvs = [[str(circ) if a == "CIRCUIT" else a for a in GOLDEN[name][0]]
             + ["--out", str(tmp_path / name)] for name in names]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", GOLDEN_RUNNER,
         json.dumps(argvs)], env=env, check=True, capture_output=True,
        text=True, timeout=120)
    assert proc.stderr == ""
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert dict(zip(names, codes)) == dict.fromkeys(names, 0)
    for name in names:
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in (tmp_path / name).iterdir()}
        assert got == GOLDEN[name][1], name
