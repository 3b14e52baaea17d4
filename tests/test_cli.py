"""CLI: exit codes, output files, config handling, replay determinism."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bqcsim import cli
from bqcsim.cli import RUN_PROTOCOLS, ConfigError, main, parse_config, DEFAULTS


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
    cfg.write_text("# comment\nkappa_out = 10\npad_len=5\n")
    parsed = parse_config(cfg.read_text(), DEFAULTS)
    assert parsed["kappa_out"] == 10 and parsed["pad_len"] == 5
    code = run(["run", "pad-hadamard", "--seed", "4", "--out", str(tmp_path),
                "--config", str(cfg), "--set", "kappa_out=12"])
    assert code == 0


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("no_such_knob=1", DEFAULTS)
    with pytest.raises(ConfigError):
        parse_config("kappa_out=ten", DEFAULTS)


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


def test_mode_only_for_run_and_ubqc(tmp_path):
    circ = tmp_path / "circ.txt"
    circ.write_text("3\n")
    for command in (["run", "pad-hadamard"],
                    ["ubqc", str(circ), "--set", "shots=10", "--set", "L=2"]):
        assert run(command + ["--seed", "1", "--out", str(tmp_path),
                              "--mode", "paper"]) == 0
    assert run(["attack", "hadamard-cheat", "--seed", "1", "--trials", "5",
                "--out", str(tmp_path), "--mode", "paper"]) == 2
    assert not (tmp_path / "hadamard-cheat.tsv").exists()


@pytest.mark.parametrize("command,setting", [
    ("run gdgprep-full", "N=0"),
    ("run gdgprep-full", "L=6"),
    ("run gdgprep-full", "key_width=0"),
    ("run gdgprep-full", "kappa_out=0"),
    ("run gdgprep-full", "pad_base=0"),
    ("run basis-test", "pad_len=0"),
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


def test_attack_rejects_fewer_than_one_trial(tmp_path):
    for trials in ("0", "-3"):
        assert run(["attack", "hadamard-cheat", "--seed", "1", "--trials",
                    trials, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "hadamard-cheat.tsv").exists()


# sha256 of every output file of fixed runs. Refactors must keep them; a
# change that moves them changes transcripts for a given seed on purpose.
GOLDEN = {
    "gdgprep-full": (["run", "gdgprep-full", "--seed", "1"], {
        "gdgprep-full.log":
            "583036dab502063f507c8dedaae192abcfc1eac790f0e8867e57fb2d35fd28d0",
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
            "2a781fe9a77195f65f2311aa5fa79cbc29fbfd8e27e8ab8791b99eccb60830e3",
    }),
    "hadamard-cheat": (["attack", "hadamard-cheat", "--seed", "1",
                        "--trials", "40"], {
        "hadamard-cheat.tsv":
            "1257bdf2b034b626c963de5b9b421ec598978895fcfc8ad679ef81405fd03721",
    }),
    "basis-cheat": (["attack", "basis-cheat", "--seed", "1",
                     "--trials", "40"], {
        "basis-cheat.tsv":
            "f70117e5fc8cd687a1aadd3d3dd1d47e5ee6b56c6702352025113d737d6a76f3",
    }),
    "ubqc": (["ubqc", "CIRCUIT", "--seed", "1", "--set", "shots=2000"], {
        "ubqc.log":
            "83f71570716e012c280206c179414af6048b11e55a52799fc066609ce7d429ef",
        "ubqc.hist.tsv":
            "e9ae148ef44ac31eef76a7ca9d37bbc678a0bfbc2348a981d1518b6195032ab7",
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


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_golden_digests_independent_of_hash_seed(tmp_path, hashseed):
    # string hashing is randomized per process; no output may depend on it
    circ = tmp_path / "circ.txt"
    circ.write_text("1 3 6\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hashseed,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for name, (argv, want) in sorted(GOLDEN.items()):
        out = tmp_path / name
        argv = [str(circ) if a == "CIRCUIT" else a for a in argv]
        subprocess.run([sys.executable, "-m", "bqcsim.cli", *argv,
                        "--out", str(out)], env=env, check=True)
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in out.iterdir()}
        assert got == want, name
