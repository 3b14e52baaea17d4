"""Command-line front end.

Three subcommands:

* ``run <protocol>``   -- honest execution, transcript + stage report files
* ``attack <name>``    -- adversary experiments, stats records
* ``ubqc <circuit>``   -- end-to-end delegated computation, histogram

Configuration is flat ``key=value`` text (``--config``), and every key can
also be set directly with ``--set key=value``. Exit codes: 0 protocol pass,
1 protocol fail, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import asdict
from pathlib import Path

from . import gadget_prep as gp
from . import qfactory as qf
from .adversary import (HonestServer, MeasureThenRandomD,
                        RandomGuessBasisTest, _BadTrialSeeds, _drive,
                        estimate, free_lunch_rate)
from .oracle import RandomOracle
from .protocols import Transcript

EXPERIMENT = {"shots": 1000, "guesses": 64}  # experiment sizes
# every other key is a PipelineConfig field, with the field's default
DEFAULTS = {**asdict(gp.PipelineConfig()), **EXPERIMENT}
MAY_BE_ZERO = {"test_rounds", "J", "guesses"}  # every other key needs >= 1
ATTACK_UNREAD = ("L", "N", "J", "shots")  # keys no attack reads
_RUN_UNREAD = ("L", "N", "J", "shots", "guesses")
# keys never read, by run protocol, attack and ubqc: only gdgprep-full reads
# L, N and J, only refresh N and J, and only free-lunch-permuted guesses
UNREAD = {"pad-hadamard": _RUN_UNREAD + ("test_rounds",),
          "combine": _RUN_UNREAD + ("test_rounds",),
          **dict.fromkeys(("basis-test", "gdgprep-1pn", "gdgprep-logk",
                           "gdgprep-repeat", "qfac8"), _RUN_UNREAD),
          "refresh": ("L", "shots", "guesses", "test_rounds"),
          "gdgprep-full": ("shots", "guesses"), "ubqc": ("guesses",),
          "free-lunch-unpermuted": ATTACK_UNREAD + ("test_rounds", "guesses"),
          "free-lunch-permuted": ATTACK_UNREAD + ("test_rounds",),
          "hadamard-cheat": ATTACK_UNREAD + ("test_rounds", "guesses"),
          "basis-cheat": ATTACK_UNREAD + ("guesses",)}


class ConfigError(Exception):
    pass


def parse_config(text: str, base: dict) -> dict:
    cfg = dict(base)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            cfg[key] = int(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} needs an integer")
    return cfg


def read_input(name: str, kind: str) -> str:
    """The text of a ``kind`` input file, which must exist and be UTF-8."""
    path = Path(name)
    if not path.is_file():
        raise ConfigError(f"no such {kind} file: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{kind} file {path} is not UTF-8 text")


def load_config(args, unread) -> tuple[gp.PipelineConfig, dict]:
    """The command's pipeline config and its experiment sizes; setting a key
    of ``unread``, the command's entry in ``UNREAD``, is an error."""
    given = {}
    if args.config:
        given = parse_config(read_input(args.config, "config"), given)
    for item in args.set or []:
        given = parse_config(item, given)
    if bad := [key for key in unread if key in given]:
        raise ConfigError(f"{args.command} reads no {', '.join(bad)}")
    cfg = {**DEFAULTS, **given}
    for key, value in cfg.items():
        least = 0 if key in MAY_BE_ZERO else 1
        if value < least:
            raise ConfigError(f"{key}={value}: need at least {least}")
    sizes = {key: cfg.pop(key) for key in EXPERIMENT}
    return gp.PipelineConfig(**cfg), sizes


def check_shape(config: gp.PipelineConfig) -> None:
    """Refuse an L/N that is no power of two, before the pipeline runs."""
    try:
        config.rounds()
    except ValueError as e:
        raise ConfigError(f"L={config.L} N={config.N}: {e}")


def check_out(args) -> None:
    """Refuse an ``--out`` that mkdir could not make, before any run."""
    if args.out:
        out = Path(args.out)
        here = next(p for p in (out, *out.parents) if p.exists())
        if not here.is_dir():
            raise ConfigError(f"--out {out}: {here} is not a directory")


def write_out(args, name: str, content: str) -> None:
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(content)
    else:
        sys.stdout.write(content)


# -- run -------------------------------------------------------------------


def instance(seed: int):
    """The oracle, honest server and client rng of a run at ``seed``."""
    oracle = RandomOracle(seed)
    return (oracle, HonestServer(oracle, seed=seed + 1),
            random.Random(seed ^ 0xC0FFEE))


def _run_protocol(name: str, config: gp.PipelineConfig, seed: int):
    """Returns (Transcript, {name: content} of other files)."""
    oracle, server, rng = instance(seed)
    params = config.params_for_round(1)  # gdgprep-full runs every round
    w = params.key_width

    if name in ("pad-hadamard", "basis-test", "combine"):
        tr, _ = _drive(name.replace("-", "_"), oracle, server, params, rng)
        return tr, {}
    if name == "gdgprep-full":
        check_shape(config)
        _, tr, _ = gp.gdgprep_full(oracle, config, server, rng)
        return tr, {}
    tr = Transcript()
    if name == "gdgprep-1pn":
        h, *gs = gp.send_gadgets(server, rng, 4, w)
        tr.run(gp.gdgprep_1pn, oracle, h, gs, params, server, rng)
    elif name == "gdgprep-logk":
        h1, h2, seed_g = gp.send_gadgets(server, rng, 3, w)
        tr.run(gp.gdgprep_logk, oracle, [h1, h2], seed_g, params, server,
               rng)
    elif name == "gdgprep-repeat":
        blocks = []
        for m in range(2):
            h, s = gp.send_gadgets(server, rng, 2, w, prefix=f"b{m}g")
            blocks.append(([h], s))
        tr.run(gp.gdgprep_repeat, oracle, blocks, params, server, rng)
    elif name == "refresh":
        gs = gp.send_gadgets(server, rng, config.N, w)
        lams = gp.send_gadgets(server, rng, config.J, w, prefix="lam")
        tr.run(gp.security_refreshing, oracle, gs, lams, params, server, rng)
    elif name == "qfac8":
        g, = gp.send_gadgets(server, rng, 1, w)
        qb = tr.run(qf.qfac8, oracle, g, params, server, rng)
        # the client keeps its angle: no message carries it
        if qb is not None:
            return tr, {"qfac8.angle.tsv": f"theta_index\n{qb.angle}\n"}
    else:
        raise ConfigError(f"unknown protocol: {name}")
    return tr, {}


RUN_PROTOCOLS = ("pad-hadamard", "basis-test", "combine", "gdgprep-1pn",
                 "gdgprep-logk", "gdgprep-repeat", "refresh", "gdgprep-full",
                 "qfac8")


def cmd_run(args) -> int:
    config, _ = load_config(args, UNREAD[args.protocol])
    tr, files = _run_protocol(args.protocol, config, args.seed)
    write_out(args, f"{args.protocol}.log", tr.serialize())
    if tr.reports:
        lines = ["stage\tin\tout\thelpers\tverdict\tqueries"]
        lines += [r.line() for r in tr.reports]
        write_out(args, f"{args.protocol}.stages.tsv", "\n".join(lines) + "\n")
    for file_name, content in files.items():
        write_out(args, file_name, content)
    return 0 if tr.passed else 1


# -- attack ----------------------------------------------------------------


ATTACKS = ("free-lunch-unpermuted", "free-lunch-permuted",
           "hadamard-cheat", "basis-cheat")


def cmd_attack(args) -> int:
    config, sizes = load_config(args, UNREAD[args.attack])
    if args.trials < 1:
        raise ConfigError(f"trials={args.trials}: need at least 1")
    params = config.params_for_round(1)
    name = args.attack
    cheats = {"hadamard-cheat": (MeasureThenRandomD, "pad_hadamard"),
              "basis-cheat": (RandomGuessBasisTest, "basis_test")}
    try:  # the trial seeds are checked before any trial runs
        if name in cheats:
            st = estimate(*cheats[name], params, args.trials,
                          seed0=args.seed, experiment=name)
        else:
            st = free_lunch_rate(name.removeprefix("free-lunch-"), params,
                                 args.trials, seed0=args.seed,
                                 guesses=sizes["guesses"])
    except _BadTrialSeeds as e:
        raise ConfigError(e.args[0])
    header = "experiment\ttrials\tsuccesses\tp_hat\twilson95\n"
    write_out(args, f"{name}.tsv", header + st.line() + "\n")
    return 0


# -- ubqc ------------------------------------------------------------------


def parse_circuit(text: str) -> list[int]:
    octants = []
    for tok in text.replace(",", " ").split():
        try:
            k = int(tok)
        except ValueError:
            raise ConfigError(f"bad circuit token: {tok!r}")
        octants.append(k % 8)
    if not octants:
        raise ConfigError("empty circuit file")
    return octants


def cmd_ubqc(args) -> int:
    config, sizes = load_config(args, UNREAD["ubqc"])
    circuit = parse_circuit(read_input(args.circuit, "circuit"))
    shots = sizes["shots"]

    check_shape(config)
    if config.L < len(circuit) + 1:
        raise ConfigError(
            f"pipeline L={config.L} too small for {len(circuit)} gates")
    oracle, server, rng = instance(args.seed)
    ones, _, tr = qf.succ_ubqc(oracle, config, circuit, server, rng,
                               shots=shots)
    write_out(args, "ubqc.log", tr.serialize())
    if ones is None:
        return 1
    dense = qf.dense_output_prob(circuit)
    hist = ["outcome\tcount\tfraction",
            f"0\t{shots - ones}\t{(shots - ones) / shots:.6f}",
            f"1\t{ones}\t{ones / shots:.6f}",
            f"# dense p(1) = {dense:.6f}"]
    write_out(args, "ubqc.hist.tsv", "\n".join(hist) + "\n")
    return 0


# -- entry -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bqcsim",
        description="Desk-scale blind-quantum-computation protocol simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", help="output directory (default: stdout)")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config value")

    p = sub.add_parser("run", help="run a protocol honestly")
    p.add_argument("protocol", choices=RUN_PROTOCOLS)
    common(p)

    p = sub.add_parser("attack", help="run an adversary experiment")
    p.add_argument("attack", choices=ATTACKS)
    p.add_argument("--trials", type=int, default=200)
    common(p)

    p = sub.add_parser("ubqc", help="delegate a circuit end to end")
    p.add_argument("circuit", help="file of measurement octants (0-7)")
    common(p)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        # random.Random(-s) seeds like random.Random(s): refused, not mapped
        if args.seed < 0:
            raise ConfigError(f"--seed {args.seed}: need at least 0")
        check_out(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "attack":
            return cmd_attack(args)
        return cmd_ubqc(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
