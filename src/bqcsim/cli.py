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
from pathlib import Path

from . import gadget_prep as gp
from . import qfactory as qf
from .adversary import (HonestServer, MeasureThenRandomD,
                        RandomGuessBasisTest, estimate, free_lunch_rate)
from .oracle import RandomOracle
from .protocols import ProtocolParams, basis_test_multi, combine, pad_hadamard

DEFAULTS = {
    # protocol parameters
    "pad_len": 8, "kappa_out": 16, "test_rounds": 2, "key_width": 6,
    # pipeline shape
    "L": 8, "N": 2, "pad_base": 4, "J": 1,
    # experiment sizes
    "shots": 1000, "guesses": 64,
}
INT_KEYS = set(DEFAULTS)
MAY_BE_ZERO = {"test_rounds", "J", "guesses"}  # every other key needs >= 1


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
        if key not in INT_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            cfg[key] = int(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} needs an integer")
    return cfg


def load_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"no such config file: {path}")
        cfg = parse_config(path.read_text(), cfg)
    for item in args.set or []:
        cfg = parse_config(item, cfg)
    for key, value in cfg.items():
        least = 0 if key in MAY_BE_ZERO else 1
        if value < least:
            raise ConfigError(f"{key}={value}: need at least {least}")
    return cfg


def make_params(cfg: dict) -> ProtocolParams:
    return ProtocolParams(pad_len=cfg["pad_len"], kappa_out=cfg["kappa_out"],
                          test_rounds=cfg["test_rounds"])


def make_pipeline(cfg: dict) -> gp.PipelineConfig:
    pipeline = gp.PipelineConfig(
        L=cfg["L"], N=cfg["N"], key_width=cfg["key_width"],
        kappa_out=cfg["kappa_out"], pad_base=cfg["pad_base"], J=cfg["J"],
        test_rounds=cfg["test_rounds"],
    )
    try:
        pipeline.rounds()
    except ValueError as e:
        raise ConfigError(f"L={pipeline.L} N={pipeline.N}: {e}")
    return pipeline


def write_out(args, name: str, content: str) -> None:
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(content)
    else:
        sys.stdout.write(content)


# -- run -------------------------------------------------------------------


def _run_protocol(name: str, cfg: dict, seed: int):
    """Returns (Transcript, stage reports)."""
    oracle = RandomOracle(seed)
    server = HonestServer(oracle, seed=seed + 1)
    rng = random.Random(seed ^ 0xC0FFEE)
    params = make_params(cfg)
    w = cfg["key_width"]

    if name == "pad-hadamard":
        (p, r), = gp.send_gadgets(server, rng, 1, w)
        return pad_hadamard(oracle, p, r, params, server, rng), []
    if name == "basis-test":
        (p, r), = gp.send_gadgets(server, rng, 1, w)
        return basis_test_multi(oracle, p, r, params.test_rounds, params,
                                server, rng), []
    if name == "combine":
        (pa, ra), (pb, rb) = gp.send_gadgets(server, rng, 2, w)
        _, tr, _ = combine(oracle, pa, pb, ra, rb, params, server, rng)
        return tr, []
    if name == "gdgprep-1pn":
        h, *gs = gp.send_gadgets(server, rng, 4, w)
        _, tr, reps = gp.gdgprep_1pn(oracle, h, gs, params, server, rng)
        return tr, reps
    if name == "gdgprep-logk":
        h1, h2, seed_g = gp.send_gadgets(server, rng, 3, w)
        _, tr, reps = gp.gdgprep_logk(oracle, [h1, h2], seed_g, params,
                                      server, rng)
        return tr, reps
    if name == "gdgprep-repeat":
        blocks = []
        for m in range(2):
            h, s = gp.send_gadgets(server, rng, 2, w, prefix=f"b{m}g")
            blocks.append(([h], s))
        _, tr, reps = gp.gdgprep_repeat(oracle, blocks, params, server, rng)
        return tr, reps
    if name == "refresh":
        gs = gp.send_gadgets(server, rng, cfg["N"], w)
        lams = gp.send_gadgets(server, rng, cfg["J"], w, prefix="lam")
        _, tr, reps = gp.security_refreshing(oracle, gs, lams, params,
                                             server, rng)
        return tr, reps
    if name == "gdgprep-full":
        pipeline = make_pipeline(cfg)
        _, tr, reps = gp.gdgprep_full(oracle, pipeline, server, rng)
        return tr, reps
    if name == "qfac8":
        g, = gp.send_gadgets(server, rng, 1, w)
        qb, tr = qf.qfac8(oracle, g, params, server, rng)
        if qb is not None:
            tr.send("client", "qf.theta_index", str(qb.angle))
        return tr, []
    raise ConfigError(f"unknown protocol: {name}")


RUN_PROTOCOLS = ("pad-hadamard", "basis-test", "combine", "gdgprep-1pn",
                 "gdgprep-logk", "gdgprep-repeat", "refresh", "gdgprep-full",
                 "qfac8")


def cmd_run(args) -> int:
    cfg = load_config(args)
    tr, reports = _run_protocol(args.protocol, cfg, args.seed)
    write_out(args, f"{args.protocol}.log", tr.serialize())
    if reports:
        lines = ["stage\tin\tout\thelpers\tverdict\tqueries"]
        lines += [r.line() for r in reports]
        write_out(args, f"{args.protocol}.stages.tsv", "\n".join(lines) + "\n")
    return 0 if tr.passed else 1


# -- attack ----------------------------------------------------------------


ATTACKS = ("free-lunch-unpermuted", "free-lunch-permuted",
           "hadamard-cheat", "basis-cheat")


def cmd_attack(args) -> int:
    cfg = load_config(args)
    if args.trials < 1:
        raise ConfigError(f"trials={args.trials}: need at least 1")
    params = make_params(cfg)
    name = args.attack
    if name == "free-lunch-unpermuted":
        st = free_lunch_rate("unpermuted", params, args.trials,
                             seed0=args.seed, guesses=cfg["guesses"])
    elif name == "free-lunch-permuted":
        st = free_lunch_rate("permuted", params, args.trials,
                             seed0=args.seed, guesses=cfg["guesses"])
    elif name == "hadamard-cheat":
        st = estimate(MeasureThenRandomD, "pad_hadamard", params,
                      args.trials, seed0=args.seed, experiment=name)
    elif name == "basis-cheat":
        st = estimate(RandomGuessBasisTest, "basis_test", params,
                      args.trials, seed0=args.seed, experiment=name)
    else:
        raise ConfigError(f"unknown attack: {name}")
    header = "experiment\ttrials\tsuccesses\tp_hat\twilson95\n"
    write_out(args, f"{name}.tsv", header + st.line() + "\n")
    return 0


# -- ubqc ------------------------------------------------------------------


def parse_circuit(path: Path) -> list[int]:
    octants = []
    for tok in path.read_text().replace(",", " ").split():
        try:
            k = int(tok)
        except ValueError:
            raise ConfigError(f"bad circuit token: {tok!r}")
        octants.append(k % 8)
    if not octants:
        raise ConfigError("empty circuit file")
    return octants


def cmd_ubqc(args) -> int:
    cfg = load_config(args)
    path = Path(args.circuit)
    if not path.is_file():
        raise ConfigError(f"no such circuit file: {path}")
    circuit = parse_circuit(path)
    shots = cfg["shots"]

    pipeline = make_pipeline(cfg)
    if pipeline.L < len(circuit) + 1:
        raise ConfigError(
            f"pipeline L={pipeline.L} too small for {len(circuit)} gates")
    oracle = RandomOracle(args.seed)
    server = HonestServer(oracle, seed=args.seed + 1)
    rng = random.Random(args.seed ^ 0xC0FFEE)
    ones, _, tr = qf.succ_ubqc(oracle, pipeline, circuit, server, rng,
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
