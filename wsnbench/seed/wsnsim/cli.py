"""Command line interface.

Subcommands:
    run      simulate one protocol / one seed, write the round series
    compare  run leach/sep/dbcp over a seed range with paired deployments
    sweep    repeat compare while varying one heterogeneity parameter

Configuration is a flat JSON object; every value can also be set (or
overridden) by a flag of the same name.  The fully resolved config is echoed
into each output directory as config.json and re-running from that file
reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import election, engine, report
from .model import (
    HeterogeneityParams,
    ProtocolKind,
    RadioParams,
    SimConfig,
    tier_counts,
)
from .radio import crossover_distance

CONFIG_KEYS = [
    "n",
    "field_width",
    "field_height",
    "bs_x",
    "bs_y",
    "p_opt",
    "packet_bits",
    "e_elec",
    "eps_fs",
    "eps_mp",
    "e_da",
    "d0_override",
    "m",
    "m0",
    "a",
    "b",
    "e0",
    "protocol",
    "seed",
    "max_rounds",
]

DEFAULTS = {
    "n": 100,
    "field_width": 100.0,
    "field_height": 100.0,
    "bs_x": None,  # None -> field centre
    "bs_y": None,
    "p_opt": 0.1,
    "packet_bits": 4000,
    "e_elec": 5e-9,
    "eps_fs": 10e-12,
    "eps_mp": 0.0013e-12,
    "e_da": 5e-9,
    "d0_override": None,
    "m": 0.2,
    "m0": 0.1,
    "a": 2.0,
    "b": 3.0,
    "e0": 0.5,
    "protocol": "dbcp",
    "seed": 1,
    "max_rounds": 10000,
}

_INT_KEYS = {"n", "packet_bits", "seed", "max_rounds"}

PROTOCOL_ORDER = [ProtocolKind.LEACH, ProtocolKind.SEP, ProtocolKind.DBCP]

SWEEPABLE = ["m", "m0", "a", "b"]


def parse_config(path: str | os.PathLike | None, overrides: dict | None = None) -> SimConfig:
    """Resolve defaults, optional config file, and flag overrides (in that
    precedence order, later wins) into a validated SimConfig."""
    values = dict(DEFAULTS)
    if path is not None:
        with open(path) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError(f"{path} must hold a flat JSON object")
        unknown = sorted(set(loaded) - set(CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys in {path}: {', '.join(unknown)}")
        values.update(loaded)
    if overrides:
        unknown = sorted(set(overrides) - set(CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config overrides: {', '.join(unknown)}")
        values.update(overrides)
    return _build_config(values)


def _build_config(values: dict) -> SimConfig:
    for key in _INT_KEYS:
        v = values[key]
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{key} must be an integer, got {v!r}")
    protocol = values["protocol"]
    if isinstance(protocol, ProtocolKind):
        pass
    else:
        try:
            protocol = ProtocolKind(str(protocol).lower())
        except ValueError:
            names = "|".join(p.value for p in ProtocolKind)
            raise ValueError(f"protocol must be one of {names}, got {protocol!r}") from None
    for key in ("field_width", "field_height", "p_opt", "m", "m0", "a", "b", "e0",
                "e_elec", "eps_fs", "eps_mp", "e_da"):
        v = values[key]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ValueError(f"{key} must be a finite number, got {v!r}")
    radio = RadioParams(
        e_elec=float(values["e_elec"]),
        eps_fs=float(values["eps_fs"]),
        eps_mp=float(values["eps_mp"]),
        e_da=float(values["e_da"]),
        d0_override=None if values["d0_override"] is None else float(values["d0_override"]),
    )
    hetero = HeterogeneityParams(
        m=float(values["m"]),
        m0=float(values["m0"]),
        a=float(values["a"]),
        b=float(values["b"]),
        e0=float(values["e0"]),
    )
    return SimConfig(
        n=values["n"],
        field_width=float(values["field_width"]),
        field_height=float(values["field_height"]),
        bs_x=None if values["bs_x"] is None else float(values["bs_x"]),
        bs_y=None if values["bs_y"] is None else float(values["bs_y"]),
        p_opt=float(values["p_opt"]),
        packet_bits=values["packet_bits"],
        radio=radio,
        hetero=hetero,
        protocol=protocol,
        seed=values["seed"],
        max_rounds=values["max_rounds"],
    )


def config_to_dict(config: SimConfig) -> dict:
    """Flat, fully resolved mapping; parse_config(the JSON dump) rebuilds an
    identical SimConfig."""
    return {
        "n": config.n,
        "field_width": config.field_width,
        "field_height": config.field_height,
        "bs_x": config.bs_x,
        "bs_y": config.bs_y,
        "p_opt": config.p_opt,
        "packet_bits": config.packet_bits,
        "e_elec": config.radio.e_elec,
        "eps_fs": config.radio.eps_fs,
        "eps_mp": config.radio.eps_mp,
        "e_da": config.radio.e_da,
        "d0_override": config.radio.d0_override,
        "m": config.hetero.m,
        "m0": config.hetero.m0,
        "a": config.hetero.a,
        "b": config.hetero.b,
        "e0": config.hetero.e0,
        "protocol": config.protocol.value,
        "seed": config.seed,
        "max_rounds": config.max_rounds,
    }


def derived_values(config: SimConfig) -> dict:
    n_normal, n_advanced, n_super = tier_counts(config.n, config.hetero)
    probs = election.weighted_probabilities(config.p_opt, config.hetero)
    return {
        "effective_d0": crossover_distance(config.radio),
        "n_normal": n_normal,
        "n_advanced": n_advanced,
        "n_super": n_super,
        "p_normal": probs.p_normal,
        "p_advanced": probs.p_advanced,
        "p_super": probs.p_super,
    }


def _echo_config(config: SimConfig, out_dir: Path) -> None:
    (out_dir / "config.json").write_text(
        json.dumps(config_to_dict(config), indent=2) + "\n"
    )
    (out_dir / "derived.json").write_text(
        json.dumps(derived_values(config), indent=2) + "\n"
    )


def run_batch(configs: list[SimConfig], workers: int | None = None) -> list[engine.RunResult]:
    """Run many configs, optionally across processes.  Results come back in
    input order; each run owns its rng, so scheduling cannot change outputs."""
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, len(configs)))
    if workers == 1:
        return [engine.run(c) for c in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(engine.run, configs))


def _series_name(config: SimConfig) -> str:
    return f"series_{config.protocol.value}_seed{config.seed}.csv"


def _parse_seed_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"--seeds expects an inclusive range like 1..30, got {text!r}"
        )
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}") from None
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo_i, hi_i + 1))


def _parse_values(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --values list {text!r}") from None


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return overrides


def _add_config_flags(parser: argparse.ArgumentParser, with_seed: bool) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat JSON config file")
    parser.add_argument("--out", metavar="DIR", required=True, help="output directory")
    g = parser.add_argument_group("config overrides")
    g.add_argument("--n", type=int)
    g.add_argument("--field-width", dest="field_width", type=float)
    g.add_argument("--field-height", dest="field_height", type=float)
    g.add_argument("--bs-x", dest="bs_x", type=float)
    g.add_argument("--bs-y", dest="bs_y", type=float)
    g.add_argument("--p-opt", dest="p_opt", type=float)
    g.add_argument("--packet-bits", dest="packet_bits", type=int)
    g.add_argument("--e-elec", dest="e_elec", type=float)
    g.add_argument("--eps-fs", dest="eps_fs", type=float)
    g.add_argument("--eps-mp", dest="eps_mp", type=float)
    g.add_argument("--e-da", dest="e_da", type=float)
    g.add_argument("--d0-override", dest="d0_override", type=float)
    g.add_argument("--m", type=float)
    g.add_argument("--m0", type=float)
    g.add_argument("--a", type=float)
    g.add_argument("--b", type=float)
    g.add_argument("--e0", type=float)
    g.add_argument("--max-rounds", dest="max_rounds", type=int)
    if with_seed:
        g.add_argument("--seed", type=int)
        g.add_argument(
            "--protocol", choices=[p.value for p in ProtocolKind], help="protocol to run"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnsim",
        description="Cluster-head election simulator for heterogeneous sensor networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single protocol, single seed")
    _add_config_flags(p_run, with_seed=True)

    p_cmp = sub.add_parser("compare", help="all three protocols over a seed range")
    _add_config_flags(p_cmp, with_seed=False)
    p_cmp.add_argument("--seeds", type=_parse_seed_range, default=list(range(1, 11)),
                       help="inclusive seed range a..b (default 1..10)")
    p_cmp.add_argument("--workers", type=int, default=None,
                       help="parallel worker processes (default: cpu count)")

    p_swp = sub.add_parser("sweep", help="compare repeatedly while varying one parameter")
    _add_config_flags(p_swp, with_seed=False)
    p_swp.add_argument("--param", choices=SWEEPABLE, required=True)
    p_swp.add_argument("--values", type=_parse_values, required=True,
                       help="comma separated parameter values")
    p_swp.add_argument("--seeds", type=_parse_seed_range, default=list(range(1, 11)))
    p_swp.add_argument("--workers", type=int, default=None)
    return parser


def _prepare_out(path_text: str) -> Path:
    out = Path(path_text)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    probe.write_text("")
    probe.unlink()
    return out


def _print_mean_table(comparison: report.ComparisonResult) -> None:
    header = f"{'protocol':<10}" + "".join(
        f"{name + '_mean':>18}" for name in report.METRIC_NAMES
    )
    print(header)
    for proto in PROTOCOL_ORDER:
        try:
            agg = comparison.for_protocol(proto)
        except KeyError:
            continue
        cells = "".join(f"{agg.stats[m].mean:>18.2f}" for m in report.METRIC_NAMES)
        print(f"{proto.value:<10}{cells}")


def _run_compare_batch(
    base: SimConfig, seeds: list[int], out_dir: Path, workers: int | None
) -> report.ComparisonResult:
    """Paired comparison of all three protocols over `seeds`, writing the full
    file set into out_dir."""
    _echo_config(base, out_dir)
    configs = [
        replace(base, protocol=proto, seed=seed)
        for proto in PROTOCOL_ORDER
        for seed in seeds
    ]
    results = run_batch(configs, workers)
    for result in results:
        report.write_series(result.series, out_dir / _series_name(result.config))
    report.write_summary(results, out_dir / "summary.csv")
    comparison = report.aggregate(results)
    report.write_mean_curves(comparison, out_dir / "mean_curves.csv")
    report.write_comparison(comparison, out_dir / "comparison.csv")
    return comparison


def cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config, _collect_overrides(args))
    out_dir = _prepare_out(args.out)
    _echo_config(config, out_dir)
    result = engine.run(config)
    report.write_series(result.series, out_dir / _series_name(config))
    report.write_summary([result], out_dir / "summary.csv")
    s = result.summary
    print(
        f"{config.protocol.value} seed={config.seed}: "
        f"fnd={s.fnd_round} hnd={s.hnd_round} lnd={s.lnd_round} "
        f"packets={s.total_packets} rounds={s.rounds_simulated}"
    )
    print(
        f"distances: mean member->head {result.mean_member_to_head_m:.2f} m, "
        f"mean head->bs {result.mean_head_to_bs_m:.2f} m, "
        f"deployment mean {result.d_avg:.2f} m"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    base = parse_config(args.config, _collect_overrides(args))
    out_dir = _prepare_out(args.out)
    comparison = _run_compare_batch(base, args.seeds, out_dir, args.workers)
    _print_mean_table(comparison)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    overrides = _collect_overrides(args)
    # the swept parameter is merged in before validation so every point is
    # checked as it will actually run; the base value it replaces may be out
    # of range against pinned flags (e.g. --param a --values 0 --b 0)
    points = [
        (value, parse_config(args.config, {**overrides, args.param: value}))
        for value in args.values
    ]
    out_dir = _prepare_out(args.out)
    try:
        _echo_config(parse_config(args.config, overrides), out_dir)
    except ValueError:
        pass  # base never runs as-is; each point directory echoes its own
    entries = []
    for value, sub_base in points:
        sub_dir = out_dir / f"{args.param}_{value:g}"
        sub_dir.mkdir(parents=True, exist_ok=True)
        comparison = _run_compare_batch(sub_base, args.seeds, sub_dir, args.workers)
        entries.append((value, comparison))
        print(f"--- {args.param} = {value:g} ---")
        _print_mean_table(comparison)
    report.write_sweep(entries, out_dir / "sweep.csv")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "compare": cmd_compare, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
