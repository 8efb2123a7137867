"""Command line interface.

Subcommands:
    run      simulate one protocol / one seed, write the round series
    compare  run leach/sep/dbcp over a seed range with paired deployments
    sweep    repeat compare while varying one heterogeneity parameter

Configuration is a flat JSON object; every value can also be set (or
overridden) by a flag of the same name.  Its keys, defaults, type checks and
flags all come from SCHEMA, which is read off the SimConfig dataclass fields.
The fully resolved config is echoed into each output directory as
config.json and re-running from that file reproduces the outputs byte for
byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import get_args, get_type_hints

from . import engine, report
from .model import ProtocolKind, SimConfig, tier_counts
from .protocols import weighted_probabilities
from .radio import crossover_distance


@dataclass(frozen=True)
class ConfigKey:
    """One key of the flat config: the SimConfig field it sets, its value
    type, whether None is allowed, and its default."""

    name: str
    type: type
    optional: bool
    default: object


def _schema() -> list[ConfigKey]:
    """The flat config surface: one key per SimConfig field, in order."""
    hints = get_type_hints(SimConfig)
    keys = []
    for f in fields(SimConfig):
        value_type = hints[f.name]
        args = get_args(value_type)  # (float, NoneType) for `float | None`, () for a plain type
        optional = type(None) in args
        if optional:
            (value_type,) = [a for a in args if a is not type(None)]
        keys.append(ConfigKey(f.name, value_type, optional, f.default))
    return keys


SCHEMA = _schema()
CONFIG_KEYS = [key.name for key in SCHEMA]
DEFAULTS = {key.name: key.default for key in SCHEMA}

# only `run` takes these; compare and sweep pair every protocol over a seed range
PER_RUN_KEYS = ("protocol", "seed")

PROTOCOL_ORDER = [ProtocolKind.LEACH, ProtocolKind.SEP, ProtocolKind.DBCP]

SWEEPABLE = ["m", "m0", "a", "b"]


def parse_config(path: str | os.PathLike | None, overrides: dict | None = None) -> SimConfig:
    """Resolve defaults, optional config file, and flag overrides (in that
    precedence order, later wins) into a validated SimConfig."""
    return _build_config(_resolve(path, overrides))


def _resolve(path: str | os.PathLike | None, overrides: dict | None) -> dict:
    """parse_config's values before validation: the defaults, updated from
    the config file at `path` (read once), then from `overrides`."""
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
    return values


def _coerce(key: ConfigKey, value: object) -> object:
    """`value` checked against the key's type and converted to it."""
    if value is None and key.optional:
        return None
    if key.type is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ValueError(f"{key.name} must be an integer, got {value!r}")
    if issubclass(key.type, Enum):
        if isinstance(value, key.type):
            return value
        try:
            return key.type(str(value).lower())
        except ValueError:
            names = "|".join(e.value for e in key.type)
            raise ValueError(f"{key.name} must be one of {names}, got {value!r}") from None
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max  # false for NaN, inf and ints past float range
    ):
        return float(value)
    raise ValueError(f"{key.name} must be a finite number, got {value!r}")


def _build_config(values: dict) -> SimConfig:
    return SimConfig(**{key.name: _coerce(key, values[key.name]) for key in SCHEMA})


def config_to_dict(config: SimConfig) -> dict:
    """Flat, fully resolved mapping; parse_config(the JSON dump) rebuilds an
    identical SimConfig."""
    out = {}
    for key in SCHEMA:
        value = getattr(config, key.name)
        out[key.name] = value.value if isinstance(value, Enum) else value
    return out


def derived_values(config: SimConfig) -> dict:
    n_normal, n_advanced, n_super = tier_counts(config)
    return {
        "effective_d0": crossover_distance(config),
        "n_normal": n_normal,
        "n_advanced": n_advanced,
        "n_super": n_super,
        **weighted_probabilities(config)._asdict(),
    }


def _echo_config(config: SimConfig, out_dir: Path) -> None:
    """Write config.json and derived.json.  Every command calls this after
    all other outputs of the directory are written, so a run that fails
    part way leaves no config echo behind.  Both are computed before either
    is written, so a config whose derived values raise leaves neither."""
    echoes = {"config.json": config_to_dict(config), "derived.json": derived_values(config)}
    for name, values in echoes.items():
        (out_dir / name).write_text(json.dumps(values, indent=2) + "\n")


def run_batch(configs: list[SimConfig], workers: int | None = None) -> list[engine.RunResult]:
    """Run many configs, optionally across processes.  Results come back in
    input order; each run owns its rng, so scheduling cannot change outputs."""
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(configs))
    if workers <= 1:
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


def _parse_workers(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--workers expects an integer, got {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"--workers must be at least 1, got {workers}")
    return workers


def _parse_values(text: str) -> list[float]:
    """Sweep values.  Each point directory is named after its value's `:g`
    form, so an empty list, or two values sharing that form, is rejected."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --values list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    labels = [f"{v:g}" for v in values]
    clashing = sorted({label for label in labels if labels.count(label) > 1})
    if clashing:
        raise argparse.ArgumentTypeError(
            f"values collide in the point directory name: {', '.join(clashing)}"
        )
    return values


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
    for key in SCHEMA:
        if key.name in PER_RUN_KEYS and not with_seed:
            continue
        flag = "--" + key.name.replace("_", "-")
        if issubclass(key.type, Enum):
            g.add_argument(flag, dest=key.name, choices=[e.value for e in key.type])
        else:
            g.add_argument(flag, dest=key.name, type=key.type)


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
    p_cmp.add_argument("--workers", type=_parse_workers, default=None,
                       help="parallel worker processes (default: cpu count)")

    p_swp = sub.add_parser("sweep", help="compare repeatedly while varying one parameter")
    _add_config_flags(p_swp, with_seed=False)
    p_swp.add_argument("--param", choices=SWEEPABLE, required=True)
    p_swp.add_argument("--values", type=_parse_values, required=True,
                       help="comma separated parameter values")
    p_swp.add_argument("--seeds", type=_parse_seed_range, default=list(range(1, 11)))
    p_swp.add_argument("--workers", type=_parse_workers, default=None)
    return parser


def _prepare_out(path_text: str) -> Path:
    out = Path(path_text)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    probe.write_text("")
    probe.unlink()
    return out


def _print_mean_table(comparison: dict[ProtocolKind, report.ProtocolAggregate]) -> None:
    # one space before each right-aligned column, so a name as wide as the
    # column (total_packets_mean) stays apart from its neighbour
    header = f"{'protocol':<10}" + "".join(
        f" {name + '_mean':>18}" for name in report.METRIC_NAMES
    )
    print(header)
    for proto, agg in comparison.items():
        cells = "".join(f" {agg.stats[m].mean:>18.2f}" for m in report.METRIC_NAMES)
        print(f"{proto.value:<10}{cells}")


def _run_compare_batch(
    base: SimConfig, seeds: list[int], out_dir: Path, workers: int | None
) -> dict[ProtocolKind, report.ProtocolAggregate]:
    """Paired comparison of all three protocols over `seeds`, writing the full
    file set into out_dir."""
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
    _echo_config(base, out_dir)
    return comparison


def cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config, _collect_overrides(args))
    out_dir = _prepare_out(args.out)
    result = engine.run(config)
    report.write_series(result.series, out_dir / _series_name(config))
    report.write_summary([result], out_dir / "summary.csv")
    _echo_config(config, out_dir)
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
    # the config file is read once; every point and the top-level echo are
    # built from `resolved`.  The swept parameter is merged in before
    # validation so every point is checked as it will actually run; the base
    # value it replaces may be out of range against pinned flags (e.g.
    # --param a --values 0 --b 0)
    resolved = _resolve(args.config, _collect_overrides(args))
    points = [(value, _build_config({**resolved, args.param: value})) for value in args.values]
    out_dir = _prepare_out(args.out)
    entries = []
    for value, sub_base in points:
        sub_dir = out_dir / f"{args.param}_{value:g}"
        sub_dir.mkdir(parents=True, exist_ok=True)
        comparison = _run_compare_batch(sub_base, args.seeds, sub_dir, args.workers)
        entries.append((value, comparison))
        print(f"--- {args.param} = {value:g} ---")
        _print_mean_table(comparison)
    report.write_sweep(entries, out_dir / "sweep.csv")
    try:
        _echo_config(_build_config(resolved), out_dir)
    except ValueError:
        pass  # base never runs as-is; each point directory echoes its own
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "compare": cmd_compare, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, BrokenProcessPool) as exc:  # the pool breaks when a worker is killed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
