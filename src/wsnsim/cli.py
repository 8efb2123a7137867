"""Command line interface.

Subcommands:
    run      simulate one protocol / one seed, write the round series
    compare  run leach/sep/dbcp over a seed range with paired deployments
    sweep    repeat compare while varying one heterogeneity parameter

Configuration is a flat JSON object; every value can also be set (or
overridden) by a flag of the same name.  Its keys are the SimConfig fields,
and the flags are read off model.FIELD_TYPES; SimConfig fills in the
defaults and checks every value.
The fully resolved config is echoed into each output directory as
config.json and re-running from that file reproduces the outputs byte for
byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from enum import Enum
from pathlib import Path

from . import engine, report
from .model import FIELD_TYPES, ProtocolKind, SimConfig, tier_counts, weighted_probabilities
from .radio import crossover_distance


# only `run` takes these; compare and sweep pair every protocol over a seed range
PER_RUN_KEYS = ("protocol", "seed")

PROTOCOL_ORDER = [ProtocolKind.LEACH, ProtocolKind.SEP, ProtocolKind.DBCP]

SWEEPABLE = ["m", "m0", "a", "b"]


def parse_config(path: str | os.PathLike | None, overrides: dict | None = None) -> SimConfig:
    """Resolve defaults, optional config file, and flag overrides (in that
    precedence order, later wins) into a validated SimConfig."""
    return SimConfig(**_resolve(path, overrides))


def _resolve(path: str | os.PathLike | None, overrides: dict | None) -> dict:
    """parse_config's values before validation: those of the config file at
    `path` (read once), updated from `overrides`; SimConfig supplies the
    defaults for the keys left out."""
    values = {}
    if path is not None:
        with open(path) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError(f"{path} must hold a flat JSON object")
        _update_known(values, loaded, f"keys in {path}")
    if overrides:
        _update_known(values, overrides, "overrides")
    return values


def _update_known(values: dict, updates: dict, source: str) -> None:
    """values.update(updates), after rejecting any key that is not a config
    key; `source` names the updates in the error."""
    unknown = sorted(set(updates) - set(FIELD_TYPES))
    if unknown:
        raise ValueError(f"unknown config {source}: {', '.join(unknown)}")
    values.update(updates)


def config_to_dict(config: SimConfig) -> dict:
    """Flat, fully resolved mapping; parse_config(the JSON dump) rebuilds an
    identical SimConfig."""
    return {
        name: value.value if isinstance(value, Enum) else value
        for name, value in asdict(config).items()
    }


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
    part way leaves no config echo behind."""
    for name, echo in (("config.json", config_to_dict), ("derived.json", derived_values)):
        (out_dir / name).write_text(json.dumps(echo(config), indent=2) + "\n")


def run_batch(configs: list[SimConfig], workers: int | None = None) -> list[engine.RunResult]:
    """Run many configs, optionally across processes.  Results come back in
    input order; each run owns its rng, so scheduling cannot change outputs.
    By default a batch starts one worker per CPU it may use, so a batch
    pinned to one CPU runs in this process and never loads the pool.
    A pool that breaks, as when a worker is killed, raises ChildProcessError."""
    if workers is None:
        # the CPUs this process may run on; sched_getaffinity is missing on
        # some platforms (os.process_cpu_count is Python 3.13+)
        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:
            workers = os.cpu_count() or 1
    workers = min(workers, len(configs))
    if workers <= 1:
        return [engine.run(c) for c in configs]
    # imported here, not at the top: the pool pulls in multiprocessing, which
    # a one-worker batch never uses and which is about 15% of a cold start
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(engine.run, configs))
    except BrokenProcessPool as exc:
        raise ChildProcessError(str(exc)) from exc


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
    for key in FIELD_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return overrides


def _add_config_flags(parser: argparse.ArgumentParser, with_seed: bool) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat JSON config file")
    parser.add_argument("--out", metavar="DIR", required=True, help="output directory")
    g = parser.add_argument_group("config overrides")
    for name, (kind, _) in FIELD_TYPES.items():
        if name in PER_RUN_KEYS and not with_seed:
            continue
        flag = "--" + name.replace("_", "-")
        if issubclass(kind, Enum):
            g.add_argument(flag, dest=name, choices=[e.value for e in kind])
        else:
            g.add_argument(flag, dest=name, type=kind)


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

    p_swp = sub.add_parser("sweep", help="compare repeatedly while varying one parameter")
    _add_config_flags(p_swp, with_seed=False)
    p_swp.add_argument("--param", choices=SWEEPABLE, required=True)
    p_swp.add_argument("--values", type=_parse_values, required=True,
                       help="comma separated parameter values")

    for p in (p_cmp, p_swp):
        p.add_argument("--seeds", type=_parse_seed_range, default=list(range(1, 11)),
                       help="inclusive seed range a..b (default 1..10)")
        p.add_argument("--workers", type=_parse_workers, default=None,
                       help="parallel worker processes (default: CPUs this process may use)")
    return parser


def _prepare_out(path_text: str) -> Path:
    """The output directory, made if missing.  One that already holds an
    entry is refused: a batch never clears files another batch left, so
    writing into it could mix the two."""
    out = Path(path_text)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise ValueError(f"{out} is not empty; give --out a new or empty directory")
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


def _compare_configs(base: SimConfig, seeds: list[int]) -> list[SimConfig]:
    """Each protocol over `seeds` on `base`: one paired comparison's configs."""
    return [replace(base, protocol=proto, seed=seed) for proto in PROTOCOL_ORDER for seed in seeds]


def _write_runs(results: list[engine.RunResult], out_dir: Path) -> None:
    """Write each run's round series and the summary of all of them."""
    for result in results:
        name = f"series_{result.config.protocol.value}_seed{result.config.seed}.csv"
        report.write_series(result.series, out_dir / name)
    report.write_summary(results, out_dir / "summary.csv")


def _write_comparison(
    base: SimConfig, results: list[engine.RunResult], out_dir: Path
) -> dict[ProtocolKind, report.ProtocolAggregate]:
    """Write the full file set of the runs of base's _compare_configs into
    out_dir, the config echo last."""
    _write_runs(results, out_dir)
    comparison = report.aggregate(results)
    report.write_mean_curves(comparison, out_dir / "mean_curves.csv")
    report.write_comparison(comparison, out_dir / "comparison.csv")
    _echo_config(base, out_dir)
    return comparison


def cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config, _collect_overrides(args))
    out_dir = _prepare_out(args.out)
    tally = engine.DistanceTally()
    result = engine.run(config, tally)
    _write_runs([result], out_dir)
    _echo_config(config, out_dir)
    s = result.summary
    print(
        f"{config.protocol.value} seed={config.seed}: "
        f"fnd={s.fnd_round} hnd={s.hnd_round} lnd={s.lnd_round} "
        f"packets={s.total_packets} rounds={s.rounds_simulated}"
    )
    member_m, head_m = tally.means()
    print(f"distances: mean member->head {member_m:.2f} m, mean head->bs {head_m:.2f} m, "
          f"deployment mean {result.d_avg:.2f} m")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    base = parse_config(args.config, _collect_overrides(args))
    configs = _compare_configs(base, args.seeds)  # before the directory: a bad seed leaves none
    out_dir = _prepare_out(args.out)
    comparison = _write_comparison(base, run_batch(configs, args.workers), out_dir)
    _print_mean_table(comparison)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    # the config file is read once; every point and the top-level echo are
    # built from `resolved`.  The swept parameter is merged in before
    # validation, and every point's configs are built before any directory
    # is made, so each is checked as it will actually run; the base value it
    # replaces may be out of range against pinned flags (e.g. --param a
    # --values 0 --b 0)
    resolved = _resolve(args.config, _collect_overrides(args))
    points = [(value, SimConfig(**{**resolved, args.param: value})) for value in args.values]
    configs = [c for _, sub_base in points for c in _compare_configs(sub_base, args.seeds)]
    out_dir = _prepare_out(args.out)
    # every point's runs in one batch, so one pool serves the whole sweep and
    # no point directory is made before every run has returned
    results = run_batch(configs, args.workers)
    per_point = len(results) // len(points)
    entries = []
    for k, (value, sub_base) in enumerate(points):
        sub_dir = out_dir / f"{args.param}_{value:g}"
        sub_dir.mkdir(parents=True, exist_ok=True)
        point_results = results[k * per_point : (k + 1) * per_point]
        comparison = _write_comparison(sub_base, point_results, sub_dir)
        entries.append((value, comparison))
        print(f"--- {args.param} = {value:g} ---")
        _print_mean_table(comparison)
    report.write_sweep(entries, out_dir / "sweep.csv")
    try:
        _echo_config(SimConfig(**resolved), out_dir)
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
    except OSError as exc:  # run_batch's ChildProcessError, for a killed worker, is one
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
