"""Aggregation over seed batches and CSV serialization.

A series row is an engine.RoundMetrics and a summary row an
engine.SummaryMetrics after the run's protocol and seed; both are written as
they are, so their fields are the CSV headers.  No writer formats a number:
csv.writer writes a Python float as its repr, the shortest string that
round-trips float64 exactly, so reading a series file back yields the
in-memory values bit for bit; it writes None as an empty cell.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .engine import RoundMetrics, RunResult, SummaryMetrics
from .model import ProtocolKind

SERIES_COLUMNS = list(RoundMetrics._fields)

SUMMARY_COLUMNS = ["protocol", "seed", *SummaryMetrics._fields]

COMPARISON_COLUMNS = ["protocol", "metric", "mean", "stddev", "n_seeds"]

SWEEP_COLUMNS = ["param_value", "protocol", "metric", "mean", "stddev"]

METRIC_NAMES = ["fnd", "hnd", "lnd", "total_packets"]


@dataclass(frozen=True)
class MetricStats:
    mean: float
    stddev: float


@dataclass(frozen=True)
class ProtocolAggregate:
    protocol: ProtocolKind
    n_seeds: int
    stats: dict[str, MetricStats]  # keyed by METRIC_NAMES
    alive_mean: list[float]  # per round, padded to the longest run
    packets_cum_mean: list[float]


@dataclass(frozen=True)
class ComparisonResult:
    protocols: list[ProtocolAggregate]

    def for_protocol(self, protocol: ProtocolKind) -> ProtocolAggregate:
        for agg in self.protocols:
            if agg.protocol is protocol:
                return agg
        raise KeyError(protocol.value)


def _neutral_config(config) -> object:
    # identity of a batch modulo the two axes a comparison varies
    return dataclasses.replace(config, protocol=ProtocolKind.LEACH, seed=0)


def _event_or_cap(value: int | None, rounds_simulated: int) -> int:
    # Lifecycle events that never happened are censored at the round cap so
    # paired statistics stay defined; the per-run summary keeps the None.
    return value if value is not None else rounds_simulated


def aggregate(results: Sequence[RunResult]) -> ComparisonResult:
    """Mean/stddev of the lifecycle metrics plus mean per-round curves,
    grouped by protocol.

    Requires a paired design: every protocol present must cover exactly the
    same seed set, and all runs must agree on every config field other than
    protocol and seed.  Statistics use the population stddev (a single run
    per protocol reports stddev 0).  Runs ending early (network died) are
    padded to the longest run with zero alive nodes and a flat cumulative
    packet count; fnd/hnd/lnd that never occurred are censored at the run's
    final round for aggregation purposes.
    """
    if not results:
        raise ValueError("aggregate needs at least one run")
    base = _neutral_config(results[0].config)
    for run in results[1:]:
        if _neutral_config(run.config) != base:
            raise ValueError(
                "runs mix incompatible configs: "
                f"{run.config} differs from {results[0].config} "
                "beyond protocol/seed"
            )
    by_protocol: dict[ProtocolKind, list[RunResult]] = {}
    for run in results:
        by_protocol.setdefault(run.config.protocol, []).append(run)
    seed_sets = {
        proto: sorted(run.config.seed for run in runs)
        for proto, runs in by_protocol.items()
    }
    # seed lists are compared sorted, i.e. as multisets: repeating a seed is
    # legal (determinism makes it a stddev-0 no-op) as long as every protocol
    # repeats it the same way
    distinct = {tuple(s) for s in seed_sets.values()}
    if len(distinct) > 1:
        raise ValueError(f"protocols cover different seed sets: {seed_sets}")

    longest = max(len(run.series) for run in results)
    aggregates = []
    for proto, runs in by_protocol.items():
        runs = sorted(runs, key=lambda run: run.config.seed)
        fnd = [_event_or_cap(r.summary.fnd_round, r.summary.rounds_simulated) for r in runs]
        hnd = [_event_or_cap(r.summary.hnd_round, r.summary.rounds_simulated) for r in runs]
        lnd = [_event_or_cap(r.summary.lnd_round, r.summary.rounds_simulated) for r in runs]
        packets = [r.summary.total_packets for r in runs]
        stats = {
            name: MetricStats(mean=float(np.mean(vals)), stddev=float(np.std(vals)))
            for name, vals in zip(METRIC_NAMES, [fnd, hnd, lnd, packets])
        }
        alive = np.zeros((len(runs), longest))
        cum = np.zeros((len(runs), longest))
        for i, run in enumerate(runs):
            k = len(run.series)
            alive[i, :k] = [m.alive_total for m in run.series]
            cum[i, :k] = [m.packets_to_bs_cum for m in run.series]
            cum[i, k:] = run.series[-1].packets_to_bs_cum
        aggregates.append(
            ProtocolAggregate(
                protocol=proto,
                n_seeds=len(runs),
                stats=stats,
                alive_mean=alive.mean(axis=0).tolist(),
                packets_cum_mean=cum.mean(axis=0).tolist(),
            )
        )
    return ComparisonResult(protocols=aggregates)


def _write_rows(path, header: list[str], rows: Iterable[Iterable]) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_series(series: Sequence[RoundMetrics], path) -> None:
    _write_rows(path, SERIES_COLUMNS, series)


def read_series(path) -> list[RoundMetrics]:
    """Inverse of write_series; values round-trip exactly.  Rows are read by
    position, so a file whose header is not SERIES_COLUMNS is rejected."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header != SERIES_COLUMNS:
            raise ValueError(f"{path}: series header {header} is not {SERIES_COLUMNS}")
        # every field but the last (residual_energy_j) is an int
        return [RoundMetrics(*map(int, row[:-1]), float(row[-1])) for row in rows]


def write_summary(results: Sequence[RunResult], path) -> None:
    """One row per run; absent lifecycle events serialize as empty cells."""
    _write_rows(
        path,
        SUMMARY_COLUMNS,
        ([run.config.protocol.value, run.config.seed, *run.summary] for run in results),
    )


def _stats_rows(comparison: ComparisonResult) -> Iterator[tuple]:
    """(aggregate, metric name, MetricStats) for every protocol and metric."""
    for agg in comparison.protocols:
        for metric in METRIC_NAMES:
            yield agg, metric, agg.stats[metric]


def write_comparison(comparison: ComparisonResult, path) -> None:
    _write_rows(
        path,
        COMPARISON_COLUMNS,
        (
            [agg.protocol.value, metric, s.mean, s.stddev, agg.n_seeds]
            for agg, metric, s in _stats_rows(comparison)
        ),
    )


def write_mean_curves(comparison: ComparisonResult, path) -> None:
    """Long-format per-round mean alive/cumulative-packet curves."""
    _write_rows(
        path,
        ["protocol", "round", "alive_mean", "packets_cum_mean"],
        (
            [agg.protocol.value, i + 1, alive, cum]
            for agg in comparison.protocols
            for i, (alive, cum) in enumerate(zip(agg.alive_mean, agg.packets_cum_mean))
        ),
    )


def write_sweep(
    entries: Sequence[tuple[float, ComparisonResult]], path
) -> None:
    """Flatten (param value, comparison) pairs into the sweep CSV."""
    _write_rows(
        path,
        SWEEP_COLUMNS,
        (
            [value, agg.protocol.value, metric, s.mean, s.stddev]
            for value, comparison in entries
            for agg, metric, s in _stats_rows(comparison)
        ),
    )
