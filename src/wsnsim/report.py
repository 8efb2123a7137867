"""Aggregation over seed batches and CSV serialization.

A series row is an engine.RoundMetrics and a summary row an
engine.SummaryMetrics after the run's protocol and seed; both are written as
they are, so their fields are the CSV headers.  No writer rounds a number:
csv.writer writes a Python float as its repr, the shortest string that
round-trips float64 exactly, so reading a series file back yields the
in-memory values bit for bit; it writes None as an empty cell.
write_series and write_mean_curves write the same bytes through one format
string per line.
"""

from __future__ import annotations

import csv
import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .engine import RoundMetrics, RunResult, Series, SummaryMetrics, column_chunks
from .model import ProtocolKind

SERIES_COLUMNS = list(RoundMetrics._fields)

# a series row as csv.writer writes it: ints by str, the float residual by
# repr, and no field that needs quoting
_SERIES_LINE = ",".join(["%s"] * (len(SERIES_COLUMNS) - 1) + ["%r"]) + "\n"

SUMMARY_COLUMNS = ["protocol", "seed", *SummaryMetrics._fields]

COMPARISON_COLUMNS = ["protocol", "metric", "mean", "stddev", "n_seeds"]

MEAN_CURVES_COLUMNS = ["protocol", "round", "alive_mean", "packets_cum_mean"]

SWEEP_COLUMNS = ["param_value", "protocol", "metric", "mean", "stddev"]

METRIC_NAMES = ["fnd", "hnd", "lnd", "total_packets"]


@dataclass(frozen=True)
class MetricStats:
    mean: float
    stddev: float


@dataclass(frozen=True)
class ProtocolAggregate:
    n_seeds: int
    stats: dict[str, MetricStats]  # keyed by METRIC_NAMES
    alive_mean: np.ndarray  # float64, per round, padded to the longest run
    packets_cum_mean: np.ndarray  # float64

    def __eq__(self, other) -> bool:
        # the generated == would take the truth value of an array
        if not isinstance(other, ProtocolAggregate):
            return NotImplemented
        return (
            self.n_seeds == other.n_seeds
            and self.stats == other.stats
            and np.array_equal(self.alive_mean, other.alive_mean)
            and np.array_equal(self.packets_cum_mean, other.packets_cum_mean)
        )


def _neutral_config(config) -> object:
    # identity of a batch modulo the two axes a comparison varies
    return dataclasses.replace(config, protocol=ProtocolKind.LEACH, seed=0)


def _event_or_cap(value: int | None, rounds_simulated: int) -> int:
    # Lifecycle events that never happened are censored at the round cap so
    # paired statistics stay defined; the per-run summary keeps the None.
    return value if value is not None else rounds_simulated


def aggregate(results: Sequence[RunResult]) -> dict[ProtocolKind, ProtocolAggregate]:
    """Mean/stddev of the lifecycle metrics plus mean per-round curves,
    keyed by protocol in the order the protocols first appear in `results`.

    Requires a paired design: every protocol present must cover exactly the
    same seed set, and all runs must agree on every config field other than
    protocol and seed.  Statistics use the population stddev (a single run
    per protocol reports stddev 0).  Runs ending early (network died) are
    padded to the longest run with zero alive nodes and a flat cumulative
    packet count; fnd/hnd/lnd that never occurred are censored at the run's
    final round for aggregation purposes.

    The curves are float64 arrays: running sums, one per protocol, divided
    by the run count once, so their memory does not grow with the run
    count.  Every term is an integer, so while the sums stay below 2**53
    every partial sum is exact in any order, and the curves equal the mean
    over a runs x rounds matrix bit for bit.
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
    aggregates = {}
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
        alive, cum = np.zeros(longest), np.zeros(longest)
        for run in runs:
            k = len(run.series)
            alive[:k] += run.series.columns["alive_total"]
            run_cum = run.series.columns["packets_to_bs_cum"]
            cum[:k] += run_cum
            cum[k:] += run_cum[-1]
        alive /= len(runs)
        cum /= len(runs)
        aggregates[proto] = ProtocolAggregate(
            n_seeds=len(runs), stats=stats, alive_mean=alive, packets_cum_mean=cum
        )
    return aggregates


@contextmanager
def _output(path) -> Iterator:
    """The text file at `path`, opened for writing; any OSError while it is
    open is raised again with the path in its message."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_rows(path, header: list[str], rows: Iterable[Iterable]) -> None:
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_series(series: Series, path) -> None:
    """The bytes _write_rows would write for the series' rows, read from its
    columns.  Lines go out one by one, and the columns become Python numbers
    one chunk of rows at a time: joining a 10000-row series first held
    1.5 MiB more at the peak, and converting whole columns 1.3 MiB more."""
    with _output(path) as fh:
        fh.write(",".join(SERIES_COLUMNS) + "\n")
        fh.writelines(map(_SERIES_LINE.__mod__, series.tuples()))


def write_summary(results: Sequence[RunResult], path) -> None:
    """One row per run; absent lifecycle events serialize as empty cells."""
    _write_rows(
        path,
        SUMMARY_COLUMNS,
        ([run.config.protocol.value, run.config.seed, *run.summary] for run in results),
    )


def _stats_rows(comparison: dict[ProtocolKind, ProtocolAggregate]) -> Iterator[tuple]:
    """(protocol, aggregate, metric name, MetricStats) for every protocol and
    metric."""
    for proto, agg in comparison.items():
        for metric in METRIC_NAMES:
            yield proto, agg, metric, agg.stats[metric]


def write_comparison(comparison: dict[ProtocolKind, ProtocolAggregate], path) -> None:
    _write_rows(
        path,
        COMPARISON_COLUMNS,
        (
            [proto.value, metric, s.mean, s.stddev, agg.n_seeds]
            for proto, agg, metric, s in _stats_rows(comparison)
        ),
    )


def write_mean_curves(comparison: dict[ProtocolKind, ProtocolAggregate], path) -> None:
    """Long-format per-round mean alive/cumulative-packet curves: the bytes
    _write_rows would write, through one format string per protocol (no
    protocol name needs quoting).  The curves may be any float sequences;
    they become Python floats one chunk of rows at a time."""
    with _output(path) as fh:
        fh.write(",".join(MEAN_CURVES_COLUMNS) + "\n")
        for proto, agg in comparison.items():
            line = proto.value + ",%d,%r,%r\n"
            alive = np.asarray(agg.alive_mean, np.float64)
            cum = np.asarray(agg.packets_cum_mean, np.float64)
            # the round numbers come from a range: converting them as a
            # third column raised a replication unit's peak RSS by 0.1-0.25 MiB
            first = 1
            for alive_chunk, cum_chunk in column_chunks([alive, cum]):
                rounds = range(first, first + len(alive_chunk))
                fh.writelines(map(line.__mod__, zip(rounds, alive_chunk, cum_chunk)))
                first = rounds.stop


def write_sweep(
    entries: Sequence[tuple[float, dict[ProtocolKind, ProtocolAggregate]]], path
) -> None:
    """Flatten (param value, comparison) pairs into the sweep CSV."""
    _write_rows(
        path,
        SWEEP_COLUMNS,
        (
            [value, proto.value, metric, s.mean, s.stddev]
            for value, comparison in entries
            for proto, _, metric, s in _stats_rows(comparison)
        ),
    )
