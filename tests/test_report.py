"""Aggregation and CSV serialization."""

import csv
from dataclasses import replace

import pytest

from wsnsim.engine import RoundMetrics, RunResult, SummaryMetrics
from wsnsim.model import ProtocolKind, SimConfig
from wsnsim.report import (
    COMPARISON_COLUMNS,
    METRIC_NAMES,
    SERIES_COLUMNS,
    SUMMARY_COLUMNS,
    SWEEP_COLUMNS,
    aggregate,
    read_series,
    write_comparison,
    write_mean_curves,
    write_series,
    write_summary,
    write_sweep,
)

BASE = SimConfig(n=4, max_rounds=100)


def metrics_row(r, alive=4, packets=1, cum=None, residual=1.0):
    return RoundMetrics(
        round=r,
        alive_total=alive,
        alive_normal=alive,
        alive_advanced=0,
        alive_super=0,
        head_count=1,
        packets_to_bs_round=packets,
        packets_to_bs_cum=cum if cum is not None else r,
        residual_energy_j=residual,
    )


def make_run(protocol, seed, alive_curve, cum_curve, fnd=None, hnd=None, lnd=None):
    series = [
        metrics_row(i + 1, alive=a, cum=c)
        for i, (a, c) in enumerate(zip(alive_curve, cum_curve))
    ]
    summary = SummaryMetrics(
        fnd_round=fnd,
        hnd_round=hnd,
        lnd_round=lnd,
        total_packets=cum_curve[-1],
        rounds_simulated=len(series),
    )
    return RunResult(
        config=replace(BASE, protocol=protocol, seed=seed),
        series=series,
        summary=summary,
        d_avg=30.0,
        initial_energy_j=2.0,
        energy_dissipated_j=1.0,
        mean_member_to_head_m=10.0,
        mean_head_to_bs_m=20.0,
    )


def default_trio(seed=1):
    return [
        make_run(ProtocolKind.LEACH, seed, [4, 3], [1, 2], fnd=2),
        make_run(ProtocolKind.SEP, seed, [4, 4], [1, 3]),
        make_run(ProtocolKind.DBCP, seed, [4, 4], [2, 4]),
    ]


class TestSeriesSerialization:
    def test_round_trip_exact(self, tmp_path):
        # awkward floats on purpose: the file must reproduce them bit for bit
        series = [
            metrics_row(1, residual=0.1 + 0.2),
            metrics_row(2, residual=1.0 / 3.0),
            metrics_row(3, residual=75.0 - 1.52e-4),
        ]
        path = tmp_path / "series.csv"
        write_series(series, path)
        assert read_series(path) == series

    def test_empty_series_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_series([], path)
        assert path.read_text() == ",".join(SERIES_COLUMNS) + "\n"

    def test_three_rounds_numbered(self, tmp_path):
        path = tmp_path / "three.csv"
        write_series([metrics_row(r) for r in (1, 2, 3)], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["round"] for row in rows] == ["1", "2", "3"]

    def test_identical_writes_byte_identical(self, tmp_path):
        series = [metrics_row(1, residual=2.0 / 7.0)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series(series, a)
        write_series(series, b)
        assert a.read_bytes() == b.read_bytes()

    def test_read_rejects_reordered_header(self, tmp_path):
        # rows are read by position, so a permuted header must not load
        path = tmp_path / "swapped.csv"
        write_series([metrics_row(1, alive=4)], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        swapped = [[row[1], row[0], *row[2:]] for row in rows]
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(swapped)
        with pytest.raises(ValueError, match="swapped.csv"):
            read_series(path)

    @pytest.mark.parametrize(
        "spoil",
        [lambda row: row[:-1], lambda row: [*row, "0"], lambda row: [row[0], "four", *row[2:]]],
        ids=["truncated", "extra_field", "non_numeric"],
    )
    def test_read_rejects_malformed_row(self, tmp_path, spoil):
        path = tmp_path / "spoiled.csv"
        write_series([metrics_row(1), metrics_row(2)], path)
        with open(path, newline="") as fh:
            header, first, second = csv.reader(fh)
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, first, spoil(second)])
        with pytest.raises(ValueError, match=r"spoiled\.csv, line 3"):
            read_series(path)

    def test_write_error_names_path(self, tmp_path):
        target = tmp_path / "missing_dir" / "series.csv"
        with pytest.raises(OSError, match="series.csv"):
            write_series([metrics_row(1)], target)


class TestSummarySerialization:
    def test_columns_and_empty_cells(self, tmp_path):
        runs = [
            make_run(ProtocolKind.LEACH, 1, [4, 3], [1, 2], fnd=2),
            make_run(ProtocolKind.SEP, 1, [4, 4], [1, 3]),  # no events
        ]
        path = tmp_path / "summary.csv"
        write_summary(runs, path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == SUMMARY_COLUMNS
        assert rows[0] == ["leach", "1", "2", "", "", "2", "2"]
        assert rows[1] == ["sep", "1", "", "", "", "3", "2"]


class TestAggregate:
    def test_single_run_per_protocol(self):
        comparison = aggregate(default_trio())
        leach = comparison[ProtocolKind.LEACH]
        assert leach.n_seeds == 1
        assert leach.stats["fnd"].mean == 2.0
        assert leach.stats["fnd"].stddev == 0.0
        assert leach.stats["total_packets"].mean == 2.0

    def test_censoring_at_rounds_simulated(self):
        comparison = aggregate(default_trio())
        # sep never lost a node: events count as the run cap for the mean
        sep = comparison[ProtocolKind.SEP]
        assert sep.stats["fnd"].mean == 2.0
        assert sep.stats["lnd"].mean == 2.0

    def test_repeated_seed_has_zero_stddev(self):
        runs = [make_run(ProtocolKind.LEACH, 5, [4, 3], [1, 2], fnd=2) for _ in range(2)]
        comparison = aggregate(runs)
        leach = comparison[ProtocolKind.LEACH]
        assert leach.n_seeds == 2
        assert leach.stats["fnd"].stddev == 0.0

    def test_mean_and_stddev_over_seeds(self):
        runs = [
            make_run(ProtocolKind.LEACH, 1, [4, 3], [1, 2], fnd=2),
            make_run(ProtocolKind.LEACH, 2, [4, 3], [1, 4], fnd=1, hnd=1),
        ]
        leach = aggregate(runs)[ProtocolKind.LEACH]
        assert leach.stats["fnd"].mean == 1.5
        assert leach.stats["fnd"].stddev == 0.5  # population stddev
        assert leach.stats["total_packets"].mean == 3.0

    def test_padding_dead_network(self):
        runs = [
            make_run(ProtocolKind.LEACH, 1, [4, 2, 1], [1, 2, 3], fnd=1),
            make_run(ProtocolKind.LEACH, 2, [4], [2], fnd=1, hnd=1, lnd=1),
        ]
        leach = aggregate(runs)[ProtocolKind.LEACH]
        assert leach.alive_mean == [4.0, 1.0, 0.5]
        assert leach.packets_cum_mean == [1.5, 2.0, 2.5]

    def test_permutation_invariant(self):
        runs = default_trio(1) + default_trio(2)
        forward = aggregate(runs)
        backward = aggregate(list(reversed(runs)))
        for protocol in ProtocolKind:
            f = forward[protocol]
            b = backward[protocol]
            assert f.stats == b.stats
            assert f.alive_mean == b.alive_mean
            assert f.packets_cum_mean == b.packets_cum_mean

    def test_mismatched_config_rejected(self):
        runs = default_trio()
        odd = make_run(ProtocolKind.LEACH, 2, [4, 3], [1, 2])
        odd = replace(odd, config=replace(odd.config, n=5))
        with pytest.raises(ValueError, match="config"):
            aggregate(runs + [odd])

    def test_mismatched_seed_sets_rejected(self):
        runs = default_trio(1) + [make_run(ProtocolKind.LEACH, 2, [4, 3], [1, 2])]
        with pytest.raises(ValueError, match="seed"):
            aggregate(runs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_missing_protocol_lookup(self):
        comparison = aggregate(
            [make_run(ProtocolKind.LEACH, 1, [4], [1])]
        )
        with pytest.raises(KeyError):
            comparison[ProtocolKind.DBCP]


class TestComparisonSerialization:
    def test_schema_and_rows(self, tmp_path):
        comparison = aggregate(default_trio())
        path = tmp_path / "comparison.csv"
        write_comparison(comparison, path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == COMPARISON_COLUMNS
            rows = list(reader)
        assert len(rows) == 3 * len(METRIC_NAMES)
        leach_fnd = next(r for r in rows if r[0] == "leach" and r[1] == "fnd")
        assert float(leach_fnd[2]) == 2.0
        assert int(leach_fnd[4]) == 1

    def test_mean_curves_long_format(self, tmp_path):
        comparison = aggregate(default_trio())
        path = tmp_path / "curves.csv"
        write_mean_curves(comparison, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2  # three protocols, two rounds
        assert {row["protocol"] for row in rows} == {"leach", "sep", "dbcp"}
        assert rows[0]["round"] == "1"

    def test_sweep_schema(self, tmp_path):
        entries = [(0.1, aggregate(default_trio())), (0.2, aggregate(default_trio()))]
        path = tmp_path / "sweep.csv"
        write_sweep(entries, path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == SWEEP_COLUMNS
            rows = list(reader)
        assert len(rows) == 2 * 3 * len(METRIC_NAMES)
        assert {row[0] for row in rows} == {"0.1", "0.2"}
