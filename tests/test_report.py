"""Aggregation and CSV serialization."""

import csv
import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsnsim.engine import RoundMetrics, RunResult, Series, SummaryMetrics, run
from wsnsim.model import ProtocolKind, SimConfig
from wsnsim.report import (
    COMPARISON_COLUMNS,
    MEAN_CURVES_COLUMNS,
    METRIC_NAMES,
    SERIES_COLUMNS,
    SUMMARY_COLUMNS,
    SWEEP_COLUMNS,
    ProtocolAggregate,
    aggregate,
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
    series = Series.from_rows(
        metrics_row(i + 1, alive=a, cum=c)
        for i, (a, c) in enumerate(zip(alive_curve, cum_curve))
    )
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
    )


def matrix_means(runs, longest):
    """The mean curves of `runs` as a runs x longest matrix gives them, each
    run padded with zero alive nodes and its last cumulative count: the
    reference for aggregate's running sums."""
    alive = np.zeros((len(runs), longest))
    cum = np.zeros((len(runs), longest))
    for i, run in enumerate(runs):
        k = len(run.series)
        alive[i, :k] = run.series.columns["alive_total"]
        cum[i, :k] = run.series.columns["packets_to_bs_cum"]
        cum[i, k:] = run.series[-1].packets_to_bs_cum
    return alive.mean(axis=0), cum.mean(axis=0)


def traced_peak(fn, *args) -> int:
    """The bytes fn(*args) adds at its tracemalloc peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


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
        write_series(Series.from_rows(series), path)
        with open(path, newline="") as fh:
            _, *rows = csv.reader(fh)
        # every field but the last (residual_energy_j) is an int
        assert [RoundMetrics(*map(int, row[:-1]), float(row[-1])) for row in rows] == series

    def test_empty_series_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_series(Series.from_rows([]), path)
        assert path.read_text() == ",".join(SERIES_COLUMNS) + "\n"

    def test_three_rounds_numbered(self, tmp_path):
        path = tmp_path / "three.csv"
        write_series(Series.from_rows(metrics_row(r) for r in (1, 2, 3)), path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["round"] for row in rows] == ["1", "2", "3"]

    def test_identical_writes_byte_identical(self, tmp_path):
        series = Series.from_rows([metrics_row(1, residual=2.0 / 7.0)])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series(series, a)
        write_series(series, b)
        assert a.read_bytes() == b.read_bytes()

    @given(
        st.lists(
            st.builds(
                RoundMetrics,
                # the engine's counts come as Python and as numpy ints
                *[st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1).map(np.int64))] * 8,
                st.one_of(
                    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
                ),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_csv_writer(self, tmp_path_factory, series):
        """Zero, subnormal and huge residuals among them."""
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(SERIES_COLUMNS)
        writer.writerows(series)
        path = tmp_path_factory.mktemp("series") / "series.csv"
        write_series(Series.from_rows(series), path)
        assert path.read_bytes() == expected.getvalue().encode()

    @given(
        st.lists(
            st.builds(
                RoundMetrics,
                # counts as a run makes them, across each column type's bounds
                *[st.integers(0, 2**64 - 1)] * 8,
                st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
            ),
            max_size=20,
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_series_same_bytes_as_csv_writer(self, tmp_path_factory, rows, skip):
        """A Series, and a slice of one, is written from its columns as
        csv.writer writes its rows."""
        series = Series.from_rows(rows)
        for written, expected_rows in ((series, rows), (series[skip:], rows[skip:])):
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(SERIES_COLUMNS)
            writer.writerows(expected_rows)
            path = tmp_path_factory.mktemp("series") / "series.csv"
            write_series(written, path)
            assert path.read_bytes() == expected.getvalue().encode()

    def test_write_error_names_path(self, tmp_path):
        target = tmp_path / "missing_dir" / "series.csv"
        with pytest.raises(OSError, match="series.csv"):
            write_series(Series.from_rows([metrics_row(1)]), target)


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
        assert leach.alive_mean.tolist() == [4.0, 1.0, 0.5]
        assert leach.packets_cum_mean.tolist() == [1.5, 2.0, 2.5]
        # equal curves of more than one round compare as arrays
        assert aggregate(runs)[ProtocolKind.LEACH] == leach
        assert aggregate(runs[:1])[ProtocolKind.LEACH] != leach

    def test_permutation_invariant(self):
        runs = default_trio(1) + default_trio(2)
        forward = aggregate(runs)
        backward = aggregate(list(reversed(runs)))
        for protocol in ProtocolKind:
            f = forward[protocol]
            b = backward[protocol]
            assert f.stats == b.stats
            assert f.alive_mean.tolist() == b.alive_mean.tolist()
            assert f.packets_cum_mean.tolist() == b.packets_cum_mean.tolist()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_curves_equal_the_matrix_mean(self, data):
        """The running sums give the bits that mean(axis=0) of a runs x
        longest matrix gives, for runs of mixed and of equal lengths."""
        protocols = data.draw(
            st.lists(st.sampled_from(list(ProtocolKind)), unique=True, min_size=1, max_size=3)
        )
        seeds = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
        length = st.integers(1, 30)
        equal = data.draw(st.one_of(st.none(), length))  # None: mixed lengths
        runs = []
        for proto in protocols:
            for seed in seeds:
                k = equal or data.draw(length)
                # cumulative counts up to 2**40: six runs' sums stay exact
                curve = st.tuples(st.integers(0, 2**16), st.integers(0, 2**40))
                points = data.draw(st.lists(curve, min_size=k, max_size=k))
                runs.append(make_run(proto, seed, *map(list, zip(*points))))
        comparison = aggregate(runs)
        longest = max(len(run.series) for run in runs)
        for proto, agg in comparison.items():
            of_proto = [run for run in runs if run.config.protocol is proto]
            alive, cum = matrix_means(sorted(of_proto, key=lambda run: run.config.seed), longest)
            assert agg.alive_mean.dtype == agg.packets_cum_mean.dtype == np.float64
            assert agg.alive_mean.tobytes() == alive.tobytes()
            assert agg.packets_cum_mean.tobytes() == cum.tobytes()

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

    @given(
        st.lists(
            st.sampled_from(list(ProtocolKind)), unique=True, min_size=1, max_size=3
        ).flatmap(
            lambda protocols: st.tuples(
                st.just(protocols),
                st.lists(
                    st.lists(st.tuples(st.floats(), st.floats()), max_size=15),
                    min_size=len(protocols),
                    max_size=len(protocols),
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_mean_curves_same_bytes_as_csv_writer(self, tmp_path_factory, case):
        """Any floats, NaN, infinities and -0.0 among them."""
        protocols, curves = case
        comparison = {
            proto: ProtocolAggregate(
                n_seeds=1,
                stats={},
                alive_mean=[alive for alive, _ in curve],
                packets_cum_mean=[cum for _, cum in curve],
            )
            for proto, curve in zip(protocols, curves)
        }
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(MEAN_CURVES_COLUMNS)
        for proto, curve in zip(protocols, curves):
            writer.writerows([proto.value, i + 1, alive, cum] for i, (alive, cum) in enumerate(curve))
        path = tmp_path_factory.mktemp("curves") / "mean_curves.csv"
        write_mean_curves(comparison, path)
        assert path.read_bytes() == expected.getvalue().encode()

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


class TestMemoryBounds:
    def test_write_series_converts_a_chunk_at_a_time(self, tmp_path):
        """Writing a default 10000-round run's series adds under 0.3 MiB at
        the peak (whole columns as Python numbers added 1.5 MiB)."""
        series = run(SimConfig()).series
        assert len(series) == 10000
        assert traced_peak(write_series, series, tmp_path / "series.csv") < 0.3 * 2**20

    def test_aggregate_does_not_grow_with_the_run_count(self):
        """aggregate over 60 runs of 10000 rounds peaks within 0.2 MiB of
        its peak over 6 (a runs x rounds matrix per protocol took 1.4 MiB
        more for every 6 runs)."""
        rounds = np.arange(1, 10001, dtype=np.uint16)
        columns = {name: rounds for name in SERIES_COLUMNS[:-1]}
        series = Series({**columns, "residual_energy_j": np.linspace(50.0, 0.0, 10000)})

        def runs(seeds):
            return [
                RunResult(
                    config=replace(BASE, protocol=proto, seed=seed),
                    # lengths differ, so the shorter runs are padded
                    series=series[: 10000 - seed],
                    summary=SummaryMetrics(None, None, None, 10000 - seed, 10000 - seed),
                    d_avg=30.0,
                    initial_energy_j=2.0,
                    energy_dissipated_j=1.0,
                )
                for proto in ProtocolKind
                for seed in seeds
            ]

        few, many = runs(range(2)), runs(range(20))
        assert (len(few), len(many)) == (6, 60)
        assert traced_peak(aggregate, many) - traced_peak(aggregate, few) < 0.2 * 2**20
