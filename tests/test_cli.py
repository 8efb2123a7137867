"""Command line behaviour: config resolution, file emission, exit codes,
and the reproducibility contract on echoed configs.

Runs here use tiny networks and short round caps; the directional experiments
live in the acceptance tests.
"""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from wsnsim import cli, engine
from wsnsim.cli import config_to_dict, derived_values, main, parse_config, run_batch
from wsnsim.model import ProtocolKind, SimConfig


def write_config(tmp_path, name="config.json", **values):
    path = tmp_path / name
    path.write_text(json.dumps(values))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParseConfig:
    def test_defaults(self):
        config = parse_config(None)
        assert config == SimConfig()
        assert (config.bs_x, config.bs_y) == (50.0, 50.0)
        assert config.protocol is ProtocolKind.DBCP
        assert derived_values(config)["effective_d0"] == pytest.approx(87.7058, abs=1e-3)

    def test_d0_override(self, tmp_path):
        path = write_config(tmp_path, d0_override=70)
        config = parse_config(path)
        assert derived_values(config)["effective_d0"] == 70.0

    def test_m0_above_m_names_offender(self, tmp_path):
        path = write_config(tmp_path, m=0.2, m0=0.3)
        with pytest.raises(ValueError, match="m0"):
            parse_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, radios=3)
        with pytest.raises(ValueError, match="radios"):
            parse_config(path)

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path, seed=3, n=50)
        config = parse_config(path, {"seed": 7})
        assert config.seed == 7
        assert config.n == 50

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            parse_config(None, {"bogus": 1})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            parse_config(path)

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            parse_config(path)

    def test_protocol_parsed_case_insensitively(self, tmp_path):
        path = write_config(tmp_path, protocol="SEP")
        assert parse_config(path).protocol is ProtocolKind.SEP

    def test_bad_protocol_lists_choices(self, tmp_path):
        path = write_config(tmp_path, protocol="aodv")
        with pytest.raises(ValueError, match="leach|sep|dbcp"):
            parse_config(path)

    def test_integer_keys_enforced(self, tmp_path):
        path = write_config(tmp_path, n=10.5)
        with pytest.raises(ValueError, match="n "):
            parse_config(path)

    @pytest.mark.parametrize("key", ["bs_x", "bs_y", "d0_override", "e0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, [1], "1", 10**400])
    def test_float_keys_need_finite_numbers(self, key, value):
        # bs_x, bs_y and d0_override also accept None, their default
        with pytest.raises(ValueError, match=f"{key} must be a finite number"):
            parse_config(None, {key: value})

    def test_echoed_dict_round_trips(self, tmp_path):
        config = parse_config(None, {"n": 33, "seed": 12, "protocol": "leach", "m": 0.3})
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(config_to_dict(config)))
        assert parse_config(path) == config

    def test_derived_values_include_tier_counts(self):
        derived = derived_values(parse_config(None))
        assert (derived["n_normal"], derived["n_advanced"], derived["n_super"]) == (80, 10, 10)
        assert derived["p_advanced"] == pytest.approx(0.2, abs=1e-9)


class TestRunCommand:
    def test_writes_full_file_set(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", "--out", str(out), "--n", "16", "--max-rounds", "40",
             "--seed", "5", "--protocol", "sep"]
        )
        assert code == 0
        assert (out / "config.json").exists()
        assert (out / "derived.json").exists()
        assert (out / "series_sep_seed5.csv").exists()
        assert (out / "summary.csv").exists()
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["n"] == 16
        assert echoed["protocol"] == "sep"
        rows = read_csv(out / "summary.csv")
        assert len(rows) == 1
        assert rows[0]["protocol"] == "sep"
        assert int(rows[0]["rounds_simulated"]) == 40

    def test_echoed_config_reproduces_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        code = main(
            ["run", "--out", str(first), "--n", "16", "--max-rounds", "40",
             "--seed", "5", "--protocol", "sep"]
        )
        assert code == 0
        second = tmp_path / "second"
        code = main(["run", "--config", str(first / "config.json"), "--out", str(second)])
        assert code == 0
        name = "series_sep_seed5.csv"
        assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (first / "summary.csv").read_bytes() == (second / "summary.csv").read_bytes()
        assert (first / "config.json").read_bytes() == (second / "config.json").read_bytes()

    def test_ill_typed_config_file_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, n=True)
        out = tmp_path / "x"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: n must be an integer, got True\n"
        assert not out.exists()

    def test_validation_error_exit_code(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path / "x"), "--m0", "0.5", "--m", "0.2"])
        assert code == 2
        assert "m0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, rule",
        [
            (["--packet-bits", "1" + "0" * 400], "packet_bits must be <= 1.79769e+308"),
            (["--p-opt", "5e-324"], "p_normal=4.94066e-324 has no finite epoch"),
            (
                ["--p-opt", "1e-300", "--a", "1e300", "--b", "1e300", "--m", "0.6",
                 "--m0", "0.5"],
                "p_normal=0 has no finite epoch",
            ),
        ],
        ids=["packet_bits_past_float", "p_opt_inverse_overflows", "p_normal_underflows"],
    )
    def test_unrunnable_config_exits_2(self, tmp_path, capsys, flags, rule):
        out = tmp_path / "x"
        code = main(["run", "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and rule in err and "Traceback" not in err
        assert not out.exists()  # no file or directory written

    def test_non_finite_flag_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["run", "--out", str(out), "--bs-x", "nan"])
        assert code == 2
        assert "error: bs_x" in capsys.readouterr().err
        assert not out.exists()

    def test_prints_summary_line(self, tmp_path, capsys):
        main(["run", "--out", str(tmp_path / "out"), "--n", "10", "--max-rounds", "20"])
        captured = capsys.readouterr().out
        assert "dbcp seed=1" in captured
        assert "packets=" in captured

    def test_prints_distances_line(self, tmp_path, capsys):
        main(["run", "--out", str(tmp_path / "out"), "--n", "10", "--max-rounds", "20"])
        tally = engine.DistanceTally()
        result = engine.run(parse_config(None, {"n": 10, "max_rounds": 20}), tally)
        member_m, head_m = tally.means()
        assert capsys.readouterr().out.splitlines()[1] == (
            f"distances: mean member->head {member_m:.2f} m, "
            f"mean head->bs {head_m:.2f} m, "
            f"deployment mean {result.d_avg:.2f} m"
        )


class TestCompareCommand:
    def test_single_seed_file_counts(self, tmp_path):
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--out", str(out), "--seeds", "1..1", "--n", "16",
             "--max-rounds", "40", "--workers", "1"]
        )
        assert code == 0
        series = sorted(p.name for p in out.glob("series_*.csv"))
        assert series == [
            "series_dbcp_seed1.csv",
            "series_leach_seed1.csv",
            "series_sep_seed1.csv",
        ]
        assert (out / "comparison.csv").exists()
        assert (out / "mean_curves.csv").exists()
        assert (out / "summary.csv").exists()
        rows = read_csv(out / "summary.csv")
        assert [row["protocol"] for row in rows] == ["leach", "sep", "dbcp"]

    def test_mean_table_printed(self, tmp_path, capsys):
        main(
            ["compare", "--out", str(tmp_path / "cmp"), "--seeds", "1..2", "--n", "12",
             "--max-rounds", "30", "--workers", "1"]
        )
        captured = capsys.readouterr().out
        header, *rows = captured.splitlines()
        assert header.split() == [
            "protocol", "fnd_mean", "hnd_mean", "lnd_mean", "total_packets_mean"
        ]
        assert [row.split()[0] for row in rows] == ["leach", "sep", "dbcp"]
        # every column ends where its header name ends
        ends = [m.end() for m in re.finditer(r"\S+", header)]
        for row in rows:
            assert [m.end() for m in re.finditer(r"\S+", row)][1:] == ends[1:]

    def test_unwritable_out_dir_fails_cleanly(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # occupies the path a directory would need
        out = blocker / "sub"
        code = main(
            ["compare", "--out", str(out), "--seeds", "1..1", "--n", "10",
             "--max-rounds", "10", "--workers", "1"]
        )
        assert code == 1
        assert not out.exists()

    def test_comparison_covers_all_metrics(self, tmp_path):
        out = tmp_path / "cmp"
        main(
            ["compare", "--out", str(out), "--seeds", "1..2", "--n", "12",
             "--max-rounds", "30", "--workers", "1"]
        )
        rows = read_csv(out / "comparison.csv")
        assert {row["metric"] for row in rows} == {"fnd", "hnd", "lnd", "total_packets"}
        assert all(int(row["n_seeds"]) == 2 for row in rows)


class TestSweepCommand:
    def test_homogeneous_point_collapses_sep_onto_leach(self, tmp_path):
        """m=0 (with m0=0) removes every tier distinction, so the sep rows of
        the sweep must replicate the leach rows and the per-seed series files
        must agree byte for byte."""
        out = tmp_path / "swp"
        code = main(
            ["sweep", "--param", "m", "--values", "0", "--m0", "0", "--out", str(out),
             "--n", "16", "--max-rounds", "40", "--seeds", "1..2", "--workers", "1"]
        )
        assert code == 0
        point = out / "m_0"
        for seed in (1, 2):
            leach = (point / f"series_leach_seed{seed}.csv").read_bytes()
            sep = (point / f"series_sep_seed{seed}.csv").read_bytes()
            assert leach == sep
        rows = read_csv(out / "sweep.csv")
        by = {(r["protocol"], r["metric"]): r["mean"] for r in rows}
        for metric in ("fnd", "hnd", "lnd", "total_packets"):
            assert by[("sep", metric)] == by[("leach", metric)]

    def test_value_grid_file_counts(self, tmp_path):
        out = tmp_path / "grid"
        code = main(
            ["sweep", "--param", "m", "--values", "0.1,0.2,0.3", "--out", str(out),
             "--n", "16", "--max-rounds", "30", "--seeds", "1..2", "--workers", "1"]
        )
        assert code == 0
        points = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert points == ["m_0.1", "m_0.2", "m_0.3"]
        for point in points:
            series = list((out / point).glob("series_*.csv"))
            assert len(series) == 6  # 3 protocols x 2 seeds
            assert (out / point / "comparison.csv").exists()
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 3 * 3 * 4  # values x protocols x metrics
        echoed = json.loads((out / "config.json").read_text())
        assert echoed == config_to_dict(SimConfig(n=16, max_rounds=30))

    def test_zero_multiplier_edge_runs_and_matches(self, tmp_path):
        """a=0 with b=0 leaves every tier at the base energy and collapses the
        tier probabilities onto p_opt, so sep and leach coincide while dbcp
        still applies its distance scaling."""
        results = {}
        for param, fixed_flag in (("a", "--b"), ("b", "--a")):
            out = tmp_path / f"swp_{param}"
            code = main(
                ["sweep", "--param", param, "--values", "0", fixed_flag, "0",
                 "--out", str(out), "--n", "16", "--max-rounds", "40",
                 "--seeds", "1..2", "--workers", "1"]
            )
            assert code == 0
            rows = read_csv(out / "sweep.csv")
            results[param] = {(r["protocol"], r["metric"]): r["mean"] for r in rows}
        # the a-sweep's base (default a, b=0) breaks b >= a and never runs;
        # the b-sweep's base (a=0, default b) is valid
        assert not (tmp_path / "swp_a" / "config.json").exists()
        assert (tmp_path / "swp_b" / "config.json").exists()
        for table in results.values():
            for metric in ("fnd", "hnd", "lnd", "total_packets"):
                assert table[("sep", metric)] == table[("leach", metric)]
        # both sweeps pinned the identical (a=0, b=0) config
        assert results["a"] == results["b"]

    @pytest.mark.parametrize("change", ["rewrite", "delete"])
    def test_config_file_read_once(self, tmp_path, monkeypatch, change):
        """Editing or deleting the config file after it is read, before the
        sweep's one batch runs, changes nothing: every point and the
        top-level echo come from one read."""
        config = write_config(tmp_path, n=12, max_rounds=20)
        calls = []

        def run_batch_then_change(configs, workers=None):
            if not calls:
                if change == "rewrite":
                    write_config(tmp_path, n=50, max_rounds=20)
                else:
                    config.unlink()
            calls.append(configs)
            return run_batch(configs, workers)

        monkeypatch.setattr(cli, "run_batch", run_batch_then_change)
        out = tmp_path / "swp"
        code = main(
            ["sweep", "--config", str(config), "--param", "m", "--values", "0.1,0.3",
             "--out", str(out), "--seeds", "1..1", "--workers", "1"]
        )
        assert code == 0
        assert len(calls) == 1
        assert {c.n for c in calls[0]} == {12}
        echoed = json.loads((out / "config.json").read_text())
        assert echoed == config_to_dict(SimConfig(n=12, max_rounds=20))
        for point, m in (("m_0.1", 0.1), ("m_0.3", 0.3)):
            assert json.loads((out / point / "config.json").read_text()) == {**echoed, "m": m}

    def test_one_batch_over_every_point_in_point_order(self, tmp_path, monkeypatch):
        calls = []

        def spy(configs, workers=None):
            calls.append(list(configs))
            return run_batch(configs, workers)

        monkeypatch.setattr(cli, "run_batch", spy)
        code = main(
            ["sweep", "--param", "m", "--values", "0.3,0.1,0.2", "--out", str(tmp_path / "swp"),
             "--n", "12", "--max-rounds", "20", "--seeds", "2..3", "--workers", "1"]
        )
        assert code == 0
        base = SimConfig(n=12, max_rounds=20)
        protocols = [ProtocolKind.LEACH, ProtocolKind.SEP, ProtocolKind.DBCP]
        assert calls == [
            [
                replace(base, m=m, protocol=protocol, seed=seed)
                for m in (0.3, 0.1, 0.2)
                for protocol in protocols
                for seed in (2, 3)
            ]
        ]

    def test_pooled_and_serial_sweeps_write_the_same_tree(self, tmp_path, capsys):
        """Two workers and one give the same files, byte for byte, and the
        same console text; the runs end at different rounds."""
        trees, printed = [], []
        for workers in ("2", "1"):
            out = tmp_path / f"workers{workers}"
            code = main(
                ["sweep", "--param", "m", "--values", "0.1,0.3", "--e0", "0.02",
                 "--n", "16", "--max-rounds", "400", "--seeds", "1..2",
                 "--workers", workers, "--out", str(out)]
            )
            assert code == 0
            trees.append(
                {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            )
            printed.append(capsys.readouterr().out)
        assert len(trees[0]) == 3 + 2 * 11  # sweep.csv and echoes; per point 6 series + 5
        assert trees[0] == trees[1]
        assert printed[0] == printed[1]

    def test_base_with_invalid_tier_rates_writes_no_echo(self, tmp_path):
        """The base here has a super-tier rate that reaches 1, so SimConfig
        rejects it; it never runs, so the top level gets neither config nor
        derived echo."""
        out = tmp_path / "swp"
        code = main(
            ["sweep", "--param", "b", "--values", "0", "--a", "0", "--m0", "0.05",
             "--p-opt", "0.5", "--b", "20", "--out", str(out), "--n", "12",
             "--max-rounds", "20", "--seeds", "1..1", "--workers", "1"]
        )
        assert code == 0
        assert (out / "b_0" / "derived.json").exists()
        assert not (out / "config.json").exists()
        assert not (out / "derived.json").exists()

    def test_unrunnable_later_point_writes_nothing(self, tmp_path, capsys):
        """b=20 pushes the super-tier rate past 1; the sweep fails before
        running b=2 or making any directory."""
        out = tmp_path / "swp"
        code = main(
            ["sweep", "--param", "b", "--values", "2,20", "--a", "2", "--p-opt", "0.2",
             "--n", "12", "--seeds", "1..1", "--max-rounds", "5", "--workers", "1",
             "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: p_super=") and "is not a probability" in err
        assert not out.exists()

    def test_out_of_range_value_rejected(self, tmp_path):
        code = main(
            ["sweep", "--param", "m", "--values", "1.5", "--out", str(tmp_path / "x"),
             "--n", "10", "--max-rounds", "10", "--seeds", "1..1", "--workers", "1"]
        )
        assert code == 2

    @pytest.mark.parametrize("values", ["0.1234567,0.12345678", "0.1,0.1", ","])
    def test_colliding_or_empty_values_rejected(self, tmp_path, capsys, values):
        """Each point directory is named after the value's :g form; values
        that share one would overwrite each other's files."""
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", "m", "--values", values, "--out", str(out)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["compare"], ["sweep", "--param", "m", "--values", "0.1,0.2"]],
    ids=["compare", "sweep"],
)
def test_out_of_range_seed_writes_nothing(tmp_path, capsys, command):
    out = tmp_path / "x"
    code = main(
        [*command, "--seeds=-1..0", "--n", "10", "--max-rounds", "3", "--workers", "1",
         "--out", str(out)]
    )
    assert code == 2
    assert "seed must fit in 64 unsigned bits, got -1" in capsys.readouterr().err
    assert not out.exists()


def digests(root):
    """sha256 of every file under `root`, keyed by its relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize(
    "first, second",
    [
        (["run", "--seed", "1"], ["run", "--seed", "2"]),
        (["compare", "--seeds", "1..2"], ["compare", "--seeds", "1..1"]),
        (
            ["sweep", "--param", "m", "--values", "0.1,0.2", "--seeds", "1..1"],
            ["sweep", "--param", "m", "--values", "0.3", "--seeds", "1..1"],
        ),
    ],
    ids=["run", "compare", "sweep"],
)
def test_non_empty_out_refused_before_any_run(tmp_path, capsys, monkeypatch, first, second):
    """A second batch into the same --out would leave the first batch's
    files next to its own (seed-2 series beside a one-seed summary), so it
    exits 2 before running and leaves every file as the first call wrote it."""
    out = tmp_path / "out"
    tiny = ["--n", "10", "--max-rounds", "5", "--out", str(out)]
    workers = [] if first[0] == "run" else ["--workers", "1"]
    assert main([*first, *tiny, *workers]) == 0
    before = digests(out)
    capsys.readouterr()

    def no_run(config):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "run", no_run)
    code = main([*second, *tiny, *workers])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {out} is not empty; give --out a new or empty directory\n"
    )
    assert digests(out) == before


def test_empty_existing_out_accepted(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--n", "10", "--max-rounds", "5", "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()


class TestArgumentParsing:
    def test_seed_range_requires_dots(self):
        with pytest.raises(SystemExit):
            main(["compare", "--out", "x", "--seeds", "7"])

    def test_empty_seed_range_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "--out", "x", "--seeds", "5..3"])

    def test_bad_values_list_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--param", "m", "--values", "a,b", "--out", "x"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", [
        ["compare"],
        ["sweep", "--param", "m", "--values", "0.1"],
    ])
    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_workers_must_be_a_positive_integer(self, tmp_path, capsys, command, workers):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--out", str(out), "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


def _exit_abruptly(config):
    os._exit(3)  # what a worker killed by the OOM killer looks like to the pool


def _out_of_memory(config):
    raise MemoryError


class TestWorkerFailures:
    def test_dead_pool_worker_is_a_clean_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "run", _exit_abruptly)
        out = tmp_path / "out"
        code = main(["compare", "--out", str(out), "--seeds", "1..2",
                     "--max-rounds", "5", "--workers", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        # the config echo comes last, so a failed batch leaves none behind
        assert not (out / "config.json").exists()
        assert not (out / "derived.json").exists()

    def test_dead_pool_worker_during_a_sweep_writes_no_point(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "run", _exit_abruptly)
        out = tmp_path / "swp"
        code = main(["sweep", "--param", "m", "--values", "0.1,0.2", "--out", str(out),
                     "--seeds", "1..2", "--max-rounds", "5", "--workers", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        # the batch fails before any point directory, and so any point's
        # config.json, is made
        assert list(out.iterdir()) == []

    def test_memory_error_is_a_clean_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "run", _out_of_memory)
        code = main(["compare", "--out", str(tmp_path / "out"), "--seeds", "1..1",
                     "--max-rounds", "5", "--workers", "1"])
        assert code == 1
        assert capsys.readouterr().err == "error: out of memory\n"


def test_one_worker_batch_leaves_the_pool_stack_unimported(tmp_path):
    """A CLI process that never forks imports no pool: concurrent.futures'
    process module pulls in multiprocessing, socket, subprocess and logging,
    about 15% of a cold start, so run_batch imports it only for a pool."""
    code = (
        "import sys\n"
        "from wsnsim import cli\n"
        "argv = ['compare', '--out', sys.argv[1], '--seeds', '1..2', '--n', '20',\n"
        "        '--max-rounds', '5', '--workers', '1']\n"
        "assert cli.main(argv) == 0\n"
        "loaded = [m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


def test_batch_on_one_cpu_runs_in_process_by_default(tmp_path):
    """With no worker count, a process that may use one CPU runs its batch
    itself: no fork and no pool import."""
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "from wsnsim.cli import run_batch\n"
        "from wsnsim.model import SimConfig\n"
        "results = run_batch([SimConfig(n=20, max_rounds=5, seed=s) for s in range(1, 5)])\n"
        "assert [r.config.seed for r in results] == [1, 2, 3, 4]\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


class _StubPool:
    """Stands in for ProcessPoolExecutor: records its worker count and maps
    in this process."""

    max_workers = []

    def __init__(self, max_workers):
        _StubPool.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "affinity, cpu_count, expected",
    [({0, 1}, 8, [2]), ({0, 1, 2}, 8, [3]), (None, 3, [3]), (None, None, [])],
    ids=["two-cpus", "three-cpus", "no-affinity", "no-cpu-count"],
)
def test_default_workers_follow_the_usable_cpus(affinity, cpu_count, expected, monkeypatch):
    """The default pool has one worker per CPU in the process's affinity set;
    where the platform has no affinity call, one per CPU of the machine, and
    none at all (a batch in process) if that count is unknown."""
    import concurrent.futures

    monkeypatch.setattr(_StubPool, "max_workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _StubPool)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    configs = [SimConfig(n=20, max_rounds=5, seed=s) for s in range(1, 6)]
    results = run_batch(configs)
    assert [r.config.seed for r in results] == [1, 2, 3, 4, 5]
    assert _StubPool.max_workers == expected


def test_module_entry_point(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "wsnsim", "run", "--out", str(out), "--n", "6",
         "--max-rounds", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.csv").exists()


CONFIG_FLAGS = [
    "--n", "--field-width", "--field-height", "--bs-x", "--bs-y", "--p-opt",
    "--packet-bits", "--e-elec", "--eps-fs", "--eps-mp", "--e-da", "--d0-override",
    "--m", "--m0", "--a", "--b", "--e0", "--max-rounds",
]


@pytest.mark.parametrize(
    "command, per_run", [("run", ["--protocol", "--seed"]), ("compare", []), ("sweep", [])],
    ids=["run", "compare", "sweep"],
)
def test_help_lists_exactly_the_schema_flags(command, per_run, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    section = capsys.readouterr().out.split("config overrides:\n")[1].split("\n\n")[0]
    flags = re.findall(r"^ {2}(--[\w-]+)", section, re.M)
    assert sorted(flags) == sorted(CONFIG_FLAGS + per_run)


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_help_gives_workers_default(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())  # however argparse wraps it
    workers = "--workers WORKERS parallel worker processes (default: CPUs this process may use)"
    assert workers in help_text
    assert "--seeds SEEDS inclusive seed range a..b (default 1..10)" in help_text
