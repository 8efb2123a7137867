#!/usr/bin/env python3
"""wsnsim benchmark.

Usage (from the repository root):

    python3 wsnbench/run.py --workload replication --seed 1 --seconds 30 --trace 0
    python3 wsnbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 wsnbench/run.py --smoke      # tiny sizes: metric names, units, digest gate
    python3 wsnbench/run.py --pin        # re-take pins.json from the current sources

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
replication and large_n run `wsnsim compare --workers 1` through `cli.main`
in one process (unit_runner.py, a long-lived child; this process when
traced); sweep_cli runs `python -m wsnsim sweep` as a child process with the
CLI's default worker count.  Each is a closed loop: the units of a
small pinned pool run back to back, the whole pool in the order `--seed`
picks, again and again until the next would end after `--seconds`.

With `--trace 0` each unit runs on the program and on the seed copy of it
(seed/wsnsim, see workloads.py) side by side, timed in CPU seconds
(workloads.Runner), and fresh-interpreter setup probes of both run side by
side between the units (SetupProbe).  The last stdout line reports
the end-to-end metrics as times at the reference host's speed: the median
over the pairs of program time / seed copy time, times what the seed copy
takes there (Spec.ref_wall_s and Spec.ref_setup_s).  The raw times are
printed and kept in results.jsonl.  With
`--trace 1` each unit runs untraced and then again with span wrappers
installed (spans.py), and the line reports the per-layer metrics plus the
tracing overhead.  Every file a
unit writes, on the seed copy too, must match the SHA-256 pinned in
pins.json, traced and untraced
outputs must be byte-identical, the traced counters must equal the values
derived from the written series and repeat exactly across runs, and every
span must have the children its caller makes; any failure makes `correct`
false.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import multiprocessing
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import spans
import workloads
from workloads import ROOT, SPECS, SRC

WORK = ROOT / ".wsnbench"
PINS = workloads.BENCH_DIR / "pins.json"
# setup probe pairs: one before each step, and at least eight in a run
SETUP_PROBES = (1, 8)
WORKLOAD_NAMES = list(SPECS["full"])


class Package(NamedTuple):
    cli: ModuleType
    engine: ModuleType
    report: ModuleType


def import_package():
    """Import wsnsim from this checkout's src/ and nowhere else."""
    if not (SRC / "wsnsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no wsnsim package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import wsnsim
    from wsnsim import cli, engine, report

    if Path(wsnsim.__file__).resolve().parent != (SRC / "wsnsim").resolve():
        raise SystemExit(f"error: imported wsnsim from {wsnsim.__file__}, not {SRC}")
    return Package(cli, engine, report)


# --------------------------------------------------------------- outputs


def digest_tree(directory: Path) -> dict[str, str]:
    return {
        p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def digest_problems(expected: dict[str, str] | None, actual: dict[str, str]) -> list[str]:
    if expected is None:
        return ["no pinned digests for this unit"]
    problems = [f"missing {k}" for k in sorted(set(expected) - set(actual))]
    problems += [f"unexpected {k}" for k in sorted(set(actual) - set(expected))]
    problems += [
        f"digest mismatch {k}" for k in sorted(set(expected) & set(actual))
        if expected[k] != actual[k]
    ]
    return problems


def output_stats(unit_dir: Path) -> dict[str, int]:
    """Counts implied by the written files: node-rounds simulated, heads,
    zero-head rounds, member x head pairs, deaths and CSV bytes."""
    s = dict.fromkeys(
        ("node_rounds", "heads", "zero_head_rounds", "pairs", "deaths", "bytes_written"), 0
    )
    for path in sorted(unit_dir.rglob("*.csv")):
        s["bytes_written"] += path.stat().st_size
        if not path.name.startswith("series_"):
            continue
        alive = json.loads((path.parent / "config.json").read_text())["n"]
        n = alive
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                h = int(row["head_count"])
                s["node_rounds"] += alive  # alive at the start of the round
                s["heads"] += h
                s["zero_head_rounds"] += h == 0
                s["pairs"] += (alive - h) * h
                alive = int(row["alive_total"])
        s["deaths"] += n - alive
    return s


def expected_counters(stats: dict[str, int]) -> dict[str, int]:
    return {
        "draws": stats["node_rounds"],
        "cost_entries": stats["node_rounds"],
        "heads": stats["heads"],
        "zero_head_rounds": stats["zero_head_rounds"],
        "pairs": stats["pairs"],
        "deaths": stats["deaths"],
        "bytes_written": stats["bytes_written"],
    }


# ----------------------------------------------------------------- units


def attempt(rec: dict, fn, *args):
    """fn(*args); an exception is kept as the record's error, and the run goes on."""
    try:
        return fn(*args)
    except Exception:
        rec["error"] = traceback.format_exc(limit=3)
        print(f"unit {rec['unit']} failed:\n{rec['error']}", file=sys.stderr)
        return None


def new_record(unit, out_dir: Path) -> dict:
    return {"unit": unit, "dir": out_dir, "error": None, "rss_mb": None, "time_s": None}


def run_unit(pkg, spec, unit, out_dir: Path, layer_stats=None) -> dict:
    """One unit of the program, in this process or a CLI child, traced if
    `layer_stats` is given.  Returns its record: wall seconds, peak RSS MiB of
    a CLI child (or None), the error if it failed, and a traced unit's
    counters."""
    rec = new_record(unit, out_dir)
    log = out_dir.with_suffix(".log")
    recorder = restore = spans_dir = None
    if layer_stats is not None:
        if spec.command == "compare":
            recorder = spans.Recorder()
            restore = spans.instrument(recorder, *pkg)
        else:  # the traced CLI child writes its spans here
            spans_dir = out_dir.with_suffix(".spans")
            spans_dir.mkdir()
    try:
        if spec.command == "compare":
            main = pkg.cli.main if recorder is None else recorder.wrap("cli.main", pkg.cli.main)
            rec["time_s"] = attempt(rec, workloads.run_in_process, main, spec, unit, out_dir, log)
        else:
            t0 = time.perf_counter()
            rec["rss_mb"] = attempt(rec, workloads.run_child, spec, unit, out_dir, log, spans_dir)
            rec["time_s"] = time.perf_counter() - t0
    finally:
        if restore:
            restore()
    if layer_stats is not None:
        if recorder is not None:
            unit_spans = recorder.spans
        else:
            unit_spans = spans.load_flushed(str(spans_dir))
            shutil.rmtree(spans_dir)
        if rec["error"] is None:
            rec["counters"] = layer_stats.add_unit(unit_spans)
            spans.write_csv(unit_spans, out_dir.parent / "spans.csv", unit)
    return rec


def run_pair(spec, unit, out_dir: Path, runners, seed_first: bool) -> list[dict]:
    """The unit on the program's and on the seed copy's workloads.Runner, side
    by side, started in the order `seed_first` says.  Returns the program's
    record and the seed copy's, with the CPU seconds each took."""
    dirs = [out_dir, out_dir.with_name(out_dir.name + "-seed")]
    recs = [new_record(unit, d) for d in dirs]
    order = [1, 0] if seed_first else [0, 1]
    for k in order:
        attempt(recs[k], runners[k].start, spec, unit, dirs[k], dirs[k].with_suffix(".log"))
    for k in order:
        if recs[k]["error"] is None:
            got = attempt(recs[k], runners[k].finish)
            if got is not None:
                recs[k]["time_s"], recs[k]["rss_mb"] = got
    return recs


def run_pass(pkg, spec, units, pass_dir: Path, seconds=None, probe=None,
             layer_stats=None, runners=None):
    """Run `units` once in order or, if `seconds` is given, cycle through them
    until every unit has run and the next step would end after `seconds`.
    `probe()` runs before each step.  A step runs the unit once and then again
    traced, with `layer_stats`; or, with `runners` (program, seed copy), on
    both (run_pair), so host drift hits both alike.  Returns the first
    records (the program's) and the second (traced or seed copy)."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    plain, other, steps = [], [], []
    start = time.perf_counter()
    seq = itertools.cycle(units) if seconds is not None else iter(units)
    for i, unit in enumerate(seq):
        now = time.perf_counter()
        if (seconds is not None and len(plain) >= len(units)
                and now - start + statistics.median(steps) > seconds):
            break
        if probe is not None:
            probe()
        name = pass_dir / f"{i:03d}-u{unit}"
        if runners is not None:
            mine, seeds = run_pair(spec, unit, name, runners, seed_first=i % 2 == 1)
            plain.append(mine)
            other.append(seeds)
        else:
            plain.append(run_unit(pkg, spec, unit, name))
            if layer_stats is not None:
                other.append(run_unit(pkg, spec, unit, name.with_name(name.name + "-traced"),
                                      layer_stats))
        steps.append(time.perf_counter() - now)
    return plain, other


# --------------------------------------------------------------- metrics


class SetupProbe:
    """Times what a run pays before its first round in fresh interpreters
    (setup_probe.py), on the program and on the seed copy side by side on one
    CPU, in CPU seconds: `per_unit` pairs each time it is called, and at least
    `minimum` pairs in all.  The first pair warms the file cache and is
    dropped."""

    def __init__(self, spec, unit, per_unit: int, minimum: int):
        self.arg = json.dumps(spec.first_config(unit))
        self.per_unit, self.minimum = per_unit, minimum
        self.pairs: list[tuple[float, float]] = []  # (program, seed copy)
        self.warm = False

    def ratio(self) -> float:
        """Median over the pairs of program time / seed copy time."""
        self._pairs(max(0, self.minimum - len(self.pairs)))
        return statistics.median(p / s for p, s in self.pairs)

    def __call__(self) -> None:
        self._pairs(self.per_unit)

    def _pairs(self, k: int) -> None:
        cpu = {min(os.sched_getaffinity(0))}
        for _ in range(k + (not self.warm)):
            procs = [
                subprocess.Popen(
                    [sys.executable, str(workloads.BENCH_DIR / "setup_probe.py"), self.arg],
                    cwd=ROOT, env=workloads.cli_env(src), stdout=subprocess.PIPE, text=True,
                    preexec_fn=lambda: os.sched_setaffinity(0, cpu),
                )
                for src in (SRC, workloads.SEED_SRC)
            ]
            try:
                outs = [proc.communicate(timeout=60)[0] for proc in procs]
            finally:
                for proc in procs:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
            if any(proc.returncode for proc in procs):
                raise RuntimeError(f"setup probes exited with {[p.returncode for p in procs]}")
            if self.warm:
                p, s = (json.loads(out)["cpu_s"] for out in outs)
                self.pairs.append((p, s))
            self.warm = True


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "wsnsim").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def stamp(load_before) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_context().get_start_method(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def check_memo(size, workload, records) -> list[str]:
    """Counters of a unit must repeat exactly across runs of the same sources."""
    path = WORK / "counters.json"
    key = source_digest()
    try:
        memo = json.loads(path.read_text())
    except (OSError, ValueError):
        memo = {}
    seen = memo.get(key, {})
    problems = []
    for rec in records:
        if "counters" not in rec:
            continue
        k = f"{size}/{workload}/{rec['unit']}"
        if k in seen and seen[k] != rec["counters"]:
            problems.append(f"unit {rec['unit']}: counters drifted from an earlier run")
        seen[k] = rec["counters"]
    path.write_text(json.dumps({key: seen}, indent=1, sort_keys=True))
    return problems


# ------------------------------------------------------------------- run


def run_workload(pkg, pins, workload, seed, seconds, trace, size="full",
                 probes=SETUP_PROBES) -> dict:
    spec = SPECS[size][workload]
    load_before = os.getloadavg()
    raw = {}
    order = list(range(spec.pool))
    random.Random(seed).shuffle(order)
    problems: list[str] = []

    # an untraced run pairs each unit with the same unit on the seed copy and
    # probes set-up between its units; a traced run follows each untraced unit
    # with a traced run of the same unit
    probe = None if trace else SetupProbe(spec, order[0], *probes)
    layer_stats = spans.LayerStats() if trace else None
    runners = None if trace else (workloads.Runner(SRC), workloads.Runner(workloads.SEED_SRC))
    try:
        plain, other = run_pass(pkg, spec, order, WORK / size / workload, seconds,
                                probe=probe, layer_stats=layer_stats, runners=runners)
    finally:
        for runner in runners or ():
            runner.close()
    pinned = pins.get(size, {}).get(workload, {})
    for rec in plain + (other if not trace else []):
        if rec["error"] is None:
            rec["digests"] = digest_tree(rec["dir"])
            found = digest_problems(pinned.get(str(rec["unit"])), rec["digests"])
            rec["stats"] = output_stats(rec["dir"])
            if found:
                rec["error"] = "; ".join(found)
    ok = [r for r in plain if r["error"] is None]
    traced = other if trace else []
    for p, t in zip(plain, traced):
        if t["error"] is None and p["error"] is None:
            if digest_tree(t["dir"]) != p["digests"]:
                t["error"] = "traced outputs differ from untraced outputs"
            else:
                want = expected_counters(p["stats"])
                got = {k: t["counters"].get(k, 0) for k in want}
                if got != want:
                    t["error"] = f"traced counters {got} != counters of outputs {want}"
    records = plain + other
    if trace:
        problems += layer_stats.problems + check_memo(size, workload, traced)

    failed = sum(r["error"] is not None for r in records)
    if trace:
        pairs = [(p["time_s"], t["time_s"]) for p, t in zip(plain, traced)
                 if p["error"] is None and t["error"] is None]
        metrics = layer_stats.metrics()
        metrics["trace_overhead_frac"] = (
            sum(t for _, t in pairs) / sum(p for p, _ in pairs) - 1.0 if pairs else 0.0,
            "frac",
        )
    else:
        # program time / seed copy time of each pair, scaled to the reference
        # host; every unit of the pool counts its node-rounds once
        ratios = [p["time_s"] / q["time_s"] for p, q in zip(plain, other)
                  if p["error"] is None and q["error"] is None]
        node_rounds = {r["unit"]: r["stats"]["node_rounds"] for r in ok}
        wall = statistics.median(ratios) * spec.ref_wall_s if ratios else 0.0
        rss = (statistics.median(r["rss_mb"] for r in ok) if ok and spec.command == "sweep"
               else runners[0].peak_rss_mb or 0.0)
        metrics = {
            "wall_s": (wall, "s"),
            "node_rounds_per_s": (
                sum(node_rounds.values()) / len(node_rounds) / wall if wall else 0.0, "1/s"),
            "setup_s": (probe.ratio() * spec.ref_setup_s, "s"),
            "peak_rss_mb": (rss, "MiB"),
        }
        raw = {
            "program_cpu_s": statistics.median(r["time_s"] for r in ok) if ok else 0.0,
            "seed_cpu_s": statistics.median(
                r["time_s"] for r in other if r["error"] is None) if ratios else 0.0,
            "program_setup_cpu_s": statistics.median(p for p, _ in probe.pairs),
            "seed_setup_cpu_s": statistics.median(s for _, s in probe.pairs),
        }
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    error_rate = failed / len(records)
    entry = {
        "workload": workload, "size": size, "seed": seed, "seconds": seconds,
        "trace": int(bool(trace)), "units": [r["unit"] for r in plain],
        "unit_time_s": [r["time_s"] for r in plain],
        "other_time_s": [r["time_s"] for r in other],
        "raw_s": raw,
        "errors": [r["error"] for r in records if r["error"]],
        "problems": problems, "error_rate": error_rate,
        "metrics": reported, "stamp": stamp(load_before),
    }
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps(entry) + "\n")

    print(f"{workload} ({size}) seed={seed} trace={int(bool(trace))} "
          f"units={entry['units']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    for name, value in raw.items():
        print(f"  {'(raw) ' + name:<42} {value:>16.6g} s")
    print(f"  {'error_rate':<42} {error_rate:>16.6g} frac ({failed}/{len(records)} units)")
    for text in entry["errors"] + problems:
        print(f"  ! {text.strip().splitlines()[-1]}")
    print("stamp " + json.dumps(entry["stamp"]))
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": reported,
    }


# ------------------------------------------------------------ pin, smoke


def pin(pkg) -> None:
    pins: dict = {}
    for size, specs in SPECS.items():
        for workload, spec in specs.items():
            pass_dir = WORK / "pin" / size / workload
            records, _ = run_pass(pkg, spec, list(range(spec.pool)), pass_dir)
            for rec in records:
                if rec["error"]:
                    raise SystemExit(f"error: {workload} unit {rec['unit']} failed")
            pins.setdefault(size, {})[workload] = {
                str(rec["unit"]): digest_tree(rec["dir"]) for rec in records
            }
            print(f"pinned {size}/{workload}: {len(records)} units", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def smoke(pkg, pins) -> bool:
    """Each workload once untraced and once traced at tiny sizes: the metric
    names and units must match BENCHMARK.json and the outputs must pass the
    digest gate, which must also reject a damaged copy."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    good = True
    for workload, spec in SPECS["smoke"].items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(pkg, pins, workload, 1, 0, trace,
                                  size="smoke", probes=(1, 1))
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want or not result["correct"]:
                print(f"SMOKE FAIL {workload} trace={trace}: correct={result['correct']} "
                      f"metrics differ: {sorted(set(got.items()) ^ set(want.items()))}")
                good = False
        unit_dir = next(p for p in sorted((WORK / "smoke" / workload).glob("000-u*"))
                        if p.is_dir())
        expected = pins["smoke"][workload][unit_dir.name.split("-u")[1]]
        damaged = digest_tree(unit_dir)
        first = sorted(damaged)[0]
        damaged[first] = hashlib.sha256(
            (unit_dir / first).read_bytes() + b"\n").hexdigest()
        missing = dict(expected)
        missing.pop(first)
        if not digest_problems(expected, damaged) or not digest_problems(expected, missing) \
                or digest_problems(expected, digest_tree(unit_dir)):
            print(f"SMOKE FAIL {workload}: digest gate does not separate good from damaged")
            good = False
    print("smoke: " + ("ok" if good else "FAILED"))
    return good


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if not (args.smoke or args.pin or args.workload):
        parser.error("give --workload, --smoke or --pin")

    pkg = import_package()
    WORK.mkdir(exist_ok=True)
    if args.pin:
        pin(pkg)
        return 0
    try:
        pins = json.loads(PINS.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {PINS}: {exc}")
    if args.smoke:
        return 0 if smoke(pkg, pins) else 1

    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(pkg, pins, name, args.seed, args.seconds, args.trace)
        for name in names
    }
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
