#!/usr/bin/env python3
"""Record a benchmark comparison of two commits as BENCH_<name>.json.

Exports the parent and the change commit with `git archive` into a work
directory and runs `wsnbench/run.py --workload all --trace 0` in each export,
in PAIRS pairs of SECONDS-second runs that alternate which side goes first,
one benchmark seed per pair.  Then it runs TRACED_PASSES traced passes
(`--trace 1`) per side on the first TRACED_PASSES seeds, again alternating
which side goes first, and the Tier-1 suite on each side.

    python3 scripts/bench_record.py --out BENCH_9.json --seeds 101

The record holds, for every end-to-end metric of every workload, each side's
values, median and quartiles and the number of pairs the change won (ties
count for neither side); each side's per-layer values of every traced pass
and their median per metric, so that host load during one pass cannot skew
the table, with `correct` true only if every pass was; the Tier-1 wall time
and summary line per side; the commits, their source digests, the core count,
the C library (`platform.libc_ver()`) and the load average around the runs.
Both sides run the benchmark code of their own commit; a record is
meaningful only if the two agree.  Expect 26 benchmark runs of 1.5-2 minutes
each plus two Tier-1 runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10  # the fewest that can show a win on 9 of 10 pairs
SECONDS = 30.0  # each workload's budget, as BENCHMARK.json runs it
TRACED_PASSES = 3  # per side; a single pass read unchanged layers 30-40% slower


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> dict:
    """Write the tree of `rev` to `dest`; returns its commit and the SHA-256
    of its src/wsnsim sources (the digest the benchmark stamps)."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    h = hashlib.sha256()
    src = dest / "src"
    for p in sorted((src / "wsnsim").rglob("*.py")):
        h.update(p.relative_to(src).as_posix().encode() + b"\0" + p.read_bytes())
    return {"commit": git("rev-parse", rev), "source_sha256": h.hexdigest()}


def bench(tree: Path, seed: int, trace: int) -> dict:
    """One `wsnbench/run.py --workload all` run in `tree`; returns its final
    JSON line (correct, attempted, failed, metrics keyed workload.metric)."""
    cmd = [sys.executable, "wsnbench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1(tree: Path) -> dict:
    """The Tier-1 suite in `tree`: wall seconds and pytest's summary line."""
    env = {**os.environ, "PYTHONPATH": "src"}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 1), "summary": lines[-1] if lines else "",
            "exit_code": proc.returncode}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def median_layers(passes: list[dict]) -> dict:
    """One side's per-layer table from its traced passes (each the final
    JSON line of a `--trace 1` run): each pass's metric values, the median
    of every metric over the passes, and `correct` only if every pass was."""
    values = [{k: v["value"] for k, v in t["metrics"].items()} for t in passes]
    return {
        "correct": all(t["correct"] for t in passes),
        "metrics": {k: statistics.median(v[k] for v in values) for k in values[0]},
        "passes": values,
    }


def summarize(runs: dict[str, list[dict]], declared: dict) -> dict:
    """Per workload and end-to-end metric: both sides' spread and the
    change's wins over the pairs, in the metric's better direction."""
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    out: dict = {}
    for key in runs["change"][0]["metrics"]:
        workload, metric = key.split(".", 1)
        if metric not in better:
            continue
        sides = {s: [r["metrics"][key]["value"] for r in runs[s]] for s in SIDES}
        sign = 1 if better[metric] == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(sides["parent"], sides["change"]))
        entry = {s: quartiles(v) for s, v in sides.items()}
        entry.update(unit=runs["change"][0]["metrics"][key]["unit"], better=better[metric],
                     change_wins=wins, pairs=len(sides["change"]),
                     parent_iqr=entry["parent"]["q3"] - entry["parent"]["q1"],
                     median_change=entry["change"]["median"] - entry["parent"]["median"])
        out.setdefault(workload, {})[metric] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="record to write, e.g. BENCH_9.json")
    parser.add_argument("--parent", default="HEAD^", help="parent revision (default HEAD^)")
    parser.add_argument("--change", default="HEAD", help="change revision (default HEAD)")
    parser.add_argument("--seeds", type=int, default=101,
                        help="benchmark seed of the first pair; pair k uses seeds+k")
    parser.add_argument("--work", help="directory for the exports (default: a new temp dir)")
    args = parser.parse_args()

    work = Path(args.work or tempfile.mkdtemp(prefix="bench_record_"))
    trees = {s: work / s for s in SIDES}
    commits = {s: export(rev, trees[s]) for s, rev in zip(SIDES, (args.parent, args.change))}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    load_before = os.getloadavg()

    runs: dict[str, list[dict]] = {s: [] for s in SIDES}
    seeds = [args.seeds + k for k in range(PAIRS)]
    for k, seed in enumerate(seeds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            result = bench(trees[side], seed, trace=0)
            runs[side].append(result)
            print(f"pair {k + 1}/{PAIRS} seed {seed} {side}: correct={result['correct']} "
                  f"replication.wall_s={result['metrics']['replication.wall_s']['value']:.3f}",
                  flush=True)
    traced: dict[str, list[dict]] = {s: [] for s in SIDES}
    for k, seed in enumerate(seeds[:TRACED_PASSES]):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            traced[side].append(bench(trees[side], seed, trace=1))
            print(f"traced pass {k + 1}/{TRACED_PASSES} seed {seed} {side}", flush=True)
    tier1_runs = {s: tier1(trees[s]) for s in SIDES}

    record = {
        "command": f"wsnbench/run.py --workload all --trace 0 --seconds {SECONDS:g} "
                   "--seed <seed>",
        "commits": commits,
        "seeds": seeds,
        "first_side": ["parent" if k % 2 == 0 else "change" for k in range(PAIRS)],
        "host": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_before": list(load_before),
            "loadavg_after": list(os.getloadavg()),
            "python": platform.python_version(),
            # glibc's heap trimming decides which work arrays stay mapped
            "libc": list(platform.libc_ver()),
        },
        "correct": {s: [r["correct"] for r in runs[s]] for s in SIDES},
        "failed_units": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
        "end_to_end": summarize(runs, declared),
        "traced_seeds": seeds[:TRACED_PASSES],
        "per_layer": {s: median_layers(passes) for s, passes in traced.items()},
        "tier1": tier1_runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
