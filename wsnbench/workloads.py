"""Workload definitions and the unit each benchmark run repeats.

A unit is one `wsnsim` command over a few paired seeds; the next starts only
after the previous one has finished.  Every workload has a small fixed pool of
units whose output digests are pinned in pins.json.  A run walks the whole
pool, in an order its `--seed` picks, again and again until its time is up,
so every run measures the same inputs.  Unit `u` covers the paired
simulation seeds `u*seeds_per_unit+1 .. (u+1)*seeds_per_unit`.

seed/wsnsim is a byte-identical copy of src/wsnsim as the benchmark was
defined (commit 7a4b77f).  Every timed unit also runs on that copy, side by
side with the program on one CPU (Runner), and the benchmark reports the
program's time as a multiple of the copy's.  On a shared host the speed of a
CPU swings by a fifth from one second to the next and by half over minutes,
far more than any bound; two processes that take turns on one CPU meet the
same speed.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SEED_SRC = BENCH_DIR / "seed"
CLI_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Spec:
    # "compare" runs with one worker in one process (unit_runner.py, or this
    # process when traced); "sweep" runs as a CLI child process with the
    # CLI's default worker count
    command: str
    overrides: dict
    seeds_per_unit: int
    pool: int
    # wall seconds of one unit and of one setup probe of the seed copy, run
    # alone on the reference host: typical of the wall-clock runs made on a
    # 2-vCPU Xeon VM while the benchmark was written.  They only fix the
    # scale: a reported time is one of these times the program's measured
    # multiple of the seed copy.
    ref_wall_s: float
    ref_setup_s: float
    values: tuple = ()  # sweep only: values of m

    def seeds(self, unit: int) -> list[int]:
        k = self.seeds_per_unit
        return list(range(unit * k + 1, unit * k + k + 1))

    def first_config(self, unit: int) -> dict:
        """Overrides of the unit's first simulated config (setup probe)."""
        first = {**self.overrides, "protocol": "leach", "seed": self.seeds(unit)[0]}
        if self.command == "sweep":
            first["m"] = self.values[0]
        return first

    def argv(self, unit: int, out_dir: Path) -> list[str]:
        seeds = self.seeds(unit)
        argv = [self.command, "--out", str(out_dir), "--seeds", f"{seeds[0]}..{seeds[-1]}"]
        if self.command == "compare":
            argv += ["--workers", "1"]
        else:
            argv += ["--param", "m", "--values", ",".join(repr(v) for v in self.values)]
        for key, value in self.overrides.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        return argv


SPECS = {
    "full": {
        # the paper's experiment at its defaults: n=100, 10000-round cap
        "replication": Spec("compare", {}, 1, 2, 4.5, 0.22),
        # ~1000 heads against ~9000 members: the dense nearest-head search dominates
        "large_n": Spec("compare", {"n": 10000, "max_rounds": 10}, 1, 2, 3.5, 0.25),
        # e0=0.05: every network dies, short runs, many CSVs through the pool
        "sweep_cli": Spec("sweep", {"e0": 0.05}, 2, 2, 3.5, 0.22, (0.1, 0.2, 0.3, 0.4)),
    },
    "smoke": {
        "replication": Spec("compare", {"max_rounds": 200}, 1, 2, 0.1, 0.22),
        "large_n": Spec("compare", {"n": 1000, "max_rounds": 2}, 1, 2, 0.1, 0.22),
        "sweep_cli": Spec("sweep", {"e0": 0.05, "max_rounds": 300}, 1, 2, 0.5, 0.22,
                          (0.1, 0.3)),
    },
}


def cli_env(src: Path = SRC) -> dict:
    return {**os.environ, "PYTHONPATH": str(src)}


def run_in_process(main, spec: Spec, unit: int, out_dir: Path, log: Path) -> float:
    """`wsnsim compare --workers 1` through `main` (cli.main or a traced
    wrapper of it), with its console output sent to `log`.  Returns the
    seconds spent in `main`."""
    with open(log, "w") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        t0 = time.perf_counter()
        code = main(spec.argv(unit, out_dir))
        wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"wsnsim exited with {code}; see {log}")
    return wall


class Runner:
    """Runs units on the wsnsim package under `src` (src/ or the seed copy).

    `start` hands it a unit and `finish` waits for it and returns the CPU
    seconds it took and, for a CLI child, its peak RSS in MiB.  `compare`
    units run one after another in one long-lived child process
    (unit_runner.py), which reports the CPU seconds spent in `cli.main`; the
    child is pinned to the lowest CPU this process may use, so that the
    program's and the seed copy's children, started together, share that CPU
    slice by slice and meet the same host speed.  `sweep` units run as a CLI
    child each, pinned with their pool workers to that CPU in the same way,
    and count the CPU seconds of the CLI and of the pool workers it waited
    for.
    `close()` ends the children and waits for them, and keeps the long-lived
    child's peak RSS in MiB."""

    def __init__(self, src: Path) -> None:
        self.src = src
        self.proc: subprocess.Popen | None = None  # the long-lived child
        self.cli: subprocess.Popen | None = None  # a running CLI child
        self.log: Path | None = None
        self.peak_rss_mb: float | None = None

    def start(self, spec: Spec, unit: int, out_dir: Path, log: Path) -> None:
        self.log = log
        cpu = {min(os.sched_getaffinity(0))}
        if spec.command == "sweep":
            self.cli = start_child(spec, unit, out_dir, log, src=self.src, cpus=cpu)
            return
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "unit_runner.py")], cwd=ROOT,
                env=cli_env(self.src), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, preexec_fn=lambda: os.sched_setaffinity(0, cpu),
            )
        self.proc.stdin.write(json.dumps({"argv": spec.argv(unit, out_dir),
                                          "log": str(log)}) + "\n")
        self.proc.stdin.flush()

    def finish(self) -> tuple[float, float | None]:
        if self.cli is not None:
            cli, self.cli = self.cli, None
            usage = wait_child(cli, self.log)
            return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
        if not select.select([self.proc.stdout], [], [], CLI_TIMEOUT_S)[0]:
            self.proc.kill()
            raise RuntimeError(f"unit did not finish within {CLI_TIMEOUT_S:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"unit runner for {self.src} ended early")
        reply = json.loads(line)
        if reply["code"] != 0:
            raise RuntimeError(f"wsnsim exited with {reply['code']}; see {self.log}")
        return reply["cpu_s"], None

    def close(self) -> None:
        if self.cli is not None:
            cli, self.cli = self.cli, None
            with contextlib.suppress(RuntimeError):
                wait_child(cli, self.log, timeout=0.0)
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        with contextlib.suppress(OSError):
            proc.stdin.close()
        with contextlib.suppress(RuntimeError):  # a failed unit was counted already
            self.peak_rss_mb = wait_child(proc, None).ru_maxrss / 1024.0
        proc.stdout.close()


def start_child(spec: Spec, unit: int, out_dir: Path, log: Path,
                spans_dir: Path | None = None, src: Path = SRC,
                cpus: set[int] | None = None) -> subprocess.Popen:
    """Start `wsnsim sweep` (or the traced launcher) as a child process in a
    session of its own, with the CLI's default worker count, importing wsnsim
    from `src`, on `cpus` if given (its pool workers inherit them)."""
    argv = spec.argv(unit, out_dir)
    if spans_dir is None:
        cmd = [sys.executable, "-m", "wsnsim", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_dir), *argv]
    with open(log, "w") as fh:
        return subprocess.Popen(
            cmd, cwd=ROOT, env=cli_env(src), stdout=fh, stderr=fh, start_new_session=True,
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus))


def wait_child(proc: subprocess.Popen, log: Path | None, timeout: float = CLI_TIMEOUT_S):
    """Wait for `proc` and return its resource usage, which includes the
    children it waited for.  After `timeout` seconds its session is killed.
    Raises if it was killed or exited non-zero."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() >= deadline:
            # the session holds the child and any pool workers it started
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise RuntimeError(f"child did not finish within {timeout:.0f} s")
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}; see {log}")
    return usage


def run_child(spec: Spec, unit: int, out_dir: Path, log: Path,
              spans_dir: Path | None = None) -> float:
    """Run `wsnsim sweep` (or the traced launcher) to its end.  Returns the
    peak RSS in MiB of the CLI process and the pool workers it waited for."""
    return wait_child(start_child(spec, unit, out_dir, log, spans_dir), log).ru_maxrss / 1024.0
