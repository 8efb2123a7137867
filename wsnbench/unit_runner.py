"""Run `wsnsim` commands one after another in one long-lived process.

Usage: PYTHONPATH=src python3 unit_runner.py     (the program)
       PYTHONPATH=wsnbench/seed python3 unit_runner.py     (the seed copy)

Reads one JSON object a line, {"argv": [...], "log": "<path>"}, runs
`cli.main(argv)` of whatever `wsnsim` PYTHONPATH names with its console output
sent to the log, and answers one JSON line, {"code": <exit code>, "wall_s": <seconds spent in
cli.main>, "cpu_s": <CPU seconds this process spent in it>}.  Ends when its input ends.
"""

import contextlib
import json
import sys
import time

from wsnsim import cli


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["log"], "w") as fh, contextlib.redirect_stdout(fh), \
                contextlib.redirect_stderr(fh):
            t0, c0 = time.perf_counter(), time.process_time()
            code = cli.main(job["argv"])
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        print(json.dumps({"code": code, "wall_s": wall, "cpu_s": cpu}), flush=True)


if __name__ == "__main__":
    main()
