"""Run the wsnsim CLI with the benchmark's span wrappers installed.

Usage: python3 traced_cli.py SPANS_DIR <wsnsim arguments...>

The CLI's own process writes its spans into SPANS_DIR when it finishes; pool
workers, forked with the wrappers in place, write theirs there as each
simulation returns.
"""

import sys

import spans
from wsnsim import cli, engine, report


def main() -> int:
    spans_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder(flush_dir=spans_dir)
    spans.instrument(recorder, cli, engine, report)
    code = recorder.call("cli.main", cli.main, None, (argv,), {})
    recorder.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
