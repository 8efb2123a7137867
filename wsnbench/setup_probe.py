"""Time what a run pays before its first round, in a fresh interpreter.

Usage: python3 setup_probe.py '<JSON config overrides>'

Prints one JSON object: the wall and CPU seconds of the cold `import wsnsim`
plus `cli.parse_config`, `model.deploy` and `engine.initial_state` for the
given config.
"""

import json
import random
import sys
import time


def main() -> None:
    overrides = json.loads(sys.argv[1])
    t0, c0 = time.perf_counter(), time.process_time()
    import wsnsim  # noqa: F401  (the cold import is what is timed)
    from wsnsim import cli, engine, model

    t1 = time.perf_counter()
    config = cli.parse_config(None, overrides)
    nodes = model.deploy(config, random.Random(config.seed))
    engine.initial_state(config, nodes)
    t2, c2 = time.perf_counter(), time.process_time()
    print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0, "cpu_s": c2 - c0}))


if __name__ == "__main__":
    main()
