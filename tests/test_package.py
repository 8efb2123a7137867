"""The package's public names, and the library example README documents."""

import os
import re
import subprocess
import sys
from pathlib import Path

import wsnsim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_name_in_all_imports():
    namespace = {}
    exec("from wsnsim import *", namespace)  # AttributeError on a name that is gone
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(wsnsim.__all__)


def test_root_exports_what_readme_documents():
    assert sorted(wsnsim.__all__) == [
        "NodeTier",
        "ProtocolKind",
        "RoundMetrics",
        "RunResult",
        "SimConfig",
        "SummaryMetrics",
        "aggregate",
        "run",
    ]


def test_readme_library_example_runs():
    section = README.read_text().split("## Library use", 1)[1]
    exec(re.search(r"```python\n(.*?)```", section, re.S).group(1), {})


def test_run_leaves_numpy_random_unimported():
    """Importing wsnsim and running five rounds never imports numpy.random.

    numpy.random.Generator(MT19937), its state set from
    random.Random.getstate(), would give the same draws at about 7 ns each,
    but importing numpy.random raises a process's peak RSS by 6.2 MiB (26.9
    to 33.1 MiB after `import numpy` alone, Python 3.11, numpy 2.4), and it
    raised the replication bench's peak_rss_mb from 40.7 to 46.9 MiB (+15%).
    The run's draws come from random.Random through model.uniforms instead.
    """
    code = (
        "import sys, wsnsim\n"
        "assert wsnsim.run(wsnsim.SimConfig(max_rounds=5)).summary.rounds_simulated == 5\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    src = str(Path(wsnsim.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
