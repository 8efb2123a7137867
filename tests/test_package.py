"""The package's public names, and the library example README documents."""

import re
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
