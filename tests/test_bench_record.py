"""scripts/bench_record.py's per-layer table, from fake traced results."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(correct, **values):
    """The final JSON line of a `--trace 1` run, with these metric values."""
    return {
        "correct": correct,
        "attempted": 3,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": "us"} for k, v in values.items()},
    }


def test_median_layers_keeps_each_pass_and_the_median():
    a = traced(True, elect_us=10.0, form_us=4.0)
    b = traced(True, elect_us=14.0, form_us=5.0)
    table = load_script().median_layers([a, b])
    assert table == {
        "correct": True,
        "metrics": {"elect_us": 12.0, "form_us": 4.5},
        "passes": [{"elect_us": 10.0, "form_us": 4.0}, {"elect_us": 14.0, "form_us": 5.0}],
    }


def test_median_layers_correct_only_if_every_pass_was():
    a = traced(True, elect_us=10.0)
    b = traced(False, elect_us=14.0)
    median_layers = load_script().median_layers
    assert median_layers([a, b])["correct"] is False
    assert median_layers([b, a])["correct"] is False
