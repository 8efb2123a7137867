"""Differential oracle: engine.run against the frozen seed copy.

wsnbench/seed/wsnsim is a copy of the simulator taken before any of its
refactors, kept from drifting by wsnbench/pins.json.  No refactor since has
meant to change an output, so on every config both packages must give the same
series and summary, the same in-memory totals to the last bit, and, for a
config that cannot run, the same ValueError.  The copy is loaded by file path
under another package name and is only read.

A config that breaks two range rules at once reports the rule checked first,
so the order of the config checks is pinned on hand-picked configs as well.

The engine prices networks of up to engine.PAIR_TABLE_MAX_NODES nodes from
tables built once per run and larger ones round by round; every drawn config
runs on both paths.

Configs are drawn from the space the engine has to get right: 1 to 250 nodes,
no super tier or all advanced nodes super, equal or distinct energy
multipliers, base energies small enough that most networks die, p_opt up to
and past the per-tier limit, thin fields, base stations inside or outside the
field, and a fixed crossover distance.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wsnsim import cli, engine

SEED_COPY = Path(__file__).resolve().parents[1] / "wsnbench" / "seed" / "wsnsim"


def _load_seed_copy():
    name = "wsnsim_seed_copy"
    spec = importlib.util.spec_from_file_location(
        name, SEED_COPY / "__init__.py", submodule_search_locations=[str(SEED_COPY)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(package)
        return importlib.import_module(name + ".cli"), importlib.import_module(name + ".engine")
    finally:
        sys.dont_write_bytecode = write_bytecode


SEED_CLI, SEED_ENGINE = _load_seed_copy()

TOTALS = (
    "d_avg",
    "initial_energy_j",
    "energy_dissipated_j",
    "mean_member_to_head_m",
    "mean_head_to_bs_m",
)


@st.composite
def overrides(draw) -> dict:
    m = draw(st.floats(0.0, 1.0))
    m0 = draw(st.one_of(st.sampled_from([0.0, m]), st.floats(0.0, m)))
    a = draw(st.floats(0.0, 4.0))
    b = draw(st.one_of(st.just(a), st.floats(a, 6.0)))
    # the super tier's rate p_opt(1+b)/denom reaches 1 at this p_opt
    limit = (1.0 + a * (m - m0) + b * m0) / (1.0 + b)
    p_opt = min(limit * draw(st.floats(0.01, 1.1)), 0.999)
    width = draw(st.floats(1.0, 300.0))
    off_field = st.one_of(st.none(), st.floats(-300.0, 600.0))
    return {
        "n": draw(st.integers(1, 250)),
        "field_width": width,
        "field_height": draw(st.one_of(st.just(1.0), st.just(width), st.floats(1.0, 300.0))),
        "bs_x": draw(off_field),
        "bs_y": draw(off_field),
        "p_opt": p_opt,
        "d0_override": draw(st.one_of(st.none(), st.floats(1.0, 200.0))),
        "m": m,
        "m0": m0,
        "a": a,
        "b": b,
        "e0": draw(st.floats(0.001, 0.05)),
        "protocol": draw(st.sampled_from(["leach", "sep", "dbcp"])),
        "seed": draw(st.integers(0, 2**32)),
        "max_rounds": draw(st.integers(1, 2000)),
    }


def _outcome(config_parser, run, values: dict):
    """The run of `values` through one package, or its ValueError's text."""
    try:
        return run(config_parser(None, values))
    except ValueError as exc:
        return str(exc)


def _assert_matches_seed_copy(values: dict) -> None:
    mine = _outcome(cli.parse_config, engine.run, values)
    seed = _outcome(SEED_CLI.parse_config, SEED_ENGINE.run, values)
    if isinstance(mine, str) or isinstance(seed, str):
        assert mine == seed
        return
    assert [tuple(row) for row in mine.series] == [
        dataclasses.astuple(row) for row in seed.series
    ]
    assert tuple(mine.summary) == dataclasses.astuple(seed.summary)
    for name in TOTALS:
        assert repr(getattr(mine, name)) == repr(getattr(seed, name)), name


ORACLE_SETTINGS = settings(
    max_examples=170,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@ORACLE_SETTINGS
@given(overrides())
def test_engine_matches_seed_copy(values):
    assert values["n"] <= engine.PAIR_TABLE_MAX_NODES  # the pair-table path
    _assert_matches_seed_copy(values)


@ORACLE_SETTINGS
@given(overrides())
def test_per_round_path_matches_seed_copy(values):
    saved, engine.PAIR_TABLE_MAX_NODES = engine.PAIR_TABLE_MAX_NODES, 0
    try:
        _assert_matches_seed_copy(values)
    finally:
        engine.PAIR_TABLE_MAX_NODES = saved


@pytest.mark.parametrize("bits", [2**59, 2**63, 3**40], ids=["2**59", "2**63", "3**40"])
@pytest.mark.parametrize("table_max", [engine.PAIR_TABLE_MAX_NODES, 0], ids=["tables", "per_round"])
def test_huge_packet_matches_seed_copy(table_max, bits, monkeypatch):
    """Packets so large that a head fusing 16 or more signals would take the
    product of signals and bits past int64: the copy multiplies Python ints,
    the engine floats, with the same energies."""
    monkeypatch.setattr(engine, "PAIR_TABLE_MAX_NODES", table_max)
    _assert_matches_seed_copy({"packet_bits": bits, "e0": 1e30, "max_rounds": 3})


# well-typed configs that each break two range rules checked in different
# places: a radio constant, a tier fraction or multiplier, the rest
TWO_RULES_BROKEN = [
    {"e_elec": 0.0, "m0": 0.5},
    {"m0": 0.5, "n": 0},
    {"a": 2.0, "b": 1.0, "p_opt": 1.5},
    {"d0_override": -1.0, "e0": 0.0},
    {"e0": 0.0, "max_rounds": 0},
    {"eps_mp": -1.0, "field_width": 0.0},
    {"m": 1.5, "seed": -1},
    {"a": -1.0, "packet_bits": 0},
    {"p_opt": 0.0, "bs_x": 5.0},
    {"field_height": -2.0, "n": 0},
]


def _config_error(parse_config, values: dict) -> str:
    with pytest.raises(ValueError) as info:
        parse_config(None, values)
    return str(info.value)


@pytest.mark.parametrize("values", TWO_RULES_BROKEN, ids=lambda v: "+".join(v))
def test_first_broken_rule_matches_seed_copy(values):
    assert _config_error(cli.parse_config, values) == _config_error(
        SEED_CLI.parse_config, values
    )
