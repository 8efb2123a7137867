"""Domain model: parameter validation, tier counting, and deployment."""

import math
import random
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wsnsim.engine import DRAW_BLOCK, run
from wsnsim.model import (
    NodeTier,
    ProtocolKind,
    SimConfig,
    WorkArrays,
    deploy,
    link_lengths,
    tier_counts,
    uniforms,
)


class TestHeterogeneityParams:
    def test_m0_above_m_rejected(self):
        with pytest.raises(ValueError, match="m0"):
            SimConfig(m=0.2, m0=0.3)

    def test_m_above_one_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(m=1.2, m0=0.1)

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(a=-0.5, b=3.0)

    def test_b_below_a_rejected(self):
        with pytest.raises(ValueError, match="b"):
            SimConfig(a=3.0, b=2.0)

    def test_nonpositive_e0_rejected(self):
        with pytest.raises(ValueError, match="e0"):
            SimConfig(e0=0.0)

    def test_zero_multipliers_allowed(self):
        h = SimConfig(a=0.0, b=0.0)
        assert h.a == 0.0 and h.b == 0.0


FLOAT_FIELDS = [f.name for f in fields(SimConfig) if "float" in f.type]  # `float | None` too


class TestSimConfig:
    def test_bs_defaults_to_field_centre(self):
        config = SimConfig(field_width=100.0, field_height=80.0)
        assert (config.bs_x, config.bs_y) == (50.0, 40.0)

    def test_explicit_bs_kept(self):
        config = SimConfig(bs_x=0.0, bs_y=10.0)
        assert (config.bs_x, config.bs_y) == (0.0, 10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"p_opt": 0.0},
            {"p_opt": 1.0},
            {"packet_bits": 0},
            {"max_rounds": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"field_width": 0.0},
            {"packet_bits": int(sys.float_info.max) + 1},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, name, value):
        """The CLI's text, for library callers too: NaN would pass every
        range rule and run to the round cap."""
        with pytest.raises(ValueError) as info:
            SimConfig(**{name: value})
        assert str(info.value) == f"{name} must be a finite number, got {value!r}"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n": 10.0}, "n must be an integer, got 10.0"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"e0": "0.5"}, "e0 must be a finite number, got '0.5'"),
            ({"protocol": "aodv"}, "protocol must be one of leach|sep|dbcp, got 'aodv'"),
        ],
        ids=["float_n", "bool_seed", "str_e0", "unknown_protocol"],
    )
    def test_wrong_type_rejected_with_cli_text(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            SimConfig(**kwargs)
        assert str(info.value) == message

    def test_protocol_name_runs_as_that_protocol(self):
        assert run(SimConfig(protocol="leach")) == run(SimConfig(protocol=ProtocolKind.LEACH))
        for kind in ProtocolKind:  # in any letter case
            by_name = SimConfig(max_rounds=300, protocol=kind.value.upper())
            assert by_name.protocol is kind
            assert run(by_name) == run(SimConfig(max_rounds=300, protocol=kind))

    def test_numpy_scalars_stored_as_python_numbers(self):
        config = SimConfig(n=np.int64(20), e0=np.float32(0.5), seed=np.uint64(3), max_rounds=5)
        assert (config.n, config.e0, config.seed) == (20, 0.5, 3)
        assert (type(config.n), type(config.e0), type(config.seed)) == (int, float, int)
        assert run(config) == run(SimConfig(n=20, e0=0.5, seed=3, max_rounds=5))

    def test_largest_packet_allowed(self):
        bits = int(sys.float_info.max)
        assert SimConfig(packet_bits=bits).packet_bits == bits

    @pytest.mark.parametrize(
        "p_opt, message",
        [
            (0.5, "p_advanced=1 is not a probability; "
                  "p_opt=0.5 with multipliers a=2.0, b=3.0 is too large"),
            (5e-324, "p_normal=4.94066e-324 has no finite epoch; "
                     "p_opt=5e-324 with multipliers a=2.0, b=3.0 is too small"),
        ],
        ids=["rate_reaches_one", "no_finite_epoch"],
    )
    def test_unrunnable_tier_rates_rejected(self, p_opt, message):
        """A config that constructs can run: the tier-rate split is checked
        when the config is built, not when a run starts."""
        with pytest.raises(ValueError) as info:
            SimConfig(p_opt=p_opt)
        assert str(info.value) == message


class TestTierCounts:
    def test_default_split(self):
        assert tier_counts(SimConfig(n=100, m=0.2, m0=0.1)) == (80, 10, 10)

    def test_homogeneous(self):
        assert tier_counts(SimConfig(n=100, m=0.0, m0=0.0)) == (100, 0, 0)

    def test_all_super(self):
        assert tier_counts(SimConfig(n=100, m=1.0, m0=1.0)) == (0, 0, 100)

    def test_round_half_up(self):
        # 10*0.25 = 2.5 -> 3 advanced-or-better; 10*0.05 = 0.5 -> 1 super
        assert tier_counts(SimConfig(n=10, m=0.25, m0=0.05)) == (7, 2, 1)

    @given(
        n=st.integers(min_value=1, max_value=500),
        m=st.floats(min_value=0.0, max_value=1.0),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_partition(self, n, m, frac):
        n_normal, n_advanced, n_super = tier_counts(SimConfig(n=n, m=m, m0=m * frac))
        assert n_normal >= 0 and n_advanced >= 0 and n_super >= 0
        assert n_normal + n_advanced + n_super == n


class TestUniforms:
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        sizes=st.lists(st.integers(min_value=0, max_value=3 * DRAW_BLOCK), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_next_k_random_values(self, seed, sizes):
        """Consecutive calls on one rng give the values k random() calls
        give, to the last bit, and leave the rng in the same state."""
        rng, reference = random.Random(seed), random.Random(seed)
        for k in sizes:
            expected = np.array([reference.random() for _ in range(k)], dtype=float)
            assert uniforms(rng, k).tobytes() == expected.tobytes()
            assert rng.getstate() == reference.getstate()


def hypot_loop(dx, dy):
    return [math.hypot(a, b) for a, b in zip(dx, dy)]


def measured(dx, dy):
    """link_lengths of the two lists, with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return link_lengths(np.array(dx, dtype=float), np.array(dy, dtype=float))


# legs of every magnitude, subnormal to near overflow, of either sign; the
# sum of two squares may itself overflow (math.hypot then gives inf)
LEGS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-200.0, max_value=200.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**-450, 2.0**450, 1.7e308]),
)

# exact Pythagorean triples (a, b, c): hypot(a, b) == c
TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (119, 120, 169)]


class TestLinkLengths:
    @given(pairs=st.lists(st.tuples(LEGS, LEGS), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_math_hypot_bit_for_bit(self, pairs):
        dx = [a for a, _ in pairs]
        dy = [b for _, b in pairs]
        assert measured(dx, dy).tolist() == hypot_loop(dx, dy)

    @given(legs=st.lists(LEGS, max_size=40))
    @settings(deadline=None)
    def test_equal_legs(self, legs):
        minus = [-v for v in legs]
        assert measured(legs, minus).tolist() == hypot_loop(legs, minus)

    @given(scale=st.integers(min_value=-1074, max_value=1013))
    @settings(deadline=None)
    def test_pythagorean_triples_scaled_by_powers_of_two(self, scale):
        dx = [math.ldexp(a, scale) for a, _, _ in TRIPLES]
        dy = [-math.ldexp(b, scale) for _, b, _ in TRIPLES]
        assert measured(dx + dy, dy + dx).tolist() == hypot_loop(dx + dy, dy + dx)

    def test_zero_length_is_positive_zero(self):
        lengths = measured([0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0])
        assert [math.copysign(1.0, v) for v in lengths.tolist()] == [1.0] * 4

    def test_field_links_rarely_fall_back(self, monkeypatch):
        """On 1e5 field-sized pairs, math.hypot runs only on the few entries
        near a rounding midpoint, not once per link."""
        rng = np.random.default_rng(7)
        dx, dy = rng.uniform(-100.0, 100.0, (2, 100_000))
        expected = hypot_loop(dx.tolist(), dy.tolist())
        calls, hypot = [], math.hypot

        def counted(a, b):
            calls.append(1)
            return hypot(a, b)

        monkeypatch.setattr(math, "hypot", counted)
        assert link_lengths(dx, dy).tolist() == expected
        assert len(calls) < 1000

    def test_work_arrays_give_the_same_lengths(self):
        rng = np.random.default_rng(8)
        work = WorkArrays()
        for size in (10, 1000, 30, 5000):
            dx, dy = rng.uniform(-100.0, 100.0, (2, size))
            assert link_lengths(dx, dy, work).tolist() == link_lengths(dx, dy).tolist()


def tiers_of(nodes):
    return [list(NodeTier)[t] for t in nodes.tier.tolist()]


def deploy_by_loop(config, rng):
    """Positions and base-station distances as a per-node loop of
    rng.uniform and math.hypot calls gives them; deploy's one batched draw
    must match them to the last bit."""
    x, y = [], []
    for _ in range(config.n):
        x.append(rng.uniform(0.0, config.field_width))
        y.append(rng.uniform(0.0, config.field_height))
    d_bs = [math.hypot(a - config.bs_x, b - config.bs_y) for a, b in zip(x, y)]
    return x, y, d_bs


class TestDeploy:
    @given(
        n=st.integers(min_value=1, max_value=300),
        width=st.floats(min_value=1e-3, max_value=1e4),
        height=st.floats(min_value=1e-3, max_value=1e4),
        bs=st.one_of(st.none(), st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    # legs whose squares leave link_lengths' exact range (math.hypot measures
    # those) and fields that straddle either end of it
    @example(n=50, width=1e-300, height=3e-300, bs=None, seed=1)
    @example(n=50, width=1e300, height=2e300, bs=None, seed=2)
    @example(n=50, width=1e300, height=1e-300, bs=(0.0, 0.0), seed=3)
    @example(n=200, width=1e-133, height=1e-133, bs=None, seed=4)
    @example(n=200, width=1e136, height=1e136, bs=None, seed=5)
    def test_matches_per_node_uniform_loop(self, n, width, height, bs, seed):
        bs_x, bs_y = bs or (None, None)
        config = SimConfig(n=n, field_width=width, field_height=height,
                           bs_x=bs_x, bs_y=bs_y, seed=seed)
        rng, loop_rng = random.Random(seed), random.Random(seed)
        nodes = deploy(config, rng)
        x, y, d_bs = deploy_by_loop(config, loop_rng)
        assert nodes.x.tolist() == x
        assert nodes.y.tolist() == y
        assert nodes.d_bs.tolist() == d_bs
        assert rng.random() == loop_rng.random()  # same draws taken, no more

    def test_deterministic(self):
        config = SimConfig(n=50, seed=9)
        a = deploy(config, random.Random(config.seed))
        b = deploy(config, random.Random(config.seed))
        for name in ("x", "y", "d_bs", "tier", "energy"):
            assert getattr(a, name).tolist() == getattr(b, name).tolist()

    def test_positions_inside_field(self):
        config = SimConfig(n=200, field_width=60.0, field_height=40.0, seed=2)
        nodes = deploy(config, random.Random(config.seed))
        assert ((0.0 <= nodes.x) & (nodes.x <= 60.0)).all()
        assert ((0.0 <= nodes.y) & (nodes.y <= 40.0)).all()

    def test_tier_blocks_ordered_by_id(self):
        config = SimConfig(n=100, seed=4)
        tiers = tiers_of(deploy(config, random.Random(config.seed)))
        assert tiers[:10] == [NodeTier.SUPER] * 10
        assert tiers[10:20] == [NodeTier.ADVANCED] * 10
        assert tiers[20:] == [NodeTier.NORMAL] * 80

    def test_initial_energies_by_tier(self):
        config = SimConfig(n=100, seed=4)
        nodes = deploy(config, random.Random(config.seed))
        by_tier = {NodeTier.SUPER: 2.0, NodeTier.ADVANCED: 1.5, NodeTier.NORMAL: 0.5}
        assert nodes.energy.tolist() == [by_tier[t] for t in tiers_of(nodes)]

    def test_total_energy_default_config(self):
        # 80*0.5 + 10*1.5 + 10*2.0
        config = SimConfig()
        nodes = deploy(config, random.Random(1))
        assert sum(nodes.energy.tolist()) == 75.0

    def test_single_normal_node(self):
        config = SimConfig(n=1, m=0.0, m0=0.0)
        nodes = deploy(config, random.Random(0))
        assert tiers_of(nodes) == [NodeTier.NORMAL]
        assert nodes.energy.tolist() == [0.5]

    def test_distance_to_bs_precomputed(self):
        config = SimConfig(n=30, seed=7)
        nodes = deploy(config, random.Random(config.seed))
        for x, y, d in zip(nodes.x.tolist(), nodes.y.tolist(), nodes.d_bs.tolist()):
            assert d == math.hypot(x - 50.0, y - 50.0)

    @given(
        n=st.integers(min_value=1, max_value=120),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_tier_population_matches_counts(self, n, seed):
        config = SimConfig(n=n, seed=seed)
        tiers = tiers_of(deploy(config, random.Random(seed)))
        n_normal, n_advanced, n_super = tier_counts(config)
        assert tiers.count(NodeTier.NORMAL) == n_normal
        assert tiers.count(NodeTier.ADVANCED) == n_advanced
        assert tiers.count(NodeTier.SUPER) == n_super


def test_closed_form_total_matches_deployed_sum_binary_fractions():
    """With m, m0 and the multipliers on binary fractions both the per-node
    sum and n*e0*(1 + a(m-m0) + m0*b) are exact floats, so they must be equal
    bit for bit."""
    h = SimConfig(n=8, m=0.25, m0=0.125, a=2.0, b=3.0, e0=0.5)
    nodes = deploy(h, random.Random(5))
    closed = h.n * h.e0 * (1.0 + h.a * (h.m - h.m0) + h.m0 * h.b)
    assert sum(nodes.energy.tolist()) == closed == 6.5


def test_radio_params_frozen_defaults():
    radio = SimConfig()
    assert radio.e_elec == 5e-9
    assert radio.eps_fs == 10e-12
    assert radio.eps_mp == 0.0013e-12
    assert radio.e_da == 5e-9
    assert radio.d0_override is None
