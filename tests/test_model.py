"""Domain model: parameter validation, tier counting, and deployment."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from wsnsim.model import (
    HeterogeneityParams,
    NodeTier,
    RadioParams,
    SimConfig,
    deploy,
    tier_counts,
)


def hetero(m=0.2, m0=0.1, a=2.0, b=3.0, e0=0.5):
    return HeterogeneityParams(m=m, m0=m0, a=a, b=b, e0=e0)


class TestHeterogeneityParams:
    def test_m0_above_m_rejected(self):
        with pytest.raises(ValueError, match="m0"):
            hetero(m=0.2, m0=0.3)

    def test_m_above_one_rejected(self):
        with pytest.raises(ValueError):
            hetero(m=1.2, m0=0.1)

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            hetero(a=-0.5, b=3.0)

    def test_b_below_a_rejected(self):
        with pytest.raises(ValueError, match="b"):
            hetero(a=3.0, b=2.0)

    def test_nonpositive_e0_rejected(self):
        with pytest.raises(ValueError, match="e0"):
            hetero(e0=0.0)

    def test_zero_multipliers_allowed(self):
        h = hetero(a=0.0, b=0.0)
        assert h.a == 0.0 and h.b == 0.0


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
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestTierCounts:
    def test_default_split(self):
        assert tier_counts(100, hetero(m=0.2, m0=0.1)) == (80, 10, 10)

    def test_homogeneous(self):
        assert tier_counts(100, hetero(m=0.0, m0=0.0)) == (100, 0, 0)

    def test_all_super(self):
        assert tier_counts(100, hetero(m=1.0, m0=1.0)) == (0, 0, 100)

    def test_round_half_up(self):
        # 10*0.25 = 2.5 -> 3 advanced-or-better; 10*0.05 = 0.5 -> 1 super
        assert tier_counts(10, hetero(m=0.25, m0=0.05)) == (7, 2, 1)

    @given(
        n=st.integers(min_value=1, max_value=500),
        m=st.floats(min_value=0.0, max_value=1.0),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_partition(self, n, m, frac):
        h = hetero(m=m, m0=m * frac)
        n_normal, n_advanced, n_super = tier_counts(n, h)
        assert n_normal >= 0 and n_advanced >= 0 and n_super >= 0
        assert n_normal + n_advanced + n_super == n


class TestDeploy:
    def test_deterministic(self):
        config = SimConfig(n=50, seed=9)
        a = deploy(config, random.Random(config.seed))
        b = deploy(config, random.Random(config.seed))
        assert a == b

    def test_positions_inside_field(self):
        config = SimConfig(n=200, field_width=60.0, field_height=40.0, seed=2)
        for node in deploy(config, random.Random(config.seed)):
            assert 0.0 <= node.x <= 60.0
            assert 0.0 <= node.y <= 40.0

    def test_tier_blocks_ordered_by_id(self):
        config = SimConfig(n=100, seed=4)
        nodes = deploy(config, random.Random(config.seed))
        tiers = [n.tier for n in nodes]
        assert tiers[:10] == [NodeTier.SUPER] * 10
        assert tiers[10:20] == [NodeTier.ADVANCED] * 10
        assert tiers[20:] == [NodeTier.NORMAL] * 80

    def test_initial_energies_by_tier(self):
        config = SimConfig(n=100, seed=4)
        nodes = deploy(config, random.Random(config.seed))
        by_tier = {NodeTier.SUPER: 2.0, NodeTier.ADVANCED: 1.5, NodeTier.NORMAL: 0.5}
        for node in nodes:
            assert node.initial_energy == by_tier[node.tier]
            assert node.residual_energy == node.initial_energy
            assert node.alive

    def test_total_energy_default_config(self):
        # 80*0.5 + 10*1.5 + 10*2.0
        config = SimConfig()
        nodes = deploy(config, random.Random(1))
        assert sum(n.initial_energy for n in nodes) == 75.0

    def test_single_normal_node(self):
        config = SimConfig(n=1, hetero=hetero(m=0.0, m0=0.0))
        (node,) = deploy(config, random.Random(0))
        assert node.tier is NodeTier.NORMAL
        assert node.initial_energy == 0.5

    def test_distance_to_bs_precomputed(self):
        config = SimConfig(n=30, seed=7)
        for node in deploy(config, random.Random(config.seed)):
            assert node.distance_to_bs == pytest.approx(
                math.hypot(node.x - 50.0, node.y - 50.0), rel=1e-12
            )

    @given(
        n=st.integers(min_value=1, max_value=120),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_tier_population_matches_counts(self, n, seed):
        config = SimConfig(n=n, seed=seed)
        nodes = deploy(config, random.Random(seed))
        n_normal, n_advanced, n_super = tier_counts(n, config.hetero)
        assert sum(1 for x in nodes if x.tier is NodeTier.NORMAL) == n_normal
        assert sum(1 for x in nodes if x.tier is NodeTier.ADVANCED) == n_advanced
        assert sum(1 for x in nodes if x.tier is NodeTier.SUPER) == n_super


def test_closed_form_total_matches_deployed_sum_binary_fractions():
    """With m, m0 and the multipliers on binary fractions both the per-node
    sum and n*e0*(1 + a(m-m0) + m0*b) are exact floats, so they must be equal
    bit for bit."""
    h = hetero(m=0.25, m0=0.125, a=2.0, b=3.0, e0=0.5)
    config = SimConfig(n=8, hetero=h)
    nodes = deploy(config, random.Random(5))
    closed = config.n * h.e0 * (1.0 + h.a * (h.m - h.m0) + h.m0 * h.b)
    assert sum(n.initial_energy for n in nodes) == closed == 6.5


def test_radio_params_frozen_defaults():
    radio = RadioParams()
    assert radio.e_elec == 5e-9
    assert radio.eps_fs == 10e-12
    assert radio.eps_mp == 0.0013e-12
    assert radio.e_da == 5e-9
    assert radio.d0_override is None
