"""Election math: weighted tier probabilities, rotating thresholds, the
distance-scaled variant, and eligibility bookkeeping.

Monte Carlo expectations (mean node-to-centre distance) were produced with a
plain-stdlib estimator before the module existed and are frozen here.
"""

import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from wsnsim.election import (
    EligibilityState,
    average_distance,
    dbcp_threshold,
    epoch_length,
    sep_threshold,
    weighted_probabilities,
)
from wsnsim.model import HeterogeneityParams, Node, NodeTier


def hetero(m=0.2, m0=0.1, a=2.0, b=3.0, e0=0.5):
    return HeterogeneityParams(m=m, m0=m0, a=a, b=b, e0=e0)


def make_node(node_id=0, tier=NodeTier.NORMAL, d=30.0):
    return Node(
        id=node_id,
        x=0.0,
        y=0.0,
        tier=tier,
        initial_energy=0.5,
        residual_energy=0.5,
        distance_to_bs=d,
    )


valid_hetero = st.builds(
    lambda m, frac, a, extra: hetero(m=m, m0=m * frac, a=a, b=a + extra),
    m=st.floats(min_value=0.0, max_value=1.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
    a=st.floats(min_value=0.0, max_value=4.0),
    extra=st.floats(min_value=0.0, max_value=4.0),
)


class TestWeightedProbabilities:
    def test_three_tier_defaults(self):
        probs = weighted_probabilities(0.1, hetero())
        assert probs.p_normal == pytest.approx(0.066667, abs=1e-6)
        assert probs.p_advanced == pytest.approx(0.2, abs=1e-6)
        assert probs.p_super == pytest.approx(0.266667, abs=1e-6)

    def test_homogeneous_reduction(self):
        probs = weighted_probabilities(0.1, hetero(m=0.0, m0=0.0, a=0.0, b=0.0))
        assert probs.p_normal == probs.p_advanced == probs.p_super == 0.1

    def test_two_level_reduction(self):
        # m0 = 0 recovers the classic two-tier split
        probs = weighted_probabilities(0.1, hetero(m=0.2, m0=0.0, a=1.0, b=1.0))
        assert probs.p_normal == pytest.approx(0.083333, abs=1e-5)
        assert probs.p_advanced == pytest.approx(0.166667, abs=1e-5)

    def test_multiplier_relations_exact(self):
        h = hetero()
        probs = weighted_probabilities(0.1, h)
        assert probs.p_advanced == probs.p_normal * (1.0 + h.a)
        assert probs.p_super == probs.p_normal * (1.0 + h.b)

    def test_pathological_multipliers_rejected(self):
        with pytest.raises(ValueError, match="p_super"):
            weighted_probabilities(0.3, hetero(m=0.2, m0=0.1, a=0.0, b=9.0))

    @given(p_opt=st.floats(min_value=0.01, max_value=0.3), h=valid_hetero)
    def test_population_average_preserved(self, p_opt, h):
        try:
            probs = weighted_probabilities(p_opt, h)
        except ValueError:
            assume(False)
        mixture = (
            (1.0 - h.m) * probs.p_normal
            + (h.m - h.m0) * probs.p_advanced
            + h.m0 * probs.p_super
        )
        assert mixture == pytest.approx(p_opt, abs=1e-12)

    def test_for_tier_dispatch(self):
        probs = weighted_probabilities(0.1, hetero())
        assert probs.for_tier(NodeTier.NORMAL) == probs.p_normal
        assert probs.for_tier(NodeTier.ADVANCED) == probs.p_advanced
        assert probs.for_tier(NodeTier.SUPER) == probs.p_super


class TestEpochLength:
    def test_integral_rate(self):
        assert epoch_length(0.1) == 10
        assert epoch_length(0.5) == 2

    def test_fractional_rate_rounds_up(self):
        assert epoch_length(0.3) == 4  # 1/0.3 = 3.33..

    def test_float_noise_snapped(self):
        # 1/(1/3) = 3.0000000000000004 in float; the epoch must still be 3
        assert epoch_length(1.0 / 3.0) == 3
        assert epoch_length(0.1 / 1.5) == 15  # default-config normal tier


class TestSepThreshold:
    def test_epoch_start(self):
        assert sep_threshold(0.1, 0, True) == pytest.approx(0.1, rel=1e-12)

    def test_epoch_end_exactly_one(self):
        assert sep_threshold(0.1, 9, True) == 1.0

    def test_epoch_end_exact_for_non_dyadic_rate(self):
        # the naive p/(1 - p*(r%epoch)) form lands at 0.999..9 here
        assert sep_threshold(1.0 / 3.0, 2, True) == 1.0

    def test_ineligible_is_zero(self):
        assert sep_threshold(0.1, 5, False) == 0.0

    def test_epoch_wraps(self):
        assert sep_threshold(0.1, 10, True) == sep_threshold(0.1, 0, True)
        assert sep_threshold(0.1, 19, True) == 1.0

    def test_fractional_rate_clamped(self):
        # 1/0.3 = 3.33, epoch 4: position 3 overshoots and is clamped
        assert sep_threshold(0.3, 3, True) == 1.0
        assert sep_threshold(0.3, 2, True) == pytest.approx(0.75, rel=1e-12)

    @given(
        p=st.floats(min_value=0.005, max_value=0.95),
        r=st.integers(min_value=0, max_value=10**6),
    )
    def test_bounded(self, p, r):
        t = sep_threshold(p, r, True)
        assert 0.0 <= t <= 1.0
        assert t >= p * 0.999999  # ramp never drops below the base rate

    @given(k=st.integers(min_value=2, max_value=2000), lap=st.integers(min_value=0, max_value=3))
    def test_integral_inverse_rate_certain_at_epoch_end(self, k, lap):
        assert sep_threshold(1.0 / k, k - 1 + lap * k, True) == 1.0


class TestDbcpThreshold:
    def test_halfway_node_scaled(self):
        assert dbcp_threshold(0.1, 0, True, 20.0, 40.0) == pytest.approx(0.05, rel=1e-12)

    def test_at_average_unscaled(self):
        assert dbcp_threshold(0.1, 0, True, 40.0, 40.0) == 0.1

    def test_at_base_station_unscaled(self):
        assert dbcp_threshold(0.1, 0, True, 0.0, 40.0) == 0.1

    def test_beyond_average_equals_sep(self):
        for r in range(12):
            assert dbcp_threshold(0.1, r, True, 55.0, 40.0) == sep_threshold(0.1, r, True)

    @given(
        p=st.floats(min_value=0.01, max_value=0.9),
        r=st.integers(min_value=0, max_value=1000),
        d_avg=st.floats(min_value=1.0, max_value=100.0),
        ratio=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_never_exceeds_sep(self, p, r, d_avg, ratio):
        d_i = ratio * d_avg
        assert dbcp_threshold(p, r, True, d_i, d_avg) <= sep_threshold(p, r, True)

    @given(
        p=st.floats(min_value=0.01, max_value=0.9),
        r=st.integers(min_value=0, max_value=1000),
        d_avg=st.floats(min_value=1.0, max_value=100.0),
        ratio=st.floats(min_value=1e-9, max_value=0.999999),
    )
    def test_strictly_below_sep_in_near_region(self, p, r, d_avg, ratio):
        base = sep_threshold(p, r, True)
        assert dbcp_threshold(p, r, True, ratio * d_avg, d_avg) < base

    @given(
        p=st.floats(min_value=0.01, max_value=0.9),
        d_avg=st.floats(min_value=1.0, max_value=100.0),
        r1=st.floats(min_value=0.001, max_value=0.998),
        step=st.floats(min_value=0.001, max_value=0.5),
    )
    def test_strictly_decreasing_in_distance_near_region(self, p, d_avg, r1, step):
        assume(r1 + step < 1.0)
        near = dbcp_threshold(p, 0, True, r1 * d_avg, d_avg)
        far = dbcp_threshold(p, 0, True, (r1 + step) * d_avg, d_avg)
        assert far < near

    def test_ineligible_is_zero(self):
        assert dbcp_threshold(0.1, 3, False, 10.0, 40.0) == 0.0


class TestEligibilityState:
    def test_fresh_state_all_eligible(self):
        state = EligibilityState({tier: 10 for tier in NodeTier})
        node = make_node()
        assert state.is_eligible(node, 0)
        assert state.is_eligible(node, 999)

    def test_elected_node_blocked_until_epoch_wraps(self):
        state = EligibilityState({tier: 10 for tier in NodeTier})
        node = make_node()
        state.mark_elected(node, 3)
        for r in range(3, 10):
            assert not state.is_eligible(node, r)
        assert state.is_eligible(node, 10)

    def test_election_in_later_epoch(self):
        state = EligibilityState({tier: 5 for tier in NodeTier})
        node = make_node()
        state.mark_elected(node, 12)  # epoch [10, 15)
        assert not state.is_eligible(node, 14)
        assert state.is_eligible(node, 15)

    def test_per_tier_epochs(self):
        state = EligibilityState({NodeTier.NORMAL: 15, NodeTier.ADVANCED: 5, NodeTier.SUPER: 4})
        normal = make_node(0, NodeTier.NORMAL)
        adv = make_node(1, NodeTier.ADVANCED)
        state.mark_elected(normal, 0)
        state.mark_elected(adv, 0)
        assert state.is_eligible(adv, 5)
        assert not state.is_eligible(normal, 5)
        assert state.is_eligible(normal, 15)

    def test_reset(self):
        state = EligibilityState({tier: 10 for tier in NodeTier})
        node = make_node()
        state.mark_elected(node, 0)
        state.reset()
        assert state.is_eligible(node, 1)


class TestAverageDistance:
    def test_two_point_mean(self):
        nodes = [make_node(0, d=10.0), make_node(1, d=30.0)]
        assert average_distance(nodes) == 20.0

    def test_single_node(self):
        assert average_distance([make_node(d=17.5)]) == 17.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_distance([])

    def test_uniform_square_matches_frozen_monte_carlo(self):
        """Frozen oracle: 1e6 stdlib draws on a 100x100 field put the mean
        distance to the centre at 38.265; a 20k-node sample must agree."""
        rng = random.Random(17)
        nodes = [
            make_node(i, d=math.hypot(rng.uniform(0, 100) - 50, rng.uniform(0, 100) - 50))
            for i in range(20000)
        ]
        assert average_distance(nodes) == pytest.approx(38.26, abs=0.4)

