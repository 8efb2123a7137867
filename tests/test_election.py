"""Election math: weighted tier probabilities, rotating thresholds, the
distance-scaled variant, and eligibility bookkeeping.

Monte Carlo expectations (mean node-to-centre distance) were produced with a
plain-stdlib estimator before the module existed and are frozen here.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from wsnsim.engine import initial_state
from wsnsim.model import NodeTier, ProtocolKind, SimConfig, deploy, weighted_probabilities
from wsnsim.protocols import distance_factor, elect_heads, rotation, sep_threshold, threshold


def dbcp_threshold(p, r, eligible, d_i, d_avg):
    """The election threshold rule for one node of rate p, with the dbcp
    distance factor."""
    return threshold([sep_threshold(rotation(p), r)], 0, distance_factor(d_i, d_avg), eligible)


def _config_or_none(**fields):
    """The SimConfig of `fields`, or None if SimConfig rejects them."""
    try:
        return SimConfig(**fields)
    except ValueError:
        return None


valid_config = st.builds(
    lambda p_opt, m, frac, a, extra: _config_or_none(
        p_opt=p_opt, m=m, m0=m * frac, a=a, b=a + extra
    ),
    p_opt=st.floats(min_value=0.01, max_value=0.3),
    m=st.floats(min_value=0.0, max_value=1.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
    a=st.floats(min_value=0.0, max_value=4.0),
    extra=st.floats(min_value=0.0, max_value=4.0),
)


class TestWeightedProbabilities:
    def test_three_tier_defaults(self):
        probs = weighted_probabilities(SimConfig())
        assert probs.p_normal == pytest.approx(0.066667, abs=1e-6)
        assert probs.p_advanced == pytest.approx(0.2, abs=1e-6)
        assert probs.p_super == pytest.approx(0.266667, abs=1e-6)

    def test_homogeneous_reduction(self):
        probs = weighted_probabilities(SimConfig(m=0.0, m0=0.0, a=0.0, b=0.0))
        assert probs.p_normal == probs.p_advanced == probs.p_super == 0.1

    def test_two_level_reduction(self):
        # m0 = 0 recovers the classic two-tier split
        probs = weighted_probabilities(SimConfig(m=0.2, m0=0.0, a=1.0, b=1.0))
        assert probs.p_normal == pytest.approx(0.083333, abs=1e-5)
        assert probs.p_advanced == pytest.approx(0.166667, abs=1e-5)

    def test_multiplier_relations_exact(self):
        h = SimConfig()
        probs = weighted_probabilities(h)
        assert probs.p_advanced == probs.p_normal * (1.0 + h.a)
        assert probs.p_super == probs.p_normal * (1.0 + h.b)

    def test_pathological_multipliers_rejected(self):
        with pytest.raises(ValueError, match="p_super"):
            weighted_probabilities(SimConfig(p_opt=0.3, m=0.2, m0=0.1, a=0.0, b=9.0))

    @pytest.mark.parametrize(
        "fields, rate",
        [
            (dict(p_opt=5e-324), "p_normal=4.94066e-324"),  # 1/p overflows
            (dict(p_opt=1e-300, a=1e300, b=1e300, m=0.6, m0=0.5), "p_normal=0"),
        ],
        ids=["inverse_overflows", "rate_underflows"],
    )
    def test_rate_without_finite_epoch_rejected(self, fields, rate):
        with pytest.raises(ValueError, match=f"{rate} has no finite epoch"):
            weighted_probabilities(SimConfig(**fields))

    @given(h=valid_config)
    def test_population_average_preserved(self, h):
        assume(h is not None)
        probs = weighted_probabilities(h)
        mixture = (
            (1.0 - h.m) * probs.p_normal
            + (h.m - h.m0) * probs.p_advanced
            + h.m0 * probs.p_super
        )
        assert mixture == pytest.approx(h.p_opt, abs=1e-12)

    def test_fields_in_tier_order(self):
        # the tuple is indexed by tier number, so its fields follow NodeTier
        probs = weighted_probabilities(SimConfig())
        assert probs._fields == tuple(f"p_{tier.value}" for tier in NodeTier)


class TestEpochLength:
    def test_integral_rate(self):
        assert rotation(0.1)[1] == 10
        assert rotation(0.5)[1] == 2

    def test_fractional_rate_rounds_up(self):
        assert rotation(0.3)[1] == 4  # 1/0.3 = 3.33..

    def test_float_noise_snapped(self):
        # 1/(1/3) = 3.0000000000000004 in float; the epoch must still be 3
        assert rotation(1.0 / 3.0)[1] == 3
        assert rotation(0.1 / 1.5)[1] == 15  # default-config normal tier


class TestSepThreshold:
    def test_epoch_start(self):
        assert sep_threshold(rotation(0.1), 0) == pytest.approx(0.1, rel=1e-12)

    def test_epoch_end_exactly_one(self):
        assert sep_threshold(rotation(0.1), 9) == 1.0

    def test_epoch_end_exact_for_non_dyadic_rate(self):
        # the naive p/(1 - p*(r%epoch)) form lands at 0.999..9 here
        assert sep_threshold(rotation(1.0 / 3.0), 2) == 1.0

    def test_ineligible_is_zero(self):
        assert threshold([sep_threshold(rotation(0.1), 5)], 0, 1.0, False) == 0.0

    def test_epoch_wraps(self):
        assert sep_threshold(rotation(0.1), 10) == sep_threshold(rotation(0.1), 0)
        assert sep_threshold(rotation(0.1), 19) == 1.0

    def test_fractional_rate_clamped(self):
        # 1/0.3 = 3.33, epoch 4: position 3 overshoots and is clamped
        assert sep_threshold(rotation(0.3), 3) == 1.0
        assert sep_threshold(rotation(0.3), 2) == pytest.approx(0.75, rel=1e-12)

    @given(
        p=st.floats(min_value=0.005, max_value=0.95),
        r=st.integers(min_value=0, max_value=10**6),
    )
    def test_bounded(self, p, r):
        t = sep_threshold(rotation(p), r)
        assert 0.0 <= t <= 1.0
        assert t >= p * 0.999999  # ramp never drops below the base rate

    @given(k=st.integers(min_value=2, max_value=2000), lap=st.integers(min_value=0, max_value=3))
    def test_integral_inverse_rate_certain_at_epoch_end(self, k, lap):
        assert sep_threshold(rotation(1.0 / k), k - 1 + lap * k) == 1.0


class TestDbcpThreshold:
    def test_halfway_node_scaled(self):
        assert dbcp_threshold(0.1, 0, True, 20.0, 40.0) == pytest.approx(0.05, rel=1e-12)

    def test_at_average_unscaled(self):
        assert dbcp_threshold(0.1, 0, True, 40.0, 40.0) == 0.1

    def test_at_base_station_unscaled(self):
        assert dbcp_threshold(0.1, 0, True, 0.0, 40.0) == 0.1

    def test_beyond_average_equals_sep(self):
        for r in range(12):
            assert dbcp_threshold(0.1, r, True, 55.0, 40.0) == sep_threshold(rotation(0.1), r)

    @given(
        p=st.floats(min_value=0.01, max_value=0.9),
        r=st.integers(min_value=0, max_value=1000),
        d_avg=st.floats(min_value=1.0, max_value=100.0),
        ratio=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_never_exceeds_sep(self, p, r, d_avg, ratio):
        d_i = ratio * d_avg
        assert dbcp_threshold(p, r, True, d_i, d_avg) <= sep_threshold(rotation(p), r)

    @given(
        p=st.floats(min_value=0.01, max_value=0.9),
        r=st.integers(min_value=0, max_value=1000),
        d_avg=st.floats(min_value=1.0, max_value=100.0),
        ratio=st.floats(min_value=1e-9, max_value=0.999999),
    )
    def test_strictly_below_sep_in_near_region(self, p, r, d_avg, ratio):
        base = sep_threshold(rotation(p), r)
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


# rates whose inverse is an integer, and rates within a few 1e-9 of one,
# where rotation snaps 1/p to the integer or leaves it
exact_rates = st.sampled_from([0.1, 0.2, 0.25, 1.0 / 3.0, 0.5, 1.0 / 7.0, 0.05, 0.01])
near_snap = st.builds(
    lambda k, rel: 1.0 / (k * (1.0 + rel)),
    st.integers(min_value=2, max_value=10_000),
    st.floats(min_value=-3e-9, max_value=3e-9),
)
any_rate = st.floats(min_value=1e-300, max_value=1.0, exclude_max=True)


def reference_pair(p):
    """1/p, snapped to the nearest integer when within 1e-9 of it
    (relative), and its ceiling, written out."""
    inv = 1.0 / p
    k = round(inv)
    if k >= 1 and abs(inv - k) <= 1e-9 * k:
        inv = float(k)
    return inv, math.ceil(inv)


class TestRotationPair:
    @given(p=st.one_of(exact_rates, near_snap, any_rate), r=st.integers(0, 10**7))
    @example(p=0.1, r=9)
    @example(p=1.0 / (10 * (1.0 + 1e-9)), r=10**7 - 1)
    def test_stored_pair_gives_threshold_and_next_epoch(self, p, r):
        """The (1/p, epoch) pair initial_state stores for each tier gives the
        written-out threshold min(1, 1/(1/p - r mod epoch)), and the round a
        head elected in round r may serve again, r - r % epoch + epoch, is the
        start of its next epoch."""
        config = SimConfig(n=1, p_opt=p, protocol=ProtocolKind.LEACH, m=0.0, m0=0.0, a=0.0, b=0.0)
        state = initial_state(config, deploy(config, random.Random(0)))
        inv, epoch = reference_pair(p)
        assert state.rotation == ((inv, epoch),) * len(NodeTier)
        for pair in state.rotation:
            assert sep_threshold(pair, r) == min(1.0, 1.0 / (inv - r % epoch))
            e = pair[1]
            assert r - r % e + e == (r // epoch + 1) * epoch

    @given(config=valid_config, protocol=st.sampled_from(list(ProtocolKind)))
    def test_stored_pairs_follow_each_protocols_rates(self, config, protocol):
        """Under every protocol, initial_state stores the rotation pair of
        each tier's rate: p_opt for every tier under leach, the weighted
        tier rates under sep and dbcp."""
        assume(config is not None)
        config = replace(config, protocol=protocol)
        if protocol is ProtocolKind.LEACH:
            rates = (config.p_opt,) * len(NodeTier)
        else:
            rates = weighted_probabilities(config)
        state = initial_state(config, deploy(config, random.Random(config.seed)))
        assert state.rotation == tuple(map(rotation, rates))


class AlwaysZero:
    """A draw stream whose every draw is 0.0, so elect_heads elects exactly
    the eligible nodes."""

    def take(self, k):
        return np.zeros(k)


def eligibility_state(make_deployment, tiers, protocol=ProtocolKind.LEACH, p_opt=0.1):
    nodes = make_deployment([(0.0, 0.0)] * len(tiers), tiers)
    return initial_state(SimConfig(n=len(tiers), protocol=protocol, p_opt=p_opt), nodes)


def eligible_in(state, r):
    """Ids elected in round r by an all-zero draw, i.e. the eligible ones;
    electing them marks them as elected in round r."""
    return elect_heads(state, state.alive, r, AlwaysZero()).tolist()


class TestEligibilityState:
    def test_fresh_state_all_eligible(self, make_deployment):
        for r in (0, 999):
            state = eligibility_state(make_deployment, [NodeTier.NORMAL])
            assert state.eligible_from.tolist() == [0]
            assert eligible_in(state, r) == [0]

    def test_elected_node_blocked_until_epoch_wraps(self, make_deployment):
        state = eligibility_state(make_deployment, [NodeTier.NORMAL])  # epoch 10
        assert eligible_in(state, 3) == [0]
        for r in range(3, 10):
            assert eligible_in(state, r) == []
        assert eligible_in(state, 10) == [0]

    def test_election_in_later_epoch(self, make_deployment):
        state = eligibility_state(make_deployment, [NodeTier.NORMAL], p_opt=0.2)  # epoch 5
        assert eligible_in(state, 12) == [0]  # epoch [10, 15)
        assert state.eligible_from.tolist() == [15]
        assert eligible_in(state, 14) == []
        assert eligible_in(state, 15) == [0]

    def test_per_tier_epochs(self, make_deployment):
        # sep at the default rates: epochs of 15 (normal), 5 (advanced), 4 (super)
        state = eligibility_state(
            make_deployment, [NodeTier.NORMAL, NodeTier.ADVANCED], protocol=ProtocolKind.SEP
        )
        assert [epoch for _, epoch in state.rotation] == [15, 5, 4]
        assert eligible_in(state, 0) == [0, 1]
        assert eligible_in(state, 5) == [1]
        assert 0 in eligible_in(state, 15)

    def test_reset(self, make_deployment):
        state = eligibility_state(make_deployment, [NodeTier.NORMAL])
        assert eligible_in(state, 0) == [0]
        state.eligible_from[:] = 0  # how criterion 4 clears eligibility between trials
        assert eligible_in(state, 1) == [0]


def d_avg_of(make_deployment, coords):
    """The deployment-average distance to the base station at (50, 50)."""
    return initial_state(SimConfig(n=len(coords)), make_deployment(coords)).d_avg


class TestAverageDistance:
    def test_two_point_mean(self, make_deployment):
        assert d_avg_of(make_deployment, [(60.0, 50.0), (50.0, 80.0)]) == 20.0

    def test_single_node(self, make_deployment):
        assert d_avg_of(make_deployment, [(50.0, 67.5)]) == 17.5

    def test_uniform_square_matches_frozen_monte_carlo(self, make_deployment):
        """Frozen oracle: 1e6 stdlib draws on a 100x100 field put the mean
        distance to the centre at 38.265; a 20k-node sample must agree."""
        rng = random.Random(17)
        coords = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(20000)]
        assert d_avg_of(make_deployment, coords) == pytest.approx(38.26, abs=0.4)
