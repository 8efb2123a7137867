"""Engine: per-round accounting, death semantics, lifecycle landmarks,
and the hand-evaluated energy oracles.

The two-node example is fully hand-computed: member at 20 m from its head
pays 2.0e-5 + 4000*10e-12*400 = 3.6e-5 J; the head at 30 m from the base
station pays 2.0e-5 (rx) + 4.0e-5 (fusing two signals) + 5.6e-5 (tx)
= 1.16e-4 J.  Those numbers predate the engine and are frozen.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wsnsim import engine
from wsnsim.engine import initial_state, simulate_round, transmission_costs
from wsnsim.model import (
    HeterogeneityParams,
    Node,
    NodeTier,
    ProtocolKind,
    RadioParams,
    SimConfig,
)
from wsnsim.protocols import Cluster, ClusterAssignment
from wsnsim.radio import aggregation_energy, rx_energy, tx_energy


def make_node(node_id, x, y, bs=(50.0, 50.0), tier=NodeTier.NORMAL, energy=1.0):
    return Node(
        id=node_id,
        x=x,
        y=y,
        tier=tier,
        initial_energy=energy,
        residual_energy=energy,
        distance_to_bs=math.hypot(x - bs[0], y - bs[1]),
    )


def homogeneous(e0=0.5):
    return HeterogeneityParams(m=0.0, m0=0.0, a=0.0, b=0.0, e0=e0)


def costs_for(assignment, nodes_by_id, radio, bits):
    """transmission_costs priced with the transmit rule and base-station
    table that initial_state builds for a run over these nodes."""
    config = SimConfig(n=len(nodes_by_id), radio=radio, packet_bits=bits)
    state = initial_state(config, list(nodes_by_id.values()))
    return transmission_costs(
        assignment, state.nodes_by_id, radio, bits, state.tx, state.bs_cost
    )


class TestTransmissionCosts:
    def test_two_node_cluster_hand_values(self):
        head = make_node(0, 50.0, 80.0)    # 30 m from the base station
        member = make_node(1, 50.0, 100.0)  # 20 m from the head
        nodes_by_id = {0: head, 1: member}
        assignment = ClusterAssignment(clusters=[Cluster(0, [1])], unclustered=[])
        tr = costs_for(assignment, nodes_by_id, RadioParams(), 4000)
        assert tr.costs[1] == pytest.approx(3.6e-5, abs=1e-12)
        assert tr.costs[0] == pytest.approx(1.16e-4, abs=1e-12)
        assert tr.packets == 1
        assert tr.member_count == 1
        assert tr.member_distance_sum == pytest.approx(20.0, rel=1e-12)
        assert tr.head_distance_sum == pytest.approx(30.0, rel=1e-12)

    def test_zero_head_round_all_direct(self):
        nodes = {i: make_node(i, 50.0 + 10.0 * i, 50.0) for i in range(3)}
        assignment = ClusterAssignment(clusters=[], unclustered=[0, 1, 2])
        radio = RadioParams()
        tr = costs_for(assignment, nodes, radio, 4000)
        assert tr.packets == 3
        for i in range(3):
            assert tr.costs[i] == tx_energy(radio, 4000, nodes[i].distance_to_bs)

    def test_head_with_no_members_still_reports(self):
        head = make_node(0, 50.0, 60.0)
        assignment = ClusterAssignment(clusters=[Cluster(0, [])], unclustered=[])
        radio = RadioParams()
        tr = costs_for(assignment, {0: head}, radio, 4000)
        # aggregation still covers the head's own signal
        expected = aggregation_energy(radio, 4000, 1) + tx_energy(radio, 4000, 10.0)
        assert tr.costs[0] == pytest.approx(expected, rel=1e-12)
        assert tr.packets == 1

    @given(
        hx=st.floats(min_value=0.0, max_value=100.0),
        hy=st.floats(min_value=0.0, max_value=100.0),
        mx=st.floats(min_value=0.0, max_value=100.0),
        my=st.floats(min_value=0.0, max_value=100.0),
        bits=st.integers(min_value=1, max_value=10**5),
    )
    @settings(max_examples=120, deadline=None)
    def test_inline_tx_math_matches_radio_module_bitwise(self, hx, hy, mx, my, bits):
        """Cost composition: a member pays exactly tx_energy over its link, and
        a head pays rx per member plus aggregation plus tx_energy to the base
        station, summed in that order, float for float."""
        radio = RadioParams()
        head = make_node(0, hx, hy)
        member = make_node(1, mx, my)
        nodes_by_id = {0: head, 1: member}
        assignment = ClusterAssignment(clusters=[Cluster(0, [1])], unclustered=[])
        tr = costs_for(assignment, nodes_by_id, radio, bits)
        d = math.hypot(mx - hx, my - hy)
        assert tr.costs[1] == tx_energy(radio, bits, d)
        assert tr.costs[0] == (
            1 * rx_energy(radio, bits)
            + aggregation_energy(radio, bits, 2)
            + tx_energy(radio, bits, head.distance_to_bs)
        )

    @given(d_bs=st.floats(min_value=0.0, max_value=200.0))
    @settings(max_examples=60, deadline=None)
    def test_unclustered_cost_matches_radio_module_bitwise(self, d_bs):
        """Cost composition: an unclustered node pays exactly one tx_energy
        to the base station, float for float."""
        radio = RadioParams()
        node = make_node(0, 50.0 + d_bs, 50.0)
        assignment = ClusterAssignment(clusters=[], unclustered=[0])
        tr = costs_for(assignment, {0: node}, radio, 4000)
        assert tr.costs[0] == tx_energy(radio, 4000, node.distance_to_bs)


def rigged_state(nodes, config, sole_head_id=None):
    """Engine state where only `sole_head_id` can be elected (or nobody,
    when None); pair with round r=9 under LEACH so the survivor is certain."""
    state = initial_state(config, nodes)
    for node in nodes:
        if node.id != sole_head_id:
            state.eligibility.eligible_from[node.id] = 10**9
    return state


class TestSimulateRound:
    def test_forced_two_node_round(self):
        config = SimConfig(n=2, protocol=ProtocolKind.LEACH, hetero=homogeneous(1.0))
        head = make_node(0, 50.0, 80.0)
        member = make_node(1, 50.0, 100.0)
        state = rigged_state([head, member], config, sole_head_id=0)
        metrics = simulate_round(state, 9, ProtocolKind.LEACH, config, random.Random(0))
        assert metrics.round == 10
        assert metrics.head_count == 1
        assert metrics.packets_to_bs_round == 1
        assert metrics.alive_total == 2
        assert head.residual_energy == pytest.approx(1.0 - 1.16e-4, abs=1e-12)
        assert member.residual_energy == pytest.approx(1.0 - 3.6e-5, abs=1e-12)
        assert metrics.residual_energy_j == pytest.approx(2.0 - 1.52e-4, abs=1e-11)
        assert state.energy_dissipated == pytest.approx(1.52e-4, abs=1e-12)

    def test_zero_head_round_direct_to_bs(self):
        config = SimConfig(n=4, protocol=ProtocolKind.SEP, hetero=homogeneous(1.0))
        nodes = [make_node(i, 50.0, 55.0 + 5.0 * i) for i in range(4)]
        state = rigged_state(nodes, config, sole_head_id=None)
        before = sum(n.residual_energy for n in nodes)
        metrics = simulate_round(state, 0, ProtocolKind.SEP, config, random.Random(0))
        assert metrics.head_count == 0
        assert metrics.packets_to_bs_round == 4
        expected_cost = sum(
            tx_energy(config.radio, 4000, n.distance_to_bs) for n in nodes
        )
        assert before - metrics.residual_energy_j == pytest.approx(expected_cost, abs=1e-12)

    def test_insufficient_energy_clamps_and_kills(self):
        config = SimConfig(n=3, protocol=ProtocolKind.LEACH, hetero=homogeneous(1.0))
        head = make_node(0, 50.0, 80.0)
        poor = make_node(1, 50.0, 100.0, energy=1e-9)  # cannot afford its tx
        rich = make_node(2, 60.0, 80.0)
        state = rigged_state([head, poor, rich], config, sole_head_id=0)
        metrics = simulate_round(state, 9, ProtocolKind.LEACH, config, random.Random(0))
        assert not poor.alive
        assert poor.residual_energy == 0.0
        assert metrics.alive_total == 2
        assert metrics.packets_to_bs_round == 1  # the head still delivered
        # the ledger charges the poor node only what it actually had
        radio = config.radio
        head_cost = (
            2 * rx_energy(radio, 4000)
            + aggregation_energy(radio, 4000, 3)
            + tx_energy(radio, 4000, head.distance_to_bs)
        )
        rich_cost = tx_energy(radio, 4000, math.hypot(rich.x - head.x, rich.y - head.y))
        assert state.energy_dissipated == pytest.approx(
            head_cost + rich_cost + 1e-9, abs=1e-15
        )

    def test_dead_nodes_stay_dead_and_unchanged(self):
        config = SimConfig(n=3, protocol=ProtocolKind.LEACH, hetero=homogeneous(1.0))
        head = make_node(0, 50.0, 80.0)
        poor = make_node(1, 50.0, 100.0, energy=1e-9)
        rich = make_node(2, 60.0, 80.0)
        state = rigged_state([head, poor, rich], config, sole_head_id=0)
        simulate_round(state, 9, ProtocolKind.LEACH, config, random.Random(0))
        assert not poor.alive
        # next round: nobody eligible -> direct-to-bs fallback for survivors only
        metrics = simulate_round(state, 10, ProtocolKind.LEACH, config, random.Random(1))
        assert metrics.packets_to_bs_round == 2
        assert poor.residual_energy == 0.0
        assert metrics.alive_total == 2


class TestRun:
    def test_deterministic_repeat(self, small_config):
        a = engine.run(small_config)
        b = engine.run(small_config)
        assert a.series == b.series
        assert a.summary == b.summary
        assert a.d_avg == b.d_avg

    def test_energy_conservation(self):
        config = SimConfig(n=30, max_rounds=2000, seed=7)
        result = engine.run(config)
        final_residual = result.series[-1].residual_energy_j
        assert result.initial_energy_j - final_residual == pytest.approx(
            result.energy_dissipated_j, abs=1e-9
        )

    def test_series_invariants(self):
        config = SimConfig(
            n=16, max_rounds=3000, seed=5, hetero=HeterogeneityParams(0.2, 0.1, 2.0, 3.0, 0.02)
        )
        result = engine.run(config)
        series = result.series
        assert [m.round for m in series] == list(range(1, len(series) + 1))
        for prev, cur in zip(series, series[1:]):
            assert cur.alive_total <= prev.alive_total
            assert cur.packets_to_bs_cum >= prev.packets_to_bs_cum
            assert cur.residual_energy_j <= prev.residual_energy_j + 1e-12
        for m in series:
            assert m.alive_total == m.alive_normal + m.alive_advanced + m.alive_super
            assert m.packets_to_bs_round >= 1
            if m.head_count > 0:
                assert m.packets_to_bs_round == m.head_count

    def test_lifecycle_ordering(self):
        # small budget so the network dies completely within the cap
        config = SimConfig(
            n=12, max_rounds=4000, seed=21, hetero=HeterogeneityParams(0.2, 0.1, 2.0, 3.0, 0.02)
        )
        result = engine.run(config)
        s = result.summary
        assert s.fnd_round is not None and s.hnd_round is not None and s.lnd_round is not None
        assert s.fnd_round <= s.hnd_round <= s.lnd_round
        assert s.lnd_round == result.series[-1].round
        assert result.series[-1].alive_total == 0
        assert s.rounds_simulated == len(result.series)
        assert s.total_packets == result.series[-1].packets_to_bs_cum

    def test_single_node_immediate_death(self):
        config = SimConfig(n=1, hetero=homogeneous(e0=1e-9), max_rounds=50)
        result = engine.run(config)
        assert result.summary.fnd_round == 1
        assert result.summary.hnd_round == 1
        assert result.summary.lnd_round == 1
        assert result.summary.rounds_simulated == 1
        assert result.summary.total_packets == 1

    def test_events_absent_when_nothing_dies(self):
        config = SimConfig(n=10, max_rounds=30, seed=2)
        result = engine.run(config)
        assert result.summary.fnd_round is None
        assert result.summary.hnd_round is None
        assert result.summary.lnd_round is None
        assert result.summary.rounds_simulated == 30

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_all_protocols_complete(self, protocol):
        config = SimConfig(n=20, max_rounds=150, seed=9, protocol=protocol)
        result = engine.run(config)
        assert len(result.series) == 150
        assert result.summary.total_packets > 0

    def test_d_avg_frozen_at_deployment(self):
        config = SimConfig(
            n=10, max_rounds=800, seed=31, hetero=HeterogeneityParams(0.2, 0.1, 2.0, 3.0, 0.05)
        )
        result = engine.run(config)
        # deaths occurred, yet d_avg still reflects the full deployment
        nodes = engine.deploy(config, random.Random(config.seed))
        full_mean = sum(n.distance_to_bs for n in nodes) / len(nodes)
        assert result.summary.fnd_round is not None
        assert result.d_avg == full_mean


class TestSingleClusterClosedForm:
    def test_forced_single_cluster_matches_hand_ledger(self):
        """One head, n-1 members: engine total equals the closed-form
        head + member ledger evaluated from the raw constants."""
        config = SimConfig(n=6, protocol=ProtocolKind.LEACH, hetero=homogeneous(1.0))
        nodes = [
            make_node(0, 50.0, 70.0),
            make_node(1, 30.0, 40.0),
            make_node(2, 80.0, 60.0),
            make_node(3, 45.0, 15.0),
            make_node(4, 95.0, 95.0),
            make_node(5, 10.0, 80.0),
        ]
        state = rigged_state(nodes, config, sole_head_id=0)
        before = sum(n.residual_energy for n in nodes)
        metrics = simulate_round(state, 9, ProtocolKind.LEACH, config, random.Random(3))
        assert metrics.head_count == 1

        bits, e_elec, eps_fs, eps_mp, e_da = 4000, 5e-9, 10e-12, 0.0013e-12, 5e-9
        d0 = math.sqrt(eps_fs / eps_mp)

        def tx_hand(d):
            if d < d0:
                return bits * e_elec + bits * eps_fs * d**2
            return bits * e_elec + bits * eps_mp * d**4

        head, members = nodes[0], nodes[1:]
        e_ch = (
            len(members) * bits * e_elec
            + (len(members) + 1) * bits * e_da
            + tx_hand(head.distance_to_bs)
        )
        e_nch = sum(tx_hand(math.hypot(m.x - head.x, m.y - head.y)) for m in members)
        assert before - metrics.residual_energy_j == pytest.approx(e_ch + e_nch, abs=1e-9)
