"""Engine: per-round accounting, death semantics, lifecycle landmarks,
and the hand-evaluated energy oracles.

The two-node example is fully hand-computed: member at 20 m from its head
pays 2.0e-5 + 4000*10e-12*400 = 3.6e-5 J; the head at 30 m from the base
station pays 2.0e-5 (rx) + 4.0e-5 (fusing two signals) + 5.6e-5 (tx)
= 1.16e-4 J.  Those numbers predate the engine and are frozen.
"""

import dataclasses
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wsnsim
from wsnsim import engine
from wsnsim.engine import DRAW_BLOCK, DrawStream, initial_state, simulate_round, transmission_costs
from wsnsim.model import ProtocolKind, SimConfig, deploy
from wsnsim.protocols import squared_distances
from wsnsim.radio import aggregation_energy, rx_energy, tx_energy


def homogeneous(e0=0.5):
    """SimConfig keyword arguments for a single-tier network of e0 J nodes."""
    return dict(m=0.0, m0=0.0, a=0.0, b=0.0, e0=e0)


def ledger_for(nodes, heads, members, head_of, bits=4000):
    """transmission_costs for the given clusters, priced with the
    base-station costs initial_state builds for a run over `nodes`."""
    config = SimConfig(n=len(nodes.x), packet_bits=bits)
    state = initial_state(config, nodes)
    return transmission_costs(
        state,
        np.array(heads, dtype=np.intp),
        np.array(members, dtype=np.intp),
        None if head_of is None else np.array(head_of, dtype=np.intp),
    )


def costs_by_id(ledger):
    return dict(zip(ledger.ids.tolist(), ledger.costs.tolist()))


def ledger_lists(ledger):
    return ledger.ids.tolist(), ledger.costs.tolist(), ledger.links.tolist()


def per_cluster_ledger(config, nodes, heads, members, head_of):
    """(ids, costs, links) as a loop over the clusters charges them: each
    head's members in ascending id, then the head; with no head, every node
    direct to the base station."""
    x, y, d_bs = nodes.x.tolist(), nodes.y.tolist(), nodes.d_bs.tolist()
    if head_of is None:
        return members, [tx_energy(config, d_bs[i]) for i in members], []
    ids, costs, links = [], [], []
    for k, h in enumerate(heads):
        cluster = [i for i, hk in zip(members, head_of) if hk == k]
        for i in cluster:
            link = math.hypot(x[i] - x[h], y[i] - y[h])
            ids.append(i)
            costs.append(tx_energy(config, link))
            links.append(link)
        ids.append(h)
        costs.append(
            len(cluster) * rx_energy(config)
            + aggregation_energy(config, len(cluster) + 1)
            + tx_energy(config, d_bs[h])
        )
    return ids, costs, links


class TestTransmissionCosts:
    def test_two_node_cluster_hand_values(self, make_deployment):
        # head 30 m from the base station, member 20 m from the head
        nodes = make_deployment([(50.0, 80.0), (50.0, 100.0)])
        ledger = ledger_for(nodes, [0], [1], [0])
        costs = costs_by_id(ledger)
        assert costs[1] == pytest.approx(3.6e-5, abs=1e-12)
        assert costs[0] == pytest.approx(1.16e-4, abs=1e-12)
        assert ledger.ids.tolist() == [1, 0]  # the member is charged first
        assert ledger.links.tolist() == [pytest.approx(20.0, rel=1e-12)]

    def test_ledger_order_cluster_by_cluster(self, make_deployment):
        """Clusters in ascending head id, each with its members in ascending
        id followed by its head; links follow the members' order."""
        nodes = make_deployment([(float(i), 0.0) for i in range(7)])
        ledger = ledger_for(nodes, [2, 5], [0, 1, 3, 4, 6], [1, 0, 1, 0, 0])
        assert ledger.ids.tolist() == [1, 4, 6, 2, 0, 3, 5]
        assert ledger.links.tolist() == [1.0, 2.0, 4.0, 5.0, 2.0]

    def test_zero_head_round_all_direct(self, make_deployment):
        nodes = make_deployment([(50.0 + 10.0 * i, 50.0) for i in range(3)])
        radio = SimConfig()
        ledger = ledger_for(nodes, [], [0, 1, 2], None)
        assert ledger.ids.tolist() == [0, 1, 2]
        assert len(ledger.links) == 0
        for i, cost in costs_by_id(ledger).items():
            assert cost == tx_energy(radio, nodes.d_bs[i])

    def test_head_with_no_members_still_reports(self, make_deployment):
        nodes = make_deployment([(50.0, 60.0)])
        radio = SimConfig()
        ledger = ledger_for(nodes, [0], [], [])
        # aggregation still covers the head's own signal
        expected = aggregation_energy(radio, 1) + tx_energy(radio, 10.0)
        assert costs_by_id(ledger)[0] == pytest.approx(expected, rel=1e-12)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    @pytest.mark.parametrize(
        "table_max", [engine.PAIR_TABLE_MAX_NODES, 0], ids=["tables", "per_round"]
    )
    def test_ledger_matches_per_cluster_loop(self, make_deployment, table_max, data):
        """Any clustering, on both pricing paths, gives what a loop over the
        clusters charges: each head's members in ascending id, then the head;
        with no head, every node direct to the base station."""
        coord = st.floats(min_value=0.0, max_value=100.0)
        coords = data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=25))
        n = len(coords)
        # each node a head, a member or dead
        roles = data.draw(st.lists(st.sampled_from("hmd"), min_size=n, max_size=n))
        heads = [i for i, role in enumerate(roles) if role == "h"]
        members = [i for i, role in enumerate(roles) if role == "m"]
        nodes = make_deployment(coords)
        config = SimConfig(n=n)
        if heads:
            index = st.integers(min_value=0, max_value=len(heads) - 1)
            head_of = data.draw(st.lists(index, min_size=len(members), max_size=len(members)))
        else:
            head_of = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "PAIR_TABLE_MAX_NODES", table_max)
            ledger = ledger_for(nodes, heads, members, head_of)

        assert ledger_lists(ledger) == per_cluster_ledger(config, nodes, heads, members, head_of)

    @pytest.mark.parametrize("table_max", [300, 0], ids=["tables", "per_round"])
    def test_ledger_past_255_heads_matches_per_cluster_loop(self, monkeypatch, table_max):
        """257 heads: head indices past 255 need 16-bit sort keys on both
        pricing paths.  Members go two by two to heads in falling index
        order, starting at the last one, and most heads have none."""
        config = SimConfig(n=300)
        nodes = deploy(config, random.Random(5))
        members = [i for i in range(300) if i % 7 == 0]
        heads = [i for i in range(300) if i % 7]
        head_of = [(256 - 5 * (j // 2)) % 257 for j in range(len(members))]
        assert len(heads) == 257 and max(head_of) == 256
        monkeypatch.setattr(engine, "PAIR_TABLE_MAX_NODES", table_max)
        assert (initial_state(config, nodes).pairs is None) == (table_max == 0)
        ledger = ledger_for(nodes, heads, members, head_of)
        assert ledger_lists(ledger) == per_cluster_ledger(config, nodes, heads, members, head_of)

    @given(
        hx=st.floats(min_value=0.0, max_value=100.0),
        hy=st.floats(min_value=0.0, max_value=100.0),
        mx=st.floats(min_value=0.0, max_value=100.0),
        my=st.floats(min_value=0.0, max_value=100.0),
        bits=st.integers(min_value=1, max_value=10**5),
    )
    @settings(max_examples=120, deadline=None)
    def test_inline_tx_math_matches_radio_module_bitwise(
        self, make_deployment, hx, hy, mx, my, bits
    ):
        """Cost composition: a member pays exactly tx_energy over its link, and
        a head pays rx per member plus aggregation plus tx_energy to the base
        station, summed in that order, float for float."""
        radio = SimConfig(packet_bits=bits)
        nodes = make_deployment([(hx, hy), (mx, my)])
        costs = costs_by_id(ledger_for(nodes, [0], [1], [0], bits))
        d = math.hypot(mx - hx, my - hy)
        assert costs[1] == tx_energy(radio, d)
        assert costs[0] == (
            1 * rx_energy(radio)
            + aggregation_energy(radio, 2)
            + tx_energy(radio, nodes.d_bs[0])
        )

    @given(d_bs=st.floats(min_value=0.0, max_value=200.0))
    @settings(max_examples=60, deadline=None)
    def test_unclustered_cost_matches_radio_module_bitwise(self, make_deployment, d_bs):
        """Cost composition: an unclustered node pays exactly one tx_energy
        to the base station, float for float."""
        radio = SimConfig()
        nodes = make_deployment([(50.0 + d_bs, 50.0)])
        ledger = ledger_for(nodes, [], [0], None)
        assert ledger.costs.tolist() == [tx_energy(radio, nodes.d_bs[0])]


class TestPairTables:
    """Small networks take member links and costs from tables built once per
    run; they must hold exactly what the per-round path computes."""

    def test_built_up_to_the_size_constant(self, monkeypatch):
        config = SimConfig(n=12)
        nodes = deploy(config, random.Random(1))
        monkeypatch.setattr(engine, "PAIR_TABLE_MAX_NODES", 12)
        assert initial_state(config, nodes).pairs.d2.shape == (12, 12)
        monkeypatch.setattr(engine, "PAIR_TABLE_MAX_NODES", 11)
        assert initial_state(config, nodes).pairs is None

    def test_entries_are_the_per_pair_rules(self):
        config = SimConfig(n=30, packet_bits=1000, d0_override=40.0)
        nodes = deploy(config, random.Random(4))
        pairs = initial_state(config, nodes).pairs
        x, y = nodes.x.tolist(), nodes.y.tolist()
        for i in range(30):
            for j in range(30):
                link = math.hypot(x[i] - x[j], y[i] - y[j])
                assert pairs.link[i, j] == link
                assert pairs.tx[i, j] == tx_energy(config, link)
        assert pairs.d2.tolist() == squared_distances(nodes.x, nodes.y, nodes.x, nodes.y).tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_rounds_identical_on_both_paths(self, monkeypatch, seed):
        config = SimConfig(n=60, seed=seed, packet_bits=3000, e0=0.01)
        nodes = deploy(config, random.Random(seed))
        states = [initial_state(config, nodes)]
        monkeypatch.setattr(engine, "PAIR_TABLE_MAX_NODES", 0)
        states.append(initial_state(config, nodes))
        assert states[1].pairs is None
        streams = [DrawStream(random.Random(seed)), DrawStream(random.Random(seed))]
        for r in range(400):
            a, b = (simulate_round(st, r, g) for st, g in zip(states, streams))
            assert a == b
        assert states[0].energy.tolist() == states[1].energy.tolist()
        for total in ("energy_dissipated", "member_distance_sum", "head_distance_sum"):
            assert getattr(states[0], total) == getattr(states[1], total)


# A fresh process's n=10000 run: three rounds size the run's work arrays,
# then the minor page faults of five more rounds are counted one by one.
FAULT_PROBE = """
import random, resource, statistics, sys
from wsnsim.engine import DrawStream, initial_state, simulate_round
from wsnsim.model import ProtocolKind, SimConfig, deploy
config = SimConfig(n=10000, seed=3, protocol=ProtocolKind(sys.argv[1]))
rng = random.Random(config.seed)
state = initial_state(config, deploy(config, rng))
draws = DrawStream(rng)
faults = []
for r in range(8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    simulate_round(state, r, draws)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults[3:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts glibc's page faults")
@pytest.mark.parametrize("protocol", [p.value for p in ProtocolKind])
def test_large_round_keeps_its_memory_mapped(protocol):
    """A warmed-up n=10000 round writes into work arrays its run already
    holds.  When each round allocated and freed its temporaries, glibc gave
    the pages back between rounds and a round took 300-450 minor faults.
    Each protocol's rounds allocate differently, so each is probed."""
    src = str(Path(wsnsim.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, protocol],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) < 50


class TestDrawStream:
    """The stream serves a run's draws in blocks; whatever the take sizes,
    the draws served are the rng's random() values in order."""

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        sizes=st.lists(
            st.one_of(
                st.just(0),
                st.integers(min_value=1, max_value=300),
                st.integers(min_value=DRAW_BLOCK - 300, max_value=DRAW_BLOCK),
            ),
            max_size=6,
        ),
        big=st.integers(min_value=DRAW_BLOCK + 1, max_value=2 * DRAW_BLOCK),
        at=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_takes_concatenate_to_the_random_sequence(self, seed, sizes, big, at):
        # a small take, then one that straddles the first refill; a zero and
        # one take larger than a block somewhere among the drawn sizes
        sizes = [5, DRAW_BLOCK] + sizes[:at] + [0, big] + sizes[at:]
        stream, reference = DrawStream(random.Random(seed)), random.Random(seed)
        served = [stream.take(k) for k in sizes]
        assert [len(u) for u in served] == sizes
        expected = np.array([reference.random() for _ in range(sum(sizes))])
        assert np.concatenate(served).tobytes() == expected.tobytes()


def rigged_state(nodes, config, sole_head_id=None):
    """Engine state where only `sole_head_id` can be elected (or nobody,
    when None); pair with round r=9 under LEACH so the survivor is certain."""
    state = initial_state(config, nodes)
    state.eligible_from[:] = 10**9
    if sole_head_id is not None:
        state.eligible_from[sole_head_id] = 0
    return state


class TestSimulateRound:
    def test_forced_two_node_round(self, make_deployment):
        config = SimConfig(n=2, protocol=ProtocolKind.LEACH, **homogeneous(1.0))
        nodes = make_deployment([(50.0, 80.0), (50.0, 100.0)])  # head, member
        state = rigged_state(nodes, config, sole_head_id=0)
        metrics = simulate_round(state, 9, DrawStream(random.Random(0)))
        assert metrics.round == 10
        assert metrics.head_count == 1
        assert metrics.packets_to_bs_round == 1
        assert metrics.alive_total == 2
        assert state.energy[0] == pytest.approx(1.0 - 1.16e-4, abs=1e-12)
        assert state.energy[1] == pytest.approx(1.0 - 3.6e-5, abs=1e-12)
        assert metrics.residual_energy_j == pytest.approx(2.0 - 1.52e-4, abs=1e-11)
        assert state.energy_dissipated == pytest.approx(1.52e-4, abs=1e-12)
        assert state.member_count == 1
        assert state.member_distance_sum == pytest.approx(20.0, rel=1e-12)
        assert state.head_distance_sum == pytest.approx(30.0, rel=1e-12)

    def test_zero_head_round_direct_to_bs(self, make_deployment):
        config = SimConfig(n=4, protocol=ProtocolKind.SEP, **homogeneous(1.0))
        nodes = make_deployment([(50.0, 55.0 + 5.0 * i) for i in range(4)])
        state = rigged_state(nodes, config, sole_head_id=None)
        before = sum(nodes.energy.tolist())
        metrics = simulate_round(state, 0, DrawStream(random.Random(0)))
        assert metrics.head_count == 0
        assert metrics.packets_to_bs_round == 4
        expected_cost = sum(tx_energy(config, d) for d in nodes.d_bs.tolist())
        assert before - metrics.residual_energy_j == pytest.approx(expected_cost, abs=1e-12)

    def test_insufficient_energy_clamps_and_kills(self, make_deployment):
        config = SimConfig(n=3, protocol=ProtocolKind.LEACH, **homogeneous(1.0))
        # a head, a poor node that cannot afford its tx, a rich node
        nodes = make_deployment(
            [(50.0, 80.0), (50.0, 100.0), (60.0, 80.0)], energies=[1.0, 1e-9, 1.0]
        )
        state = rigged_state(nodes, config, sole_head_id=0)
        metrics = simulate_round(state, 9, DrawStream(random.Random(0)))
        assert state.alive.tolist() == [0, 2]
        assert state.energy[1] == 0.0
        assert metrics.alive_total == 2
        assert metrics.packets_to_bs_round == 1  # the head still delivered
        # the ledger charges the poor node only what it actually had
        head_cost = (
            2 * rx_energy(config)
            + aggregation_energy(config, 3)
            + tx_energy(config, nodes.d_bs[0])
        )
        rich_cost = tx_energy(config, 10.0)
        assert state.energy_dissipated == pytest.approx(
            head_cost + rich_cost + 1e-9, abs=1e-15
        )

    def test_dead_nodes_stay_dead_and_unchanged(self, make_deployment):
        config = SimConfig(n=3, protocol=ProtocolKind.LEACH, **homogeneous(1.0))
        nodes = make_deployment(
            [(50.0, 80.0), (50.0, 100.0), (60.0, 80.0)], energies=[1.0, 1e-9, 1.0]
        )
        state = rigged_state(nodes, config, sole_head_id=0)
        simulate_round(state, 9, DrawStream(random.Random(0)))
        assert 1 not in state.alive
        # next round: nobody eligible -> direct-to-bs fallback for survivors only
        metrics = simulate_round(state, 10, DrawStream(random.Random(1)))
        assert metrics.packets_to_bs_round == 2
        assert state.energy[1] == 0.0
        assert metrics.alive_total == 2
        assert state.alive_by_tier == [2, 0, 0]


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
        config = SimConfig(n=16, max_rounds=3000, seed=5, e0=0.02)
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
        config = SimConfig(n=12, max_rounds=4000, seed=21, e0=0.02)
        result = engine.run(config)
        s = result.summary
        assert s.fnd_round is not None and s.hnd_round is not None and s.lnd_round is not None
        assert s.fnd_round <= s.hnd_round <= s.lnd_round
        assert s.lnd_round == result.series[-1].round
        assert result.series[-1].alive_total == 0
        assert s.rounds_simulated == len(result.series)
        assert s.total_packets == result.series[-1].packets_to_bs_cum

    def test_single_node_immediate_death(self):
        config = SimConfig(n=1, **homogeneous(e0=1e-9), max_rounds=50)
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
        config = SimConfig(n=10, max_rounds=800, seed=31, e0=0.05)
        result = engine.run(config)
        # deaths occurred, yet d_avg still reflects the full deployment
        nodes = engine.deploy(config, random.Random(config.seed))
        total = 0.0
        for d in nodes.d_bs.tolist():
            total += d
        full_mean = total / config.n
        assert result.summary.fnd_round is not None
        assert result.d_avg == full_mean

    @pytest.mark.parametrize(
        "config",
        [
            SimConfig(n=30, seed=3, e0=0.05),
            SimConfig(n=30, seed=3, max_rounds=50),
        ],
        ids=["network_dies", "capped"],
    )
    def test_record_types(self, config):
        # the CSV writers and the bench counters take the records as they are:
        # plain Python ints and floats, never numpy scalars
        result = engine.run(config)
        assert (result.summary.lnd_round is None) == (config.max_rounds == 50)
        for row in result.series:
            *counts, residual = row
            assert all(type(v) is int for v in counts)
            assert type(residual) is float
        assert all(v is None or type(v) is int for v in result.summary)
        assert pickle.loads(pickle.dumps(result)) == result


class TestSeries:
    @pytest.fixture(scope="class")
    def run_and_rows(self):
        """A run whose network dies, and its series as a list of rows."""
        result = engine.run(SimConfig(n=30, seed=3, e0=0.05))
        return result, list(result.series)

    def test_reads_like_its_rows(self, run_and_rows):
        result, rows = run_and_rows
        series = result.series
        assert isinstance(series, engine.Series)
        assert len(series) == len(rows) == result.summary.rounds_simulated
        for i in (0, 1, len(rows) // 2, len(rows) - 1, -1, -2, -len(rows)):
            assert series[i] == rows[i]
            assert type(series[i]) is engine.RoundMetrics
        with pytest.raises(IndexError):
            series[len(rows)]
        for piece in (slice(1, None), slice(None, -3), slice(5, 40, 7), slice(-10, None)):
            assert isinstance(series[piece], engine.Series)
            assert list(series[piece]) == rows[piece]
        assert engine.Series.from_rows(rows) == series
        # == agrees with the rows' ==
        other = list(engine.run(SimConfig(n=30, seed=4, e0=0.05)).series)
        for a, b in ((rows, rows), (rows, other), (rows, rows[:-1]), (rows[1:], rows[:-1])):
            assert (engine.Series.from_rows(a) == engine.Series.from_rows(b)) == (a == b)
        assert series != rows  # a Series equals only a Series

    def test_pickle_round_trip(self, run_and_rows):
        result, rows = run_and_rows
        back = pickle.loads(pickle.dumps(result.series))
        assert back == result.series
        assert list(back) == rows
        assert [c.dtype for c in back.columns.values()] == [
            c.dtype for c in result.series.columns.values()
        ]

    def test_count_columns_take_the_narrowest_type(self, run_and_rows):
        result, _ = run_and_rows
        *counts, residual = result.series.columns.values()
        for column in counts:
            assert column.dtype == np.min_scalar_type(int(column.max()))
        assert residual.dtype == np.float64
        assert list(result.series.columns) == list(engine.RoundMetrics._fields)

    @pytest.mark.parametrize(
        "largest, dtype",
        [(0, np.uint8), (255, np.uint8), (256, np.uint16), (65535, np.uint16),
         (65536, np.uint32), (2**32 - 1, np.uint32), (2**32, np.uint64)],
    )
    def test_column_type_follows_its_largest_value(self, largest, dtype):
        rows = [engine.RoundMetrics(1, 0, 0, 0, 0, 0, 0, v, 0.5) for v in (0, largest)]
        column = engine.Series.from_rows(rows).columns["packets_to_bs_cum"]
        assert column.dtype == dtype
        assert column.tolist() == [0, largest]

    def test_empty_series(self):
        series = engine.Series.from_rows([])
        assert len(series) == 0
        assert list(series) == []
        assert series == engine.Series.from_rows(iter([]))

    def test_result_built_from_rows_holds_a_series(self, run_and_rows):
        result, rows = run_and_rows
        rebuilt = dataclasses.replace(result, series=rows)
        assert isinstance(rebuilt.series, engine.Series)
        assert rebuilt == result


class TestSingleClusterClosedForm:
    def test_forced_single_cluster_matches_hand_ledger(self, make_deployment):
        """One head, n-1 members: engine total equals the closed-form
        head + member ledger evaluated from the raw constants."""
        config = SimConfig(n=6, protocol=ProtocolKind.LEACH, **homogeneous(1.0))
        coords = [(50.0, 70.0), (30.0, 40.0), (80.0, 60.0), (45.0, 15.0), (95.0, 95.0),
                  (10.0, 80.0)]
        nodes = make_deployment(coords)
        state = rigged_state(nodes, config, sole_head_id=0)
        before = sum(nodes.energy.tolist())
        metrics = simulate_round(state, 9, DrawStream(random.Random(3)))
        assert metrics.head_count == 1

        bits, e_elec, eps_fs, eps_mp, e_da = 4000, 5e-9, 10e-12, 0.0013e-12, 5e-9
        d0 = math.sqrt(eps_fs / eps_mp)

        def tx_hand(d):
            if d < d0:
                return bits * e_elec + bits * eps_fs * d**2
            return bits * e_elec + bits * eps_mp * d**4

        (hx, hy), members = coords[0], coords[1:]
        e_ch = (
            len(members) * bits * e_elec
            + (len(members) + 1) * bits * e_da
            + tx_hand(math.hypot(hx - 50.0, hy - 50.0))
        )
        e_nch = sum(tx_hand(math.hypot(x - hx, y - hy)) for x, y in members)
        assert before - metrics.residual_energy_j == pytest.approx(e_ch + e_nch, abs=1e-9)
