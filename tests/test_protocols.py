"""Protocol strategies and cluster formation.

The replay test re-derives every election decision from threshold_for with a
fresh rng stream; elect_heads carries an inlined copy of the same math, and
the two must agree draw for draw.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wsnsim.election import (
    EligibilityState,
    epoch_length,
    sep_threshold,
    weighted_probabilities,
)
from wsnsim.model import (
    HeterogeneityParams,
    Node,
    NodeTier,
    ProtocolKind,
    SimConfig,
    deploy,
)
from wsnsim import protocols
from wsnsim.protocols import (
    FieldGeometry,
    _nearest_dense,
    _nearest_grid,
    elect_heads,
    eligibility_for,
    form_clusters,
    threshold_for,
)

P_OPT = 0.1
HETERO = HeterogeneityParams(m=0.2, m0=0.1, a=2.0, b=3.0, e0=0.5)
PROBS = weighted_probabilities(P_OPT, HETERO)


def make_node(node_id, tier=NodeTier.NORMAL, x=0.0, y=0.0, d=30.0, alive=True):
    return Node(
        id=node_id,
        x=x,
        y=y,
        tier=tier,
        initial_energy=0.5,
        residual_energy=0.5,
        distance_to_bs=d,
        alive=alive,
    )


def fresh_eligibility(protocol):
    return eligibility_for(protocol, PROBS, P_OPT)


def deployed_network(n=40, seed=13):
    config = SimConfig(n=n, seed=seed)
    nodes = deploy(config, random.Random(seed))
    d_avg = sum(node.distance_to_bs for node in nodes) / len(nodes)
    return nodes, d_avg


class TestEligibilityFor:
    def test_leach_uses_uniform_epoch(self):
        state = fresh_eligibility(ProtocolKind.LEACH)
        assert state.epochs == {tier: 10 for tier in NodeTier}

    def test_tiered_epochs(self):
        state = fresh_eligibility(ProtocolKind.SEP)
        assert state.epochs[NodeTier.NORMAL] == epoch_length(PROBS.p_normal) == 15
        assert state.epochs[NodeTier.ADVANCED] == 5
        assert state.epochs[NodeTier.SUPER] == 4

    def test_dbcp_same_epochs_as_sep(self):
        assert fresh_eligibility(ProtocolKind.DBCP).epochs == fresh_eligibility(
            ProtocolKind.SEP
        ).epochs


class TestThresholdFor:
    def test_leach_ignores_tier(self):
        node = make_node(0, NodeTier.ADVANCED)
        t = threshold_for(
            ProtocolKind.LEACH, node, 0, PROBS, P_OPT,
            fresh_eligibility(ProtocolKind.LEACH), 40.0,
        )
        assert t == pytest.approx(0.1, rel=1e-12)

    def test_sep_super_tier(self):
        node = make_node(0, NodeTier.SUPER)
        t = threshold_for(
            ProtocolKind.SEP, node, 0, PROBS, P_OPT,
            fresh_eligibility(ProtocolKind.SEP), 40.0,
        )
        assert t == pytest.approx(0.266667, abs=1e-6)

    def test_dbcp_scales_near_node(self):
        node = make_node(0, NodeTier.NORMAL, d=20.0)
        t = threshold_for(
            ProtocolKind.DBCP, node, 0, PROBS, P_OPT,
            fresh_eligibility(ProtocolKind.DBCP), 40.0,
        )
        assert t == pytest.approx(0.033333, abs=1e-6)

    def test_dbcp_far_node_equals_sep(self):
        far = make_node(0, NodeTier.NORMAL, d=60.0)
        for r in range(20):
            t_dbcp = threshold_for(
                ProtocolKind.DBCP, far, r, PROBS, P_OPT,
                fresh_eligibility(ProtocolKind.DBCP), 40.0,
            )
            t_sep = threshold_for(
                ProtocolKind.SEP, far, r, PROBS, P_OPT,
                fresh_eligibility(ProtocolKind.SEP), 40.0,
            )
            assert t_dbcp == t_sep

    def test_sep_equals_leach_when_homogeneous(self):
        # m = m0 = 0 collapses every tier probability onto p_opt
        probs = weighted_probabilities(0.1, HeterogeneityParams(0.0, 0.0, 0.0, 0.0, 0.5))
        node = make_node(0, NodeTier.NORMAL)
        for r in range(25):
            t_sep = threshold_for(
                ProtocolKind.SEP, node, r, probs, 0.1,
                eligibility_for(ProtocolKind.SEP, probs, 0.1), 40.0,
            )
            t_leach = threshold_for(
                ProtocolKind.LEACH, node, r, probs, 0.1,
                eligibility_for(ProtocolKind.LEACH, probs, 0.1), 40.0,
            )
            assert t_sep == t_leach

    def test_ineligible_node_threshold_zero(self):
        state = fresh_eligibility(ProtocolKind.SEP)
        node = make_node(0, NodeTier.NORMAL)
        state.mark_elected(node, 0)
        assert threshold_for(ProtocolKind.SEP, node, 1, PROBS, P_OPT, state, 40.0) == 0.0


class TestElectHeads:
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_deterministic(self, protocol):
        nodes, d_avg = deployed_network()
        heads_a = elect_heads(
            protocol, nodes, 0, PROBS, P_OPT, fresh_eligibility(protocol), d_avg,
            random.Random(42),
        )
        heads_b = elect_heads(
            protocol, nodes, 0, PROBS, P_OPT, fresh_eligibility(protocol), d_avg,
            random.Random(42),
        )
        assert heads_a == heads_b == sorted(heads_a)

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_replays_threshold_for_exactly(self, protocol):
        """Dual route: one uniform per alive node in id order, head iff
        u < threshold_for.  Must match elect_heads bit for bit across rounds,
        including the eligibility bookkeeping that election mutates."""
        nodes, d_avg = deployed_network(n=60, seed=29)
        state = fresh_eligibility(protocol)
        shadow = fresh_eligibility(protocol)
        rng = random.Random(7)
        shadow_rng = random.Random(7)
        for r in range(40):
            heads = elect_heads(protocol, nodes, r, PROBS, P_OPT, state, d_avg, rng)
            expected = []
            for node in nodes:
                if not node.alive:
                    continue
                u = shadow_rng.random()
                t = threshold_for(protocol, node, r, PROBS, P_OPT, shadow, d_avg)
                if u < t:
                    expected.append(node.id)
            for head_id in expected:
                shadow.mark_elected(nodes[head_id], r)
            assert heads == expected

    def test_all_ineligible_yields_no_heads_but_consumes_draws(self):
        nodes, d_avg = deployed_network(n=10, seed=3)
        state = fresh_eligibility(ProtocolKind.SEP)
        for node in nodes:
            state.eligible_from[node.id] = 10**9
        rng = random.Random(5)
        assert elect_heads(ProtocolKind.SEP, nodes, 0, PROBS, P_OPT, state, 40.0, rng) == []
        # one draw per alive node must have been consumed regardless
        reference = random.Random(5)
        for _ in range(10):
            reference.random()
        assert rng.random() == reference.random()

    def test_certain_election_at_epoch_end(self):
        # last round of the LEACH epoch: an eligible survivor has threshold 1
        nodes = [make_node(0), make_node(1)]
        state = eligibility_for(ProtocolKind.LEACH, PROBS, 0.1)
        state.eligible_from[1] = 10**9
        heads = elect_heads(
            ProtocolKind.LEACH, nodes, 9, PROBS, 0.1, state, 40.0, random.Random(0)
        )
        assert heads == [0]

    def test_dead_nodes_never_elected_and_draw_nothing(self):
        nodes, d_avg = deployed_network(n=12, seed=8)
        nodes[4].alive = False
        alive_only = [n for n in nodes if n.alive]
        heads_with_dead = elect_heads(
            ProtocolKind.SEP, nodes, 0, PROBS, P_OPT,
            fresh_eligibility(ProtocolKind.SEP), d_avg, random.Random(21),
        )
        heads_alive_only = elect_heads(
            ProtocolKind.SEP, alive_only, 0, PROBS, P_OPT,
            fresh_eligibility(ProtocolKind.SEP), d_avg, random.Random(21),
        )
        assert heads_with_dead == heads_alive_only
        assert 4 not in heads_with_dead

    def test_elected_nodes_marked_ineligible(self):
        nodes, d_avg = deployed_network(n=50, seed=2)
        state = fresh_eligibility(ProtocolKind.SEP)
        heads = elect_heads(
            ProtocolKind.SEP, nodes, 0, PROBS, P_OPT, state, d_avg, random.Random(1)
        )
        assert heads  # seed chosen so the round elects someone
        for head_id in heads:
            assert not state.is_eligible(nodes[head_id], 1)


class TestFormClusters:
    def test_single_head_takes_everyone(self):
        nodes = [make_node(i, x=float(i), y=0.0) for i in range(6)]
        assignment = form_clusters(nodes, [2])
        assert [c.head_id for c in assignment.clusters] == [2]
        assert sorted(assignment.clusters[0].member_ids) == [0, 1, 3, 4, 5]
        assert assignment.unclustered == []

    def test_equidistant_tie_goes_to_lower_head_id(self):
        nodes = [
            make_node(0, x=0.0, y=0.0),   # the contested member
            make_node(3, x=2.0, y=0.0),
            make_node(7, x=-2.0, y=0.0),
        ]
        assignment = form_clusters(nodes, [7, 3])
        by_head = {c.head_id: c.member_ids for c in assignment.clusters}
        assert by_head[3] == [0]
        assert by_head[7] == []

    def test_zero_heads_leaves_all_unclustered(self):
        nodes = [make_node(i) for i in range(5)]
        assignment = form_clusters(nodes, [])
        assert assignment.clusters == []
        assert assignment.unclustered == [0, 1, 2, 3, 4]

    def test_nearest_assignment(self):
        nodes = [
            make_node(0, x=0.0, y=0.0),
            make_node(1, x=10.0, y=0.0),
            make_node(2, x=1.0, y=1.0),
            make_node(3, x=9.0, y=1.0),
        ]
        assignment = form_clusters(nodes, [0, 1])
        by_head = {c.head_id: c.member_ids for c in assignment.clusters}
        assert by_head[0] == [2]
        assert by_head[1] == [3]

    def test_dead_nodes_excluded(self):
        nodes = [make_node(i, x=float(i)) for i in range(4)]
        nodes[3].alive = False
        assignment = form_clusters(nodes, [0])
        assert 3 not in assignment.clusters[0].member_ids
        no_heads = form_clusters(nodes, [])
        assert 3 not in no_heads.unclustered

    def test_cached_geometry_matches_ad_hoc(self):
        nodes, _ = deployed_network(n=30, seed=5)
        geometry = FieldGeometry(nodes)
        a = form_clusters(nodes, [1, 8, 15], geometry)
        b = form_clusters(nodes, [1, 8, 15], None)
        assert a == b

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=1, max_value=50),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, seed, n, data):
        """Every alive node lands in exactly one bucket."""
        rng = random.Random(seed)
        nodes = [
            make_node(i, x=rng.uniform(0, 100), y=rng.uniform(0, 100)) for i in range(n)
        ]
        for node in nodes:
            node.alive = rng.random() < 0.9
        alive_ids = [node.id for node in nodes if node.alive]
        heads = data.draw(st.lists(st.sampled_from(alive_ids), unique=True)) if alive_ids else []
        assignment = form_clusters(nodes, heads)
        seen = list(assignment.unclustered)
        for cluster in assignment.clusters:
            seen.append(cluster.head_id)
            seen.extend(cluster.member_ids)
        assert sorted(seen) == sorted(alive_ids)
        if heads:
            assert assignment.unclustered == []
            assert [c.head_id for c in assignment.clusters] == sorted(heads)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_members_join_nearest_head(self, seed):
        rng = random.Random(seed)
        nodes = [
            make_node(i, x=rng.uniform(0, 100), y=rng.uniform(0, 100)) for i in range(25)
        ]
        heads = [0, 7, 19]
        assignment = form_clusters(nodes, heads)
        head_pos = {h: (nodes[h].x, nodes[h].y) for h in heads}
        for cluster in assignment.clusters:
            for mid in cluster.member_ids:
                member = nodes[mid]
                d_own = (member.x - head_pos[cluster.head_id][0]) ** 2 + (
                    member.y - head_pos[cluster.head_id][1]
                ) ** 2
                for other in heads:
                    d_other = (member.x - head_pos[other][0]) ** 2 + (
                        member.y - head_pos[other][1]
                    ) ** 2
                    assert d_own <= d_other


@st.composite
def head_member_layouts(draw):
    """(mx, my, hx, hy) for the nearest-head search.  Heads sit on a small
    integer lattice (many exact ties), are stacked a few to a point, lie on
    one vertical line (a zero-width bounding box), or are real-valued;
    members come from a wider range, so some lie outside the heads' box."""
    shape = draw(st.sampled_from(["lattice", "coincident", "vertical", "real"]))
    n_heads = draw(st.integers(min_value=1, max_value=30))
    n_members = draw(st.integers(min_value=1, max_value=60))

    def coords(values, size):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float)

    if shape == "real":
        head = st.floats(min_value=0.0, max_value=100.0)
        member = st.floats(min_value=-50.0, max_value=150.0)
    else:
        head = st.integers(min_value=0, max_value=6)
        member = st.integers(min_value=-3, max_value=9)
    hx, hy = coords(head, n_heads), coords(head, n_heads)
    if shape == "coincident":
        picks = draw(st.lists(st.integers(0, n_heads - 1), min_size=n_heads, max_size=n_heads))
        hx, hy = hx[picks], hy[picks]
    elif shape == "vertical":
        hx = np.full(n_heads, hx[0])
    return coords(member, n_members), coords(member, n_members), hx, hy


class TestNearestHeadSearch:
    """_nearest_grid must return _nearest_dense's indices exactly, ties
    included, at any size; form_clusters picks between them by pair count."""

    @given(head_member_layouts())
    @example(  # an outside head exactly at the bound ties the block's best
        (np.array([6.0, 0.0]), np.array([2.0, 6.0]),
         np.array([3.0, 6.0, 3.0, 5.0, 4.0, 3.0]), np.array([5.0, 5.0, 2.0, 6.0, 5.0, 0.0]))
    )
    @settings(max_examples=300, deadline=None)
    def test_grid_matches_dense(self, layout):
        mx, my, hx, hy = layout
        assert _nearest_grid(mx, my, hx, hy).tolist() == _nearest_dense(mx, my, hx, hy).tolist()

    def test_empty_blocks_fall_back_to_dense(self, monkeypatch):
        """Heads in two knots at opposite corners leave the middle of their
        box without heads: members there have an empty 3x3 block and are
        re-scored by the dense kernel; members inside the knots are not."""
        rng = np.random.default_rng(3)
        hx, hy = np.concatenate([rng.uniform(0, 5, (2, 20)), rng.uniform(95, 100, (2, 20))], axis=1)
        mx, my = np.concatenate([rng.uniform(0, 5, (2, 30)), rng.uniform(40, 60, (2, 7))], axis=1)
        expected = _nearest_dense(mx, my, hx, hy)
        rescored = []

        def spy(*args):
            rescored.append(len(args[0]))
            return _nearest_dense(*args)

        monkeypatch.setattr(protocols, "_nearest_dense", spy)
        assert _nearest_grid(mx, my, hx, hy).tolist() == expected.tolist()
        assert rescored == [7]

    def test_form_clusters_same_on_either_path(self, monkeypatch):
        nodes, _ = deployed_network(n=2000, seed=4)
        heads = list(range(0, 2000, 10))
        monkeypatch.setattr(protocols, "GRID_MIN_PAIRS", float("inf"))
        dense = form_clusters(nodes, heads)
        monkeypatch.setattr(protocols, "GRID_MIN_PAIRS", 0)
        assert form_clusters(nodes, heads) == dense


class TestProtocolDegeneracies:
    def test_sep_run_identical_to_leach_when_homogeneous(self):
        """m = m0 = 0: same probabilities, same epochs, same rng consumption,
        so the two protocols elect identical head sequences."""
        h = HeterogeneityParams(m=0.0, m0=0.0, a=0.0, b=0.0, e0=0.5)
        probs = weighted_probabilities(0.1, h)
        config = SimConfig(n=30, seed=6, hetero=h)
        sequences = {}
        for protocol in (ProtocolKind.LEACH, ProtocolKind.SEP):
            nodes = deploy(config, random.Random(config.seed))
            d_avg = sum(n.distance_to_bs for n in nodes) / len(nodes)
            state = eligibility_for(protocol, probs, 0.1)
            rng = random.Random(99)
            sequences[protocol] = [
                elect_heads(protocol, nodes, r, probs, 0.1, state, d_avg, rng)
                for r in range(60)
            ]
        assert sequences[ProtocolKind.LEACH] == sequences[ProtocolKind.SEP]

    def test_dbcp_equals_sep_when_all_nodes_far(self):
        # co-located cluster beyond the pinned average distance
        nodes = [make_node(i, x=90.0, y=90.0, d=56.6) for i in range(10)]
        probs = PROBS
        results = {}
        for protocol in (ProtocolKind.SEP, ProtocolKind.DBCP):
            state = eligibility_for(protocol, probs, P_OPT)
            rng = random.Random(4)
            results[protocol] = [
                elect_heads(protocol, nodes, r, probs, P_OPT, state, 40.0, rng)
                for r in range(30)
            ]
        assert results[ProtocolKind.SEP] == results[ProtocolKind.DBCP]
