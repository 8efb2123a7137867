"""Protocol strategies and cluster formation.

The replay test re-derives every election decision from a scalar reference
of the threshold rule written out below, with a fresh rng stream; elect_heads
evaluates the same rule on arrays, and the two must agree draw for draw.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wsnsim import protocols
from wsnsim.engine import DrawStream, initial_state, simulate_round
from wsnsim.model import NodeTier, ProtocolKind, SimConfig, WorkArrays, deploy, weighted_probabilities
from wsnsim.protocols import (
    _nearest_dense,
    _nearest_grid,
    elect_heads,
    form_clusters,
    rotation,
    sep_threshold,
    squared_distances,
    stable_order,
    threshold,
)

P_OPT = 0.1
PROBS = weighted_probabilities(SimConfig(p_opt=P_OPT))
HOMOGENEOUS = dict(m=0.0, m0=0.0, a=0.0, b=0.0)


def deployed_network(n=40, seed=13):
    return deploy(SimConfig(n=n, seed=seed), random.Random(seed))


def state_for(protocol, nodes, **overrides):
    config = SimConfig(n=len(nodes.x), protocol=protocol, p_opt=P_OPT, **overrides)
    return initial_state(config, nodes)


def epochs_of(state):
    return [epoch for _, epoch in state.rotation]


def thresholds_of(state, r):
    """Every node's election threshold in round r, through the one rule, at
    the tier rates of the state's config, eligible or not."""
    config = state.config
    if config.protocol is ProtocolKind.LEACH:
        rates = (config.p_opt,) * len(NodeTier)
    else:
        rates = weighted_probabilities(config)
    tier_thresholds = [sep_threshold(rotation(p), r) for p in rates]
    return threshold(tier_thresholds, state.tier, state.factor)


def reference_threshold(protocol, tier, d, d_avg, r, eligible, probs=PROBS, p_opt=P_OPT):
    """The election threshold of one node in plain floats: the rotating
    threshold 1 / (1/p - r mod ceil(1/p)), with 1/p snapped to an integer
    within 1e-9, clamped to 1; scaled by 1 - d/d_avg under dbcp for nodes
    nearer than the average; 0 when not eligible.  Also returns the epoch."""
    p = p_opt if protocol is ProtocolKind.LEACH else probs[list(NodeTier).index(tier)]
    inv = 1.0 / p
    if round(inv) >= 1 and abs(inv - round(inv)) <= 1e-9 * round(inv):
        inv = float(round(inv))
    epoch = math.ceil(inv)
    if not eligible:
        return 0.0, epoch
    t = min(1.0, 1.0 / (inv - r % epoch))
    if protocol is ProtocolKind.DBCP and d < d_avg:
        t = t * (1.0 - d / d_avg)
    return t, epoch


class ReferenceElection:
    """elect_heads written out node by node over Python floats."""

    def __init__(self, protocol, nodes, rng):
        self.protocol = protocol
        self.nodes = nodes
        self.d_avg = state_for(protocol, nodes).d_avg
        self.eligible_from = {}
        self.rng = rng

    def elect(self, alive, r):
        heads = []
        for i in alive:
            u = self.rng.random()
            tier = list(NodeTier)[self.nodes.tier[i]]
            t, epoch = reference_threshold(
                self.protocol, tier, float(self.nodes.d_bs[i]), self.d_avg, r,
                r >= self.eligible_from.get(i, 0),
            )
            if u < t:
                heads.append(i)
                self.eligible_from[i] = (r // epoch + 1) * epoch
        return heads


class TestEligibilityFor:
    """Epoch lengths the election rule gives each tier."""

    def test_leach_uses_uniform_epoch(self):
        state = state_for(ProtocolKind.LEACH, deployed_network())
        assert epochs_of(state) == [10, 10, 10]

    def test_tiered_epochs(self):
        state = state_for(ProtocolKind.SEP, deployed_network())
        normal, advanced, super_ = epochs_of(state)
        assert normal == rotation(PROBS.p_normal)[1] == 15
        assert advanced == 5
        assert super_ == 4

    def test_dbcp_same_epochs_as_sep(self):
        nodes = deployed_network()
        dbcp = state_for(ProtocolKind.DBCP, nodes)
        assert epochs_of(dbcp) == epochs_of(state_for(ProtocolKind.SEP, nodes))


def threshold_of(make_deployment, protocol, tier, d, r=0, **overrides):
    """Round-r threshold of a node d m from the base station, in a network
    whose average distance is 40 m: a partner node sits 80 - d m away."""
    nodes = make_deployment([(50.0 + d, 50.0), (50.0, 130.0 - d)], [tier, NodeTier.NORMAL])
    state = state_for(protocol, nodes, **overrides)
    assert state.d_avg == 40.0
    return thresholds_of(state, r)[0]


class TestThresholdFor:
    def test_leach_ignores_tier(self, make_deployment):
        t = threshold_of(make_deployment, ProtocolKind.LEACH, NodeTier.ADVANCED, 30.0)
        assert t == pytest.approx(0.1, rel=1e-12)

    def test_sep_super_tier(self, make_deployment):
        t = threshold_of(make_deployment, ProtocolKind.SEP, NodeTier.SUPER, 30.0)
        assert t == pytest.approx(0.266667, abs=1e-6)

    def test_dbcp_scales_near_node(self, make_deployment):
        t = threshold_of(make_deployment, ProtocolKind.DBCP, NodeTier.NORMAL, 20.0)
        assert t == pytest.approx(0.033333, abs=1e-6)

    def test_dbcp_far_node_equals_sep(self, make_deployment):
        for r in range(20):
            t_dbcp = threshold_of(make_deployment, ProtocolKind.DBCP, NodeTier.NORMAL, 60.0, r)
            t_sep = threshold_of(make_deployment, ProtocolKind.SEP, NodeTier.NORMAL, 60.0, r)
            assert t_dbcp == t_sep

    def test_sep_equals_leach_when_homogeneous(self, make_deployment):
        # m = m0 = 0 collapses every tier probability onto p_opt
        for r in range(25):
            t_sep, t_leach = (
                threshold_of(make_deployment, protocol, NodeTier.NORMAL, 30.0, r, **HOMOGENEOUS)
                for protocol in (ProtocolKind.SEP, ProtocolKind.LEACH)
            )
            assert t_sep == t_leach


class TestElectHeads:
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_deterministic(self, protocol):
        nodes = deployed_network()
        a, b = state_for(protocol, nodes), state_for(protocol, nodes)
        heads_a = elect_heads(a, a.alive, 0, DrawStream(random.Random(42))).tolist()
        heads_b = elect_heads(b, b.alive, 0, DrawStream(random.Random(42))).tolist()
        assert heads_a == heads_b == sorted(heads_a)

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_replays_threshold_for_exactly(self, protocol):
        """Dual route: one uniform per alive node in id order, head iff u is
        below the scalar reference threshold.  Must match elect_heads bit for
        bit across rounds, including the eligibility bookkeeping that
        election mutates."""
        nodes = deployed_network(n=60, seed=29)
        state = state_for(protocol, nodes)
        reference = ReferenceElection(protocol, nodes, random.Random(7))
        draws = DrawStream(random.Random(7))
        # across the end of the first ElectionWindow, and back before it
        window = protocols.ELECTION_WINDOW
        for r in [*range(40), *range(window - 20, window + 20), 7]:
            heads = elect_heads(state, state.alive, r, draws)
            assert heads.tolist() == reference.elect(range(60), r)

    def test_all_ineligible_yields_no_heads_but_consumes_draws(self):
        state = state_for(ProtocolKind.SEP, deployed_network(n=10, seed=3))
        state.eligible_from[:] = 10**9
        draws = DrawStream(random.Random(5))
        assert elect_heads(state, state.alive, 0, draws).tolist() == []
        # one draw per alive node must have been consumed regardless
        reference = random.Random(5)
        for _ in range(10):
            reference.random()
        assert draws.take(1)[0] == reference.random()

    def test_certain_election_at_epoch_end(self, make_deployment):
        # last round of the LEACH epoch: an eligible survivor has threshold 1
        state = state_for(ProtocolKind.LEACH, make_deployment([(0.0, 0.0), (0.0, 0.0)]))
        state.eligible_from[1] = 10**9
        assert elect_heads(state, state.alive, 9, DrawStream(random.Random(0))).tolist() == [0]

    def test_dead_nodes_never_elected_and_draw_nothing(self):
        nodes = deployed_network(n=12, seed=8)
        state = state_for(ProtocolKind.SEP, nodes)
        state.set_alive(np.array([i for i in range(12) if i != 4]))
        alive = state.alive
        draws = DrawStream(random.Random(21))
        heads = elect_heads(state, alive, 0, draws).tolist()
        reference = ReferenceElection(ProtocolKind.SEP, nodes, random.Random(21))
        assert heads == reference.elect(alive.tolist(), 0)
        assert 4 not in heads
        assert draws.take(1)[0] == reference.rng.random()  # 11 draws each

    def test_alive_table_follows_deaths(self, make_deployment):
        """Three nodes die in one round, a fourth in a zero-head round; after
        each, the alive-order table equals a fresh gather by the alive ids,
        and the next election matches the reference over the survivors."""
        tiers = [NodeTier.NORMAL, NodeTier.ADVANCED, NodeTier.SUPER, NodeTier.NORMAL] * 2
        coords = [(50.0 + 6.0 * i, 50.0 - 5.0 * i) for i in range(8)]
        energies = [1.0, 1.0, 1e-12, 1.0, 1e-12, 1.0, 1.0, 1e-12]
        nodes = make_deployment(coords, tiers, energies)
        state = state_for(ProtocolKind.DBCP, nodes)
        assert len(set(state.factor.tolist())) > 1
        reference = ReferenceElection(ProtocolKind.DBCP, nodes, random.Random(3))
        draws = DrawStream(random.Random(3))

        def table_is_fresh():
            assert state.alive_tier.tolist() == state.tier[state.alive].tolist()
            assert state.alive_factor.tolist() == state.factor[state.alive].tolist()
            counts = np.bincount(state.tier[state.alive], minlength=len(NodeTier))
            assert state.alive_by_tier == counts.tolist()

        metrics = simulate_round(state, 0, draws)
        assert metrics.head_count == len(reference.elect(range(8), 0))
        assert state.alive.tolist() == [0, 1, 3, 5, 6]
        table_is_fresh()

        state.eligible_from[:] = 10**9
        reference.eligible_from = dict.fromkeys(range(8), 10**9)
        state.energy[5] = 1e-12
        metrics = simulate_round(state, 1, draws)
        assert metrics.head_count == 0 == len(reference.elect([0, 1, 3, 5, 6], 1))
        assert state.alive.tolist() == [0, 1, 3, 6]
        table_is_fresh()

        state.eligible_from[:] = 0
        reference.eligible_from = {}
        for r in range(2, 12):
            expected = reference.elect(state.alive.tolist(), r)
            assert elect_heads(state, state.alive, r, draws).tolist() == expected

    def test_elected_nodes_marked_ineligible(self):
        state = state_for(ProtocolKind.SEP, deployed_network(n=50, seed=2))
        heads = elect_heads(state, state.alive, 0, DrawStream(random.Random(1)))
        assert len(heads)  # seed chosen so the round elects someone
        assert (state.eligible_from[heads] > 1).all()


def clusters(make_deployment, coords, alive, heads):
    """form_clusters over the nodes at `coords`, on both of its branches:
    measuring each round, and looking up the run's pair table of squared
    distances.  The two must return the same clusters."""
    nodes = make_deployment(coords)
    args = np.array(alive, dtype=np.intp), np.array(heads, dtype=np.intp), nodes.x, nodes.y
    members, head_of = form_clusters(*args)
    d2 = squared_distances(nodes.x, nodes.y, nodes.x, nodes.y)
    table_members, table_head_of = form_clusters(*args, d2)
    assert table_members.tolist() == members.tolist()
    assert (table_head_of is None) == (head_of is None)
    if head_of is not None:
        assert table_head_of.tolist() == head_of.tolist()
    return members, head_of


class TestFormClusters:
    def test_single_head_takes_everyone(self, make_deployment):
        coords = [(float(i), 0.0) for i in range(6)]
        members, head_of = clusters(make_deployment, coords, range(6), [2])
        assert members.tolist() == [0, 1, 3, 4, 5]
        assert head_of.tolist() == [0] * 5

    def test_equidistant_tie_goes_to_lower_head_id(self, make_deployment):
        coords = [(100.0, 100.0)] * 8
        coords[0], coords[3], coords[7] = (0.0, 0.0), (2.0, 0.0), (-2.0, 0.0)
        members, head_of = clusters(make_deployment, coords, [0, 3, 7], [3, 7])
        assert members.tolist() == [0]
        assert head_of.tolist() == [0]  # head 3, not head 7

    def test_zero_heads_leaves_all_unclustered(self, make_deployment):
        members, head_of = clusters(make_deployment, [(0.0, 0.0)] * 5, range(5), [])
        assert members.tolist() == [0, 1, 2, 3, 4]
        assert head_of is None

    def test_nearest_assignment(self, make_deployment):
        coords = [(0.0, 0.0), (10.0, 0.0), (1.0, 1.0), (9.0, 1.0)]
        members, head_of = clusters(make_deployment, coords, range(4), [0, 1])
        assert members.tolist() == [2, 3]
        assert head_of.tolist() == [0, 1]

    def test_dead_nodes_excluded(self, make_deployment):
        coords = [(float(i), 0.0) for i in range(4)]
        members, _ = clusters(make_deployment, coords, [0, 1, 2], [0])
        assert members.tolist() == [1, 2]
        unclustered, _ = clusters(make_deployment, coords, [0, 1, 2], [])
        assert unclustered.tolist() == [0, 1, 2]

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=1, max_value=50),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, make_deployment, seed, n, data):
        """Every alive node is a head, a member of exactly one head, or (only
        without heads) unclustered."""
        rng = random.Random(seed)
        coords = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        alive = [i for i in range(n) if rng.random() < 0.9]
        heads = sorted(data.draw(st.lists(st.sampled_from(alive), unique=True))) if alive else []
        members, head_of = clusters(make_deployment, coords, alive, heads)
        assert sorted(members.tolist() + heads) == alive
        if heads:
            assert len(head_of) == len(members)
            assert set(head_of.tolist()) <= set(range(len(heads)))
        else:
            assert head_of is None

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_members_join_nearest_head(self, make_deployment, seed):
        rng = random.Random(seed)
        coords = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(25)]
        heads = [0, 7, 19]
        members, head_of = clusters(make_deployment, coords, range(25), heads)

        def d2(a, b):
            return (coords[a][0] - coords[b][0]) ** 2 + (coords[a][1] - coords[b][1]) ** 2

        for member, k in zip(members.tolist(), head_of.tolist()):
            for other in heads:
                assert d2(member, heads[k]) <= d2(member, other)


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


SHARED_WORK = WorkArrays()


class TestStableOrder:
    @pytest.mark.parametrize("bound", [255, 256, 65535, 65536])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_int64_stable_argsort(self, bound, data):
        """At the uint8, uint16 and uint32 edges of the key type, with the
        bound itself among the keys and many ties."""
        keys = data.draw(st.lists(
            st.one_of(st.integers(0, bound), st.sampled_from([0, 1, bound - 1, bound])),
            max_size=300,
        ))
        keys = np.array(keys, dtype=np.int64)
        assert stable_order(keys, bound).tolist() == keys.argsort(kind="stable").tolist()


class TestNearestHeadSearch:
    """_nearest_grid must return _nearest_dense's indices exactly, ties
    included, at any size; form_clusters picks between them by pair count."""

    @given(
        head_member_layouts(),
        # blocks of 1-7 members put ties, empty 3x3 blocks and dense
        # re-scores on either side of a block edge
        st.one_of(st.integers(min_value=1, max_value=7), st.just(protocols.GRID_BLOCK_MEMBERS)),
    )
    @example(  # an outside head exactly at the bound ties the block's best
        (np.array([6.0, 0.0]), np.array([2.0, 6.0]),
         np.array([3.0, 6.0, 3.0, 5.0, 4.0, 3.0]), np.array([5.0, 5.0, 2.0, 6.0, 5.0, 0.0])),
        protocols.GRID_BLOCK_MEMBERS,
    )
    @settings(max_examples=300, deadline=None)
    def test_grid_matches_dense(self, layout, block):
        """Also with one set of work arrays reused, and regrown, across
        every layout, as a run reuses them across its rounds."""
        mx, my, hx, hy = layout
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocols, "GRID_BLOCK_MEMBERS", block)
            grid = _nearest_grid(mx, my, hx, hy)
            reused = _nearest_grid(mx, my, hx, hy, SHARED_WORK)
        assert grid.tolist() == reused.tolist() == _nearest_dense(mx, my, hx, hy).tolist()

    def test_last_block_partly_filled(self, monkeypatch):
        """1000 members in blocks of 7 end on a block of 6; on a small
        integer lattice many members tie between heads, and members past the
        heads' box score against border cells."""
        rng = np.random.default_rng(11)
        hx, hy = rng.integers(0, 6, (2, 40)).astype(float)
        mx, my = rng.integers(-2, 9, (2, 1000)).astype(float)
        monkeypatch.setattr(protocols, "GRID_BLOCK_MEMBERS", 7)
        assert len(mx) % protocols.GRID_BLOCK_MEMBERS
        assert _nearest_grid(mx, my, hx, hy).tolist() == _nearest_dense(mx, my, hx, hy).tolist()

    def test_peak_memory_bounded_at_n10000(self):
        """An n=10000 round (9289 members, 711 dbcp heads) peaks under
        2 MiB of traced numpy memory: member blocks bound every temporary,
        where one flat pass over all members would take about 6.5 MiB."""
        config = SimConfig(n=10000, protocol=ProtocolKind.DBCP, seed=3)
        rng = random.Random(config.seed)
        nodes = deploy(config, rng)
        state = initial_state(config, nodes)
        heads = elect_heads(state, state.alive, 0, DrawStream(rng))
        members = np.setdiff1d(state.alive, heads)
        assert (len(members), len(heads)) == (9289, 711)
        args = nodes.x[members], nodes.y[members], nodes.x[heads], nodes.y[heads]
        tracemalloc.start()
        try:
            _nearest_grid(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

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

    def test_one_block_spans_every_candidate_count(self, monkeypatch):
        """A knot of heads in one corner, a few along one edge and one in
        the far corner: the members of a single block sit in cells with no
        candidate, with the most (K) and with counts between."""
        rng = np.random.default_rng(8)
        hx, hy = np.concatenate([
            rng.uniform(0, 8, (2, 25)),
            [rng.uniform(10, 100, 8), rng.uniform(0, 10, 8)],
            [[100.0], [100.0]],
        ], axis=1)
        mx, my = rng.uniform(0, 100, (2, 600))
        orders = []

        def spy(keys, bound):
            orders.append((keys.tolist(), bound))
            return stable_order(keys, bound)

        monkeypatch.setattr(protocols, "stable_order", spy)
        assert _nearest_grid(mx, my, hx, hy).tolist() == _nearest_dense(mx, my, hx, hy).tolist()
        counts, most = orders[-1]  # the members, ordered by their cells' counts
        assert len(mx) <= protocols.GRID_BLOCK_MEMBERS
        assert min(counts) == 0 and max(counts) == most
        assert len(set(counts)) >= 5

    def test_tie_across_cells_goes_to_lower_index(self, monkeypatch):
        """Heads 0 and 1 lie 3 m above and below the member, in different
        cells; head 0's cell comes later in row order, so listing the
        candidates cell by cell would put head 1 first.  The grid decides
        this member itself, without the dense re-score."""
        angle = np.linspace(0, 2 * np.pi, 30, endpoint=False)
        hx = np.concatenate(([50.0, 50.0], 50 + 40 * np.cos(angle)))
        hy = np.concatenate(([53.0, 47.0], 50 + 40 * np.sin(angle)))
        mx, my = np.array([50.0]), np.array([50.0])
        rescored = []

        def spy(*args):
            rescored.append(len(args[0]))
            return _nearest_dense(*args)

        monkeypatch.setattr(protocols, "_nearest_dense", spy)
        assert _nearest_grid(mx, my, hx, hy).tolist() == [0]
        assert rescored == []

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_first_round_at_n1000_is_one_block(self, protocol, monkeypatch):
        config = SimConfig(n=1000, protocol=protocol, seed=5)
        rng = random.Random(config.seed)
        nodes = deploy(config, rng)
        state = initial_state(config, nodes)
        heads = elect_heads(state, state.alive, 0, DrawStream(rng))
        members, grid = form_clusters(state.alive, heads, nodes.x, nodes.y)
        assert len(members) <= protocols.GRID_BLOCK_MEMBERS
        assert len(members) * len(heads) >= protocols.GRID_MIN_PAIRS
        monkeypatch.setattr(protocols, "GRID_MIN_PAIRS", float("inf"))
        assert grid.tolist() == form_clusters(state.alive, heads, nodes.x, nodes.y)[1].tolist()

    def test_form_clusters_same_on_either_path(self, monkeypatch):
        nodes = deployed_network(n=2000, seed=4)
        alive, heads = np.arange(2000), np.arange(0, 2000, 10)
        monkeypatch.setattr(protocols, "GRID_MIN_PAIRS", float("inf"))
        members, dense = form_clusters(alive, heads, nodes.x, nodes.y)
        monkeypatch.setattr(protocols, "GRID_MIN_PAIRS", 0)
        members_grid, grid = form_clusters(alive, heads, nodes.x, nodes.y)
        assert members_grid.tolist() == members.tolist()
        assert grid.tolist() == dense.tolist()


class TestProtocolDegeneracies:
    def test_sep_run_identical_to_leach_when_homogeneous(self):
        """m = m0 = 0: same probabilities, same epochs, same rng consumption,
        so the two protocols elect identical head sequences."""
        config = SimConfig(n=30, seed=6, **HOMOGENEOUS)
        nodes = deploy(config, random.Random(config.seed))
        sequences = {}
        for protocol in (ProtocolKind.LEACH, ProtocolKind.SEP):
            state = state_for(protocol, nodes, **HOMOGENEOUS)
            draws = DrawStream(random.Random(99))
            sequences[protocol] = [
                elect_heads(state, state.alive, r, draws).tolist() for r in range(60)
            ]
        assert sequences[ProtocolKind.LEACH] == sequences[ProtocolKind.SEP]

    def test_dbcp_equals_sep_when_all_nodes_far(self, make_deployment):
        # co-located nodes all sit at the average distance, none nearer
        nodes = make_deployment([(90.0, 90.0)] * 10)
        results = {}
        for protocol in (ProtocolKind.SEP, ProtocolKind.DBCP):
            state = state_for(protocol, nodes)
            draws = DrawStream(random.Random(4))
            results[protocol] = [
                elect_heads(state, state.alive, r, draws).tolist() for r in range(30)
            ]
        assert results[ProtocolKind.SEP] == results[ProtocolKind.DBCP]
