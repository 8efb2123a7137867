"""Round-based simulation engine.

Each round: elect heads, form clusters, charge every alive node for its
mandated transmissions, then clamp energies and mark deaths.  A node whose
residual energy cannot cover its action still performs it (the packet counts)
and dies at the end of the round.  Throughput counts only packets arriving at
the base station: one per head, plus one per node in zero-head fallback
rounds, where every alive node sends directly to the base station.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .model import Deployment, NodeTier, SimConfig, WorkArrays, deploy, link_lengths, uniforms
from .protocols import elect_heads, election_rule, form_clusters, squared_distances, stable_order
from .radio import aggregation_energy, rx_energy, tx_energy

# Largest network for which initial_state builds the PairTables.  On one core
# of a 2-vCPU Xeon VM, over the first 400 rounds of default-config runs (100
# rounds at n >= 500), best of three runs on two passes, the tables took
# 0.2-0.3, 0.4-0.6, 4.9-5.4, 25-28 and 87-98 ms to build at n = 50, 100, 256,
# 500 and 1000 and saved 96-130, 96-110, 87-122, 40-50 and 230-370 us per
# round, so they paid for themselves after about 2, 6, 60, 600 and 300
# rounds.  They take 3 * n * n * 8 bytes: 1.5 MiB at 256, 23 MiB at 1000.  A
# default n=100 run lasts 10000 rounds and an e0=0.05 one about 2400; at 256
# nodes a run breaks even within about 60 rounds and holds 1.5 MiB of tables.
PAIR_TABLE_MAX_NODES = 256

# Draws a DrawStream takes from its rng at a time.  On one core of a 2-vCPU
# Xeon VM (best of 5 timeit passes), model.uniforms took 116-124 ns a draw at
# k=100, 43-46 at 1024, 36-37 at 4096 and 33-34 at 8192, where np.fromiter
# over rng.random took 85-92 ns a draw at k=100.  Taking a round's draws
# with one uniforms call each would cost more than fromiter; a block of
# 8192 holds 64 KiB and lasts a default n=100 run about 80 rounds.
DRAW_BLOCK = 8192


class RoundMetrics(NamedTuple):
    """Per-round observables, sampled after deaths are applied.  `round` is
    1-based.  The fields, in order, are the series CSV header."""

    round: int
    alive_total: int
    alive_normal: int
    alive_advanced: int
    alive_super: int
    head_count: int
    packets_to_bs_round: int
    packets_to_bs_cum: int
    residual_energy_j: float


class Series:
    """A run's RoundMetrics rows, held as one numpy column per field.

    `columns` maps each RoundMetrics field, in order, to its column.  Each
    count column takes the narrowest type that holds its values (counts are
    never negative); the residual stays float64.  A default 10000-round run
    held 2.06 MiB as a list of RoundMetrics and holds 0.17 MiB as columns
    (tracemalloc, Python 3.11), and a Series pickles as its arrays.
    `series[i]` (negative i too) is a RoundMetrics of Python numbers, a
    slice is a Series of views and iteration gives the rows in order."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, np.ndarray]):
        self.columns = columns

    @classmethod
    def from_rows(cls, rows: Iterable[RoundMetrics]) -> Series:
        *counts, residual = list(zip(*rows)) or [()] * len(RoundMetrics._fields)
        columns = {}
        for name, values in zip(RoundMetrics._fields, counts):
            column = np.fromiter(values, np.uint64, len(values))
            columns[name] = column.astype(np.min_scalar_type(column.max(initial=0)))
        columns[RoundMetrics._fields[-1]] = np.fromiter(residual, np.float64, len(residual))
        return cls(columns)

    def tuples(self) -> Iterator[tuple]:
        """The rows as plain tuples of Python numbers: iteration without
        building a RoundMetrics per row."""
        return zip(*(column.tolist() for column in self.columns.values()))

    def __len__(self) -> int:
        return len(self.columns["round"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Series({name: column[index] for name, column in self.columns.items()})
        return RoundMetrics(*(column[index].item() for column in self.columns.values()))

    def __iter__(self) -> Iterator[RoundMetrics]:
        return map(RoundMetrics._make, self.tuples())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return all(map(np.array_equal, self.columns.values(), other.columns.values()))


class SummaryMetrics(NamedTuple):
    """Lifecycle landmarks; each is None if the event never happened before
    the round cap.  fnd = first death, hnd = alive count at or below half the
    deployment, lnd = last death.  The fields, in order, end the summary CSV
    header."""

    fnd_round: int | None
    hnd_round: int | None
    lnd_round: int | None
    total_packets: int
    rounds_simulated: int


class PairTables(NamedTuple):
    """Node x node tables of a run's fixed geometry, entry [i, j] for the
    pair (i, j): the squared distance form_clusters compares, the link
    length link_lengths measures, and tx_energy over that link for the
    run's packet_bits."""

    d2: np.ndarray
    link: np.ndarray
    tx: np.ndarray


@dataclass
class EngineState:
    """The node table of one run, every array indexed by node id, and the
    run's running totals.

    `alive` holds the ids of the alive nodes in ascending order.  A node may
    be elected again from round `eligible_from[i]` on.  `rotation` holds the
    rotation pair (1/p, epoch) of each tier's election rate p (NodeTier
    order); `factor` is each node's dbcp distance factor, 1 under leach and
    sep; `bs_cost` is each node's transmit cost to the base station;
    `fuse_cost[k]` is what a head pays to receive k members and fuse k+1
    signals; `pairs` holds the PairTables of a network of at most
    PAIR_TABLE_MAX_NODES nodes, else None, and `work` the WorkArrays that
    larger networks' rounds write their grid search's slabs, member link
    lengths and running sums into, else None.  All but `energy`, `alive`,
    `eligible_from`, `work` and the totals are fixed at initial_state.
    """

    config: SimConfig
    x: np.ndarray
    y: np.ndarray
    d_bs: np.ndarray
    tier: np.ndarray
    energy: np.ndarray
    alive: np.ndarray
    eligible_from: np.ndarray
    bs_cost: np.ndarray
    fuse_cost: np.ndarray
    rotation: tuple[tuple[float, int], ...]
    factor: np.ndarray
    pairs: PairTables | None
    work: WorkArrays | None
    d_avg: float
    alive_by_tier: list[int]
    packets_cum: int = 0
    energy_dissipated: float = 0.0
    member_distance_sum: float = 0.0
    member_count: int = 0
    head_distance_sum: float = 0.0
    head_count_total: int = 0


class DrawStream:
    """The random() values of `rng` in order, served k at a time by take(k).

    Draws are fetched through model.uniforms, DRAW_BLOCK at a time (or k, if
    k is larger), so the k-th value served is the k-th rng.random() value;
    the rng itself runs up to one block ahead of what has been served.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.block = np.empty(0)
        self.at = 0

    def take(self, k: int) -> np.ndarray:
        """The next k draws."""
        end = self.at + k
        if end > len(self.block):
            fresh = uniforms(self.rng, max(DRAW_BLOCK, k))
            self.block = np.concatenate((self.block[self.at :], fresh))
            self.at, end = 0, end - self.at
        draws = self.block[self.at : end]
        self.at = end
        return draws


class Ledger(NamedTuple):
    """One round's energy charges in the order the ledger adds them, a
    stable sort keyed on each member's head index and each head's own: cluster
    by cluster (ascending head id), its members in ascending id, then its
    head.  In zero-head rounds, every alive node in ascending id.  `links`
    holds the member-to-head distances in the members' order.  All three are
    fresh arrays, never views of a run's work arrays."""

    ids: np.ndarray
    costs: np.ndarray
    links: np.ndarray


@dataclass(frozen=True)
class RunResult:
    config: SimConfig
    series: Series
    summary: SummaryMetrics
    d_avg: float
    initial_energy_j: float
    energy_dissipated_j: float
    mean_member_to_head_m: float
    mean_head_to_bs_m: float

    def __post_init__(self):
        # rows given as a list, as a hand-built result may, become a Series
        if not isinstance(self.series, Series):
            object.__setattr__(self, "series", Series.from_rows(self.series))


def _sequential_sum(
    values: np.ndarray, start: float = 0.0, work: WorkArrays | None = None
) -> float:
    """start + values[0] + values[1] + ..., added left to right as a Python
    loop would (0.0 + v == v, so a zero start is left out).  np.sum adds
    pairwise and builtin sum compensates (Python 3.12+), and either can
    change the last bit.  With `work`, the running sum is taken in a work
    array with start as its first term: 0.0 + v == v for every v but -0.0,
    which no engine sum holds (costs, links and energies are +0.0 or more)."""
    if not len(values):
        return float(start)
    if work is not None:
        sums = work.get("sums", len(values) + 1)
        sums[0] = start
        sums[1:] = values
        return float(np.add.accumulate(sums, out=sums)[-1])
    if start:
        values = values.copy()
        values[0] += start  # start + values[0]: addition commutes exactly
    return float(np.add.accumulate(values)[-1])


def _mean(total: float, count: int) -> float:
    """total / count, or NaN when nothing was counted."""
    return total / count if count else math.nan


def pair_tables(config: SimConfig, x: np.ndarray, y: np.ndarray) -> PairTables:
    """The PairTables of nodes at (x, y).  math.hypot ignores the signs of
    its arguments, so each link is measured once and mirrored."""
    i, j = np.triu_indices(len(x), 1)
    link = np.zeros((len(x), len(x)))
    link[i, j] = link[j, i] = link_lengths(x[i] - x[j], y[i] - y[j])
    return PairTables(squared_distances(x, y, x, y), link, tx_energy(config, link))


def transmission_costs(
    state: EngineState,
    heads: np.ndarray,
    members: np.ndarray,
    head_of: np.ndarray | None,
) -> Ledger:
    """Energy cost of one round's traffic, for the clusters form_clusters
    returned, priced for the run's config.

    Members pay one transmission to their head; heads pay reception per
    member, aggregation over members+1 signals, and one transmission to the
    base station, all in the Ledger's order (one stable_order on the head
    index).  Without heads (`head_of` None) every node of `members` pays one
    transmission to the base station.  Member links and their costs come
    from the run's PairTables if it has them; otherwise they are measured
    here, into the run's work array for links.
    """
    if head_of is None:
        return Ledger(members, state.bs_cost[members], np.empty(0))
    n_members = np.bincount(head_of, minlength=len(heads))
    head_costs = state.fuse_cost[n_members] + state.bs_cost[heads]
    if state.pairs is not None:
        at = members * len(state.x) + heads[head_of]
        links, member_costs = state.pairs.link.take(at), state.pairs.tx.take(at)
    else:
        head_ids = heads[head_of]
        dx, dy = state.x[members] - state.x[head_ids], state.y[members] - state.y[head_ids]
        links = link_lengths(dx, dy, state.work)
        member_costs = tx_energy(state.config, links)
    # member j keyed by head_of[j], head k by k; stable keeps members first
    order = stable_order(np.concatenate((head_of, np.arange(len(heads)))), len(heads))
    ids = np.concatenate((members, heads))[order]
    costs = np.concatenate((member_costs, head_costs))[order]
    return Ledger(ids, costs, links[order[order < len(members)]])


def simulate_round(state: EngineState, r: int, draws: DrawStream) -> RoundMetrics:
    """Advance the network one round, taking one draw per alive node from
    `draws`; returns metrics sampled at round end."""
    alive = state.alive
    heads = elect_heads(state, alive, r, draws)
    pairs = state.pairs
    members, head_of = form_clusters(
        alive, heads, state.x, state.y, None if pairs is None else pairs.d2, state.work
    )
    ledger = transmission_costs(state, heads, members, head_of)

    # a node that cannot cover its cost still acts, then dies with 0 J left;
    # the ledger charges it only what it had
    ids, work = ledger.ids, state.work
    energy = state.energy[ids]
    spent = np.minimum(ledger.costs, energy)
    left = energy - spent
    state.energy[ids] = left
    state.energy_dissipated = _sequential_sum(spent, state.energy_dissipated, work)
    if np.count_nonzero(left) < len(left):
        # every alive node was charged, and only the dead hold 0 J
        state.alive = alive[state.energy[alive] > 0.0]
        state.alive_by_tier = np.bincount(
            state.tier[state.alive], minlength=len(NodeTier)
        ).tolist()

    packets = len(heads) or len(alive)
    state.packets_cum += packets
    state.member_distance_sum += _sequential_sum(ledger.links, work=work)
    state.member_count += len(ledger.links)
    state.head_distance_sum += _sequential_sum(state.d_bs[heads])
    state.head_count_total += len(heads)

    return RoundMetrics(
        r + 1,
        len(state.alive),
        *state.alive_by_tier,
        len(heads),
        packets,
        state.packets_cum,
        # dead nodes hold exactly 0.0, so summing every node adds nothing
        # to the alive nodes' sum in ascending id
        _sequential_sum(state.energy, work=work),
    )


def initial_state(config: SimConfig, nodes: Deployment) -> EngineState:
    """Engine state for a fresh deployment; the distance average, the
    election rule's rotation pairs and factors, the base-station
    transmit costs, the heads' fuse costs and, for a small network, the pair
    tables are fixed here and never recomputed."""
    n = len(nodes.x)
    d_avg = _sequential_sum(nodes.d_bs) / n
    rotation, factor = election_rule(config, nodes.d_bs, d_avg)
    k = np.arange(n)  # a head's member count
    pairs = pair_tables(config, nodes.x, nodes.y) if n <= PAIR_TABLE_MAX_NODES else None
    return EngineState(
        config=config,
        x=nodes.x,
        y=nodes.y,
        d_bs=nodes.d_bs,
        tier=nodes.tier,
        energy=nodes.energy.copy(),
        alive=np.arange(n),
        eligible_from=np.zeros(n, dtype=np.int64),
        bs_cost=tx_energy(config, nodes.d_bs),
        fuse_cost=k * rx_energy(config) + aggregation_energy(config, k + 1),
        rotation=rotation,
        factor=factor,
        pairs=pairs,
        work=WorkArrays() if pairs is None else None,
        d_avg=d_avg,
        alive_by_tier=np.bincount(nodes.tier, minlength=len(NodeTier)).tolist(),
    )


def run(config: SimConfig) -> RunResult:
    """Deploy and simulate until every node is dead or max_rounds is reached.

    One random.Random(config.seed) serves the run: deploy takes its first 2n
    draws, and the rounds take the rest in order through a DrawStream."""
    rng = random.Random(config.seed)
    nodes = deploy(config, rng)
    draws = DrawStream(rng)
    state = initial_state(config, nodes)
    initial_energy = _sequential_sum(nodes.energy)

    rows: list[RoundMetrics] = []
    fnd = hnd = lnd = None
    half = config.n // 2
    for r in range(config.max_rounds):
        metrics = simulate_round(state, r, draws)
        rows.append(metrics)
        alive = metrics.alive_total
        if fnd is None and alive < config.n:
            fnd = metrics.round
        if hnd is None and alive <= half:
            hnd = metrics.round
        if alive == 0:
            lnd = metrics.round
            break

    return RunResult(
        config=config,
        series=Series.from_rows(rows),
        summary=SummaryMetrics(fnd, hnd, lnd, state.packets_cum, len(rows)),
        d_avg=state.d_avg,
        initial_energy_j=initial_energy,
        energy_dissipated_j=state.energy_dissipated,
        mean_member_to_head_m=_mean(state.member_distance_sum, state.member_count),
        mean_head_to_bs_m=_mean(state.head_distance_sum, state.head_count_total),
    )
