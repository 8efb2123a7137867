"""Round-based simulation engine.

Each round: elect heads, form clusters, charge every alive node for its
mandated transmissions, then clamp energies and mark deaths.  A node whose
residual energy cannot cover its action still performs it (the packet counts)
and dies at the end of the round.  Throughput counts only packets arriving at
the base station: one per head, plus one per node in zero-head fallback
rounds, where every alive node sends directly to the base station.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .model import Deployment, NodeTier, SimConfig, WorkArrays, deploy, link_lengths, uniforms
from .protocols import (
    ElectionWindow,
    elect_heads,
    election_rule,
    form_clusters,
    squared_distances,
    stable_order,
)
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

# Rounds that run holds as RoundMetrics before converting them to columns,
# and rows whose columns column_chunks turns into Python numbers at a time.
# On one core of a 2-vCPU Xeon VM (Python 3.11, tracemalloc), a default
# 10000-round run peaked at 0.95, 0.81, 0.84, 0.92, 1.11 and 1.75 MiB with
# chunks of 64, 256, 512, 1024, 2048 and 4096 rounds, against 3.66 MiB
# holding every row, and its CPU time stayed at 0.34-0.39 s (best of 3).
# write_series of that run held 0.04, 0.07, 0.11, 0.19, 0.35 and 0.66 MiB
# more at its peak, against 1.55 MiB converting whole columns.  Smaller
# chunks join more pieces for no less peak.
SERIES_CHUNK = 1024


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


def column_chunks(columns: Sequence[np.ndarray]) -> Iterator[list[list]]:
    """Each SERIES_CHUNK rows of equal-length 1-D `columns`, as one list of
    Python numbers per column."""
    for start in range(0, len(columns[0]), SERIES_CHUNK):
        yield [column[start : start + SERIES_CHUNK].tolist() for column in columns]


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

    @classmethod
    def joined(cls, parts: Sequence[Series]) -> Series:
        """The rows of `parts`, in order, as one Series.  Each count column
        takes the widest of the parts' types, which for unsigned types is
        the narrowest type that holds the joined column's largest value."""
        return cls({
            name: np.concatenate([part.columns[name] for part in parts])
            for name in RoundMetrics._fields
        })

    def tuples(self) -> Iterator[tuple]:
        """The rows as plain tuples of Python numbers: iteration without
        building a RoundMetrics per row."""
        # no name holds a chunk's lists, so they go once its zip is exhausted
        chunks = column_chunks(list(self.columns.values()))
        return itertools.chain.from_iterable(itertools.starmap(zip, chunks))

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
    length link_lengths measures (read by DistanceTally alone), and tx_energy
    over that link for the run's packet_bits.  `row[i]` is i * n, where row
    i starts in the flattened tables."""

    d2: np.ndarray
    link: np.ndarray
    tx: np.ndarray
    row: np.ndarray


@dataclass
class EngineState:
    """One run's node table, every array indexed by node id, and its running
    totals of packets delivered and energy dissipated: what pricing a round
    needs, and no distance bookkeeping (see DistanceTally).

    set_alive gathers the alive ids `alive` (ascending) with their tiers
    `alive_tier`, distance factors `alive_factor` and per-tier counts
    `alive_by_tier`, so a round does not.  A node may be elected again from
    round `eligible_from[i]` on.  `rotation` holds each tier's rotation pair
    (1/p, epoch) in NodeTier order and `election_window` their rule over
    the window of rounds the last election fell in; `factor` is the dbcp
    distance factor (1 under leach and sep), `bs_cost` the transmit cost to
    the base station and `fuse_cost[k]` what a head pays to receive k
    members and fuse k+1 signals.  `pairs` holds the PairTables of a
    network of at most PAIR_TABLE_MAX_NODES nodes; a larger one has `work`,
    the WorkArrays its rounds write their grid slabs, member links and
    running sums into.  `ramp` is 0..n-1, sliced instead of an arange.
    Only `energy`, the alive columns, `eligible_from`, `election_window`,
    `work` and the totals change after initial_state.
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
    ramp: np.ndarray
    alive_tier: np.ndarray = field(init=False)
    alive_factor: np.ndarray = field(init=False)
    alive_by_tier: list[int] = field(init=False)
    election_window: ElectionWindow = field(init=False)
    packets_cum: int = 0
    energy_dissipated: float = 0.0

    def __post_init__(self):
        self.set_alive(self.alive)
        # covers no round, so the first election builds the first window
        self.election_window = ElectionWindow(0, np.empty((0, 0)), np.empty((0, 0), np.int64))

    def set_alive(self, alive: np.ndarray) -> None:
        """Make `alive` (ascending ids) the alive nodes and gather their
        columns; a run does so at most once per death."""
        self.alive = alive
        self.alive_tier = self.tier[alive]
        self.alive_factor = self.factor[alive]
        self.alive_by_tier = np.bincount(self.alive_tier, minlength=len(NodeTier)).tolist()


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
    """One round's charges, `costs[k]` to node `ids[k]`, in the order the
    ledger adds them, a stable sort keyed on each member's head index and
    each head's own: cluster by cluster (ascending head id), its members in
    ascending id, then its head.  In zero-head rounds, every alive node in
    ascending id.  Both are fresh arrays, never views of work arrays."""

    ids: np.ndarray
    costs: np.ndarray


@dataclass(frozen=True)
class RunResult:
    """A run's config, series and summary, its nodes' mean distance to the
    base station (m) and the energy they held and dissipated (J)."""

    config: SimConfig
    series: Series
    summary: SummaryMetrics
    d_avg: float
    initial_energy_j: float
    energy_dissipated_j: float


def _sequential_sum(values: np.ndarray, work: WorkArrays | None = None) -> float:
    """values[0] + values[1] + ..., added left to right as a Python loop
    would.  np.sum adds pairwise and builtin sum compensates (Python 3.12+),
    and either can change the last bit.  With `work`, the running sum is
    taken in a work array, which saves a large round minor faults."""
    if not len(values):
        return 0.0
    sums = None if work is None else work.get("sums", len(values))
    return float(np.add.accumulate(values, out=sums)[-1])


class DistanceTally:
    """The mean member-to-head link and head-to-base-station distance of the
    rounds that run(config, tally) hands it, those that elect a head.  Each
    round's links are added cluster by cluster, its heads in ascending id,
    the seed copy's order; without PairTables the links are measured again."""

    def __init__(self) -> None:
        self.member_sum = self.head_sum = 0.0
        self.member_count = self.head_count = 0

    def add(self, state: EngineState, heads, members, head_of) -> None:
        """Count one round's clusters, as form_clusters returned them."""
        order = stable_order(head_of, len(heads))
        ids, to = members[order], heads[head_of[order]]
        if state.pairs is not None:
            links = state.pairs.link[ids, to]
        else:
            links = link_lengths(state.x[ids] - state.x[to], state.y[ids] - state.y[to])
        self.member_sum += _sequential_sum(links)
        self.member_count += len(links)
        self.head_sum += _sequential_sum(state.d_bs[heads])
        self.head_count += len(heads)

    def means(self) -> tuple[float, float]:
        """(member-to-head, head-to-bs) means in metres, NaN over no link."""
        m, h = self.member_count, self.head_count
        return self.member_sum / m if m else math.nan, self.head_sum / h if h else math.nan


def pair_tables(config: SimConfig, x: np.ndarray, y: np.ndarray) -> PairTables:
    """The PairTables of nodes at (x, y).  math.hypot ignores the signs of
    its arguments, so each link is measured once and mirrored."""
    n = len(x)
    i, j = np.triu_indices(n, 1)
    link = np.zeros((n, n))
    link[i, j] = link[j, i] = link_lengths(x[i] - x[j], y[i] - y[j])
    d2 = squared_distances(x, y, x, y)
    return PairTables(d2, link, tx_energy(config, link), np.arange(0, n * n, n))


def transmission_costs(
    state: EngineState, heads: np.ndarray, members: np.ndarray, head_of: np.ndarray | None
) -> Ledger:
    """Energy cost of one round's traffic, for the clusters form_clusters
    returned, priced for the run's config.

    Members pay one transmission to their head; heads pay reception per
    member, aggregation over members+1 signals, and one transmission to the
    base station, all in the Ledger's order (one stable sort on the head
    index).  Without heads (`head_of` None) every node of `members` pays one
    transmission to the base station.  Member costs come from the run's
    PairTables if it has them; otherwise the links are measured into the
    run's work array for links and priced.
    """
    if head_of is None:
        return Ledger(members, state.bs_cost[members])
    n_members = np.bincount(head_of, minlength=len(heads))
    head_costs = state.fuse_cost[n_members] + state.bs_cost[heads]
    head_ids = heads[head_of]
    # member j keyed by head_of[j], head k by k; stable keeps members first
    keys = np.concatenate((head_of, state.ramp[: len(heads)]))
    pairs = state.pairs
    if pairs is not None:
        at = pairs.row[members]
        at += head_ids
        member_costs = pairs.tx.take(at)
        # on at most PAIR_TABLE_MAX_NODES keys, narrowing them for a radix
        # sort costs more than it saves
        order = keys.argsort(kind="stable")
    else:
        dx, dy = state.x[members] - state.x[head_ids], state.y[members] - state.y[head_ids]
        member_costs = tx_energy(state.config, link_lengths(dx, dy, state.work))
        order = stable_order(keys, len(heads))
    ids = np.concatenate((members, heads))[order]
    costs = np.concatenate((member_costs, head_costs))[order]
    return Ledger(ids, costs)


def simulate_round(
    state: EngineState, r: int, draws: DrawStream, observer: DistanceTally | None = None
) -> RoundMetrics:
    """Advance the network one round, taking one draw per alive node from
    `draws`; returns metrics sampled at round end.  `observer` counts the
    clusters if the round elects a head."""
    alive = state.alive
    heads = elect_heads(state, alive, r, draws)
    pairs = state.pairs
    members, head_of = form_clusters(
        alive, heads, state.x, state.y, None if pairs is None else pairs.d2, state.work
    )
    ledger = transmission_costs(state, heads, members, head_of)

    # a node that cannot cover its cost still acts, then dies with 0 J left;
    # the ledger charges it only what it had
    ids = ledger.ids
    energy = state.energy[ids]
    spent = np.minimum(ledger.costs, energy)
    left = energy - spent
    state.energy[ids] = left
    # spent is fresh and never empty: the running total goes in as its
    # first term (addition commutes exactly)
    spent[0] += state.energy_dissipated
    state.energy_dissipated = _sequential_sum(spent, state.work)
    if np.count_nonzero(left) < len(left):
        # every alive node was charged, and only the dead hold 0 J
        state.set_alive(alive[state.energy[alive] > 0.0])

    packets = len(heads) or len(alive)
    state.packets_cum += packets
    if observer is not None and len(heads):
        observer.add(state, heads, members, head_of)

    return RoundMetrics(
        r + 1,
        len(state.alive),
        *state.alive_by_tier,
        len(heads),
        packets,
        state.packets_cum,
        # dead nodes hold exactly 0.0, so summing every node adds nothing
        # to the alive nodes' sum in ascending id
        _sequential_sum(state.energy, state.work),
    )


def initial_state(config: SimConfig, nodes: Deployment) -> EngineState:
    """Engine state for a fresh deployment; the distance average, the
    election rule's rotation pairs and factors, the base-station
    transmit costs, the heads' fuse costs and, for a small network, the pair
    tables are fixed here and never recomputed."""
    n = len(nodes.x)
    d_avg = _sequential_sum(nodes.d_bs) / n
    rotation, factor = election_rule(config, nodes.d_bs, d_avg)
    k = np.arange(n)  # a head's member count, and the run's ramp
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
        ramp=k,
    )


def run(config: SimConfig, observer: DistanceTally | None = None) -> RunResult:
    """Deploy and simulate until every node is dead or max_rounds is reached.

    One random.Random(config.seed) serves the run: deploy takes its first 2n
    draws, and the rounds, each handed `observer`, the rest in order."""
    rng = random.Random(config.seed)
    nodes = deploy(config, rng)
    draws = DrawStream(rng)
    state = initial_state(config, nodes)
    initial_energy = _sequential_sum(nodes.energy)

    chunks: list[Series] = []
    rows: list[RoundMetrics] = []
    fnd = hnd = lnd = None
    half = config.n // 2
    for r in range(config.max_rounds):
        metrics = simulate_round(state, r, draws, observer)
        rows.append(metrics)
        if len(rows) == SERIES_CHUNK:
            chunks.append(Series.from_rows(rows))
            rows = []
        alive = metrics.alive_total
        if fnd is None and alive < config.n:
            fnd = metrics.round
        if hnd is None and alive <= half:
            hnd = metrics.round
        if alive == 0:
            lnd = metrics.round
            break

    chunks.append(Series.from_rows(rows))
    series = Series.joined(chunks)
    return RunResult(
        config=config,
        series=series,
        summary=SummaryMetrics(fnd, hnd, lnd, state.packets_cum, len(series)),
        d_avg=state.d_avg,
        initial_energy_j=initial_energy,
        energy_dissipated_j=state.energy_dissipated,
    )
