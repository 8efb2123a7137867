"""Round-based simulation engine.

Each round: elect heads, form clusters, charge every alive node for its
mandated transmissions, then clamp energies and mark deaths.  A node whose
residual energy cannot cover its action still performs it (the packet counts)
and dies at the end of the round.  Throughput counts only packets arriving at
the base station: one per head, plus one per node in zero-head fallback
rounds, where every alive node sends directly to the base station.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .election import epoch_length, weighted_probabilities
from .model import Deployment, NodeTier, SimConfig, deploy
from .protocols import elect_heads, election_rule, form_clusters
from .radio import aggregation_energy, rx_energy, tx_energy

logger = logging.getLogger(__name__)


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


@dataclass
class EngineState:
    """The node table of one run, every array indexed by node id, and the
    run's running totals.

    `alive` holds the ids of the alive nodes in ascending order.  A node may
    be elected again from round `eligible_from[i]` on.  `rate` and `epoch`
    hold the election rate and eligibility epoch of each tier (NodeTier
    order); `factor` is each node's dbcp distance factor, 1 under leach and
    sep; `bs_cost` is each node's transmit cost to the base station.  All
    but `energy`, `alive`, `eligible_from` and the totals are fixed at
    initial_state.
    """

    x: np.ndarray
    y: np.ndarray
    d_bs: np.ndarray
    tier: np.ndarray
    energy: np.ndarray
    alive: np.ndarray
    eligible_from: np.ndarray
    bs_cost: np.ndarray
    rate: tuple[float, ...]
    epoch: np.ndarray
    factor: np.ndarray
    d_avg: float
    alive_by_tier: list[int]
    packets_cum: int = 0
    energy_dissipated: float = 0.0
    member_distance_sum: float = 0.0
    member_count: int = 0
    head_distance_sum: float = 0.0
    head_count_total: int = 0


class Ledger(NamedTuple):
    """One round's energy charges in the order the ledger adds them: cluster
    by cluster (ascending head id), each cluster's members in ascending id
    and then its head; in zero-head rounds, every alive node in ascending id.
    `links` holds the member-to-head distances in the same order."""

    ids: np.ndarray
    costs: np.ndarray
    links: np.ndarray


@dataclass(frozen=True)
class RunResult:
    config: SimConfig
    series: list[RoundMetrics]
    summary: SummaryMetrics
    d_avg: float
    initial_energy_j: float
    energy_dissipated_j: float
    mean_member_to_head_m: float
    mean_head_to_bs_m: float


def _sequential_sum(values: np.ndarray, start: float = 0.0) -> float:
    """start + values[0] + values[1] + ..., added left to right as a Python
    loop would (0.0 + v == v, so a zero start is left out).  np.sum adds
    pairwise and builtin sum compensates (Python 3.12+), and either can
    change the last bit."""
    if start:
        values = np.concatenate(([start], values))
    elif not len(values):
        return 0.0
    return float(np.add.accumulate(values)[-1])


def transmission_costs(
    state: EngineState,
    heads: np.ndarray,
    members: np.ndarray,
    head_of: np.ndarray | None,
    config: SimConfig,
) -> Ledger:
    """Energy cost of one round's traffic, for the clusters form_clusters
    returned, priced for the config's packet_bits.

    Members pay one transmission to their head; heads pay reception per
    member, aggregation over members+1 signals, and one transmission to the
    base station.  Without heads (`head_of` None) every node of `members`
    pays one transmission to the base station.  Member links are measured
    with math.hypot, which np.hypot does not match in the last bit.
    """
    if head_of is None:
        return Ledger(members, state.bs_cost[members], np.empty(0))
    order = head_of.argsort(kind="stable")  # cluster by cluster, ids ascending
    members, head_of = members[order], head_of[order]
    head_ids = heads[head_of]
    dx = state.x[members] - state.x[head_ids]
    dy = state.y[members] - state.y[head_ids]
    links = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
    n_members = np.bincount(head_of, minlength=len(heads))
    # member j of cluster k follows k heads; head k follows its cluster
    member_at = np.arange(len(members)) + head_of
    head_at = n_members.cumsum() + np.arange(len(heads))
    ids = np.empty(len(members) + len(heads), dtype=np.intp)
    costs = np.empty(len(ids))
    bits = config.packet_bits
    ids[member_at], costs[member_at] = members, tx_energy(config, bits, links)
    ids[head_at] = heads
    costs[head_at] = (
        n_members * rx_energy(config, bits)
        + aggregation_energy(config, bits, n_members + 1)
        + state.bs_cost[heads]
    )
    return Ledger(ids, costs, links)


def simulate_round(
    state: EngineState, r: int, config: SimConfig, rng: random.Random
) -> RoundMetrics:
    """Advance the network one round; returns metrics sampled at round end."""
    alive = state.alive
    heads = elect_heads(state, alive, r, rng)
    members, head_of = form_clusters(alive, heads, state.x, state.y)
    ledger = transmission_costs(state, heads, members, head_of, config)

    # a node that cannot cover its cost still acts, then dies with 0 J left;
    # the ledger charges it only what it had
    ids = ledger.ids
    energy = state.energy[ids]
    spent = np.minimum(ledger.costs, energy)
    left = energy - spent
    state.energy[ids] = left
    state.energy_dissipated = _sequential_sum(spent, state.energy_dissipated)
    dead = ids[left == 0.0]
    if len(dead):
        state.alive = np.setdiff1d(alive, dead, assume_unique=True)
        for t in state.tier[dead].tolist():
            state.alive_by_tier[t] -= 1

    packets = len(heads) or len(alive)
    state.packets_cum += packets
    state.member_distance_sum += _sequential_sum(ledger.links)
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
        _sequential_sum(state.energy),
    )


def initial_state(config: SimConfig, nodes: Deployment) -> EngineState:
    """Engine state for a fresh deployment; the distance average, the
    election rule's rates, epochs and factors, and the base-station transmit
    costs are fixed here and never recomputed."""
    n = len(nodes.x)
    d_avg = _sequential_sum(nodes.d_bs) / n
    probs = weighted_probabilities(config)
    rate, factor = election_rule(config.protocol, config.p_opt, probs, nodes.d_bs, d_avg)
    return EngineState(
        x=nodes.x,
        y=nodes.y,
        d_bs=nodes.d_bs,
        tier=nodes.tier,
        energy=nodes.energy.copy(),
        alive=np.arange(n),
        eligible_from=np.zeros(n, dtype=np.int64),
        bs_cost=tx_energy(config, config.packet_bits, nodes.d_bs),
        rate=rate,
        epoch=np.array([epoch_length(p) for p in rate]),
        factor=factor,
        d_avg=d_avg,
        alive_by_tier=np.bincount(nodes.tier, minlength=len(NodeTier)).tolist(),
    )


def run(config: SimConfig) -> RunResult:
    """Deploy and simulate until every node is dead or max_rounds is reached."""
    rng = random.Random(config.seed)
    nodes = deploy(config, rng)
    state = initial_state(config, nodes)
    initial_energy = _sequential_sum(nodes.energy)

    series: list[RoundMetrics] = []
    fnd = hnd = lnd = None
    half = config.n // 2
    for r in range(config.max_rounds):
        metrics = simulate_round(state, r, config, rng)
        series.append(metrics)
        alive = metrics.alive_total
        if fnd is None and alive < config.n:
            fnd = metrics.round
        if hnd is None and alive <= half:
            hnd = metrics.round
        if alive == 0:
            lnd = metrics.round
            break

    mean_member = (
        state.member_distance_sum / state.member_count if state.member_count else math.nan
    )
    mean_head = (
        state.head_distance_sum / state.head_count_total
        if state.head_count_total
        else math.nan
    )
    logger.debug(
        "%s seed=%d: mean member->head %.2f m + mean head->BS %.2f m vs deployment mean %.2f m",
        config.protocol.value,
        config.seed,
        mean_member,
        mean_head,
        state.d_avg,
    )
    return RunResult(
        config=config,
        series=series,
        summary=SummaryMetrics(fnd, hnd, lnd, state.packets_cum, len(series)),
        d_avg=state.d_avg,
        initial_energy_j=initial_energy,
        energy_dissipated_j=state.energy_dissipated,
        mean_member_to_head_m=mean_member,
        mean_head_to_bs_m=mean_head,
    )
