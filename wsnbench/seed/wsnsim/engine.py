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

from .election import (
    EligibilityState,
    TierProbabilities,
    average_distance,
    weighted_probabilities,
)
from .model import Node, NodeTier, ProtocolKind, RadioParams, SimConfig, deploy
from .protocols import (
    ClusterAssignment,
    FieldGeometry,
    elect_heads,
    eligibility_for,
    form_clusters,
)
from .radio import aggregation_energy, crossover_distance

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RoundMetrics:
    """Per-round observables, sampled after deaths are applied.  `round` is 1-based."""

    round: int
    alive_total: int
    alive_normal: int
    alive_advanced: int
    alive_super: int
    head_count: int
    packets_to_bs_round: int
    packets_to_bs_cum: int
    residual_energy_j: float


@dataclass(frozen=True)
class SummaryMetrics:
    """Lifecycle landmarks; each is None if the event never happened before
    the round cap.  fnd = first death, hnd = alive count at or below half the
    deployment, lnd = last death."""

    fnd_round: int | None
    hnd_round: int | None
    lnd_round: int | None
    total_packets: int
    rounds_simulated: int


@dataclass
class RoundTransmissions:
    """Pure outcome of one round's transmissions: per-node energy costs,
    packets reaching the base station, and distance diagnostics."""

    costs: dict[int, float]
    packets: int
    member_distance_sum: float
    member_count: int
    head_distance_sum: float
    head_count: int


@dataclass
class EngineState:
    """Mutable state owned by a single run."""

    nodes: list[Node]
    nodes_by_id: dict[int, Node]
    geometry: FieldGeometry
    probs: TierProbabilities
    eligibility: EligibilityState
    d_avg: float
    alive_nodes: list[Node]
    alive_by_tier: dict[NodeTier, int]
    packets_cum: int = 0
    energy_dissipated: float = 0.0
    member_distance_sum: float = 0.0
    member_count: int = 0
    head_distance_sum: float = 0.0
    head_count_total: int = 0


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


def transmission_costs(
    assignment: ClusterAssignment,
    nodes_by_id: dict[int, Node],
    radio: RadioParams,
    bits: int,
) -> RoundTransmissions:
    """Energy cost of one round's traffic, keyed by node id.

    Members pay one transmission to their head; heads pay reception per
    member, aggregation over members+1 signals, and one transmission to the
    base station; unclustered nodes pay one transmission to the base station.
    Transmit cost is an inline copy of radio.tx_energy with the loop-invariant
    factors hoisted; the operation order matches exactly (guarded by tests).
    """
    d0 = crossover_distance(radio)
    e_elec, eps_fs, eps_mp = radio.e_elec, radio.eps_fs, radio.eps_mp
    elec_term = bits * e_elec  # == rx_energy(radio, bits)
    costs: dict[int, float] = {}
    packets = 0
    member_distance_sum = 0.0
    member_count = 0
    head_distance_sum = 0.0
    hypot = math.hypot
    for cluster in assignment.clusters:
        head = nodes_by_id[cluster.head_id]
        hx, hy = head.x, head.y
        for mid in cluster.member_ids:
            m = nodes_by_id[mid]
            d = hypot(m.x - hx, m.y - hy)
            d2 = d * d
            amp = eps_fs * d2 if d < d0 else eps_mp * d2 * d2
            costs[mid] = elec_term + bits * amp
            member_distance_sum += d
        n_members = len(cluster.member_ids)
        member_count += n_members
        d = head.distance_to_bs
        d2 = d * d
        amp = eps_fs * d2 if d < d0 else eps_mp * d2 * d2
        costs[cluster.head_id] = (
            n_members * elec_term
            + aggregation_energy(radio, bits, n_members + 1)
            + (elec_term + bits * amp)
        )
        head_distance_sum += d
        packets += 1
    for uid in assignment.unclustered:
        d = nodes_by_id[uid].distance_to_bs
        d2 = d * d
        amp = eps_fs * d2 if d < d0 else eps_mp * d2 * d2
        costs[uid] = elec_term + bits * amp
        packets += 1
    return RoundTransmissions(
        costs=costs,
        packets=packets,
        member_distance_sum=member_distance_sum,
        member_count=member_count,
        head_distance_sum=head_distance_sum,
        head_count=len(assignment.clusters),
    )


def simulate_round(
    state: EngineState,
    r: int,
    protocol: ProtocolKind,
    config: SimConfig,
    rng: random.Random,
) -> RoundMetrics:
    """Advance the network one round; returns metrics sampled at round end."""
    heads = elect_heads(
        protocol,
        state.alive_nodes,
        r,
        state.probs,
        config.p_opt,
        state.eligibility,
        state.d_avg,
        rng,
    )
    assignment = form_clusters(state.alive_nodes, heads, state.geometry)
    tr = transmission_costs(
        assignment, state.nodes_by_id, config.radio, config.packet_bits
    )

    by_id = state.nodes_by_id
    dissipated = state.energy_dissipated
    any_death = False
    for nid, cost in tr.costs.items():
        node = by_id[nid]
        e = node.residual_energy
        if cost < e:
            node.residual_energy = e - cost
            dissipated += cost
        else:
            # insufficient energy: the action still happened, clamp and die
            node.residual_energy = 0.0
            dissipated += e
            node.alive = False
            any_death = True
            state.alive_by_tier[node.tier] -= 1
    state.energy_dissipated = dissipated
    if any_death:
        state.alive_nodes = [n for n in state.alive_nodes if n.alive]

    state.packets_cum += tr.packets
    state.member_distance_sum += tr.member_distance_sum
    state.member_count += tr.member_count
    state.head_distance_sum += tr.head_distance_sum
    state.head_count_total += tr.head_count

    residual = 0.0
    for node in state.alive_nodes:
        residual += node.residual_energy
    by_tier = state.alive_by_tier
    return RoundMetrics(
        round=r + 1,
        alive_total=len(state.alive_nodes),
        alive_normal=by_tier[NodeTier.NORMAL],
        alive_advanced=by_tier[NodeTier.ADVANCED],
        alive_super=by_tier[NodeTier.SUPER],
        head_count=len(heads),
        packets_to_bs_round=tr.packets,
        packets_to_bs_cum=state.packets_cum,
        residual_energy_j=residual,
    )


def initial_state(config: SimConfig, nodes: list[Node]) -> EngineState:
    """Engine state for a fresh deployment; distance average and tier
    probabilities are fixed here and never recomputed."""
    probs = weighted_probabilities(config.p_opt, config.hetero)
    by_tier = {tier: 0 for tier in NodeTier}
    for node in nodes:
        by_tier[node.tier] += 1
    return EngineState(
        nodes=nodes,
        nodes_by_id={node.id: node for node in nodes},
        geometry=FieldGeometry(nodes),
        probs=probs,
        eligibility=eligibility_for(config.protocol, probs, config.p_opt),
        d_avg=average_distance(nodes),
        alive_nodes=list(nodes),
        alive_by_tier=by_tier,
    )


def run(config: SimConfig) -> RunResult:
    """Deploy and simulate until every node is dead or max_rounds is reached."""
    rng = random.Random(config.seed)
    nodes = deploy(config, rng)
    state = initial_state(config, nodes)
    initial_energy = 0.0
    for node in nodes:
        initial_energy += node.initial_energy

    series: list[RoundMetrics] = []
    fnd = hnd = lnd = None
    half = config.n // 2
    for r in range(config.max_rounds):
        metrics = simulate_round(state, r, config.protocol, config, rng)
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
        summary=SummaryMetrics(
            fnd_round=fnd,
            hnd_round=hnd,
            lnd_round=lnd,
            total_packets=state.packets_cum,
            rounds_simulated=len(series),
        ),
        d_avg=state.d_avg,
        initial_energy_j=initial_energy,
        energy_dissipated_j=state.energy_dissipated,
        mean_member_to_head_m=mean_member,
        mean_head_to_bs_m=mean_head,
    )
