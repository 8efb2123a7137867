"""Protocol-level election and cluster formation.

LEACH: every node runs the rotating threshold at the uniform rate p_opt.
SEP:   per-tier rates from weighted_probabilities, same rotation mechanics.
DBCP:  SEP rates with the near-node distance scaling applied on top.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .election import (
    EligibilityState,
    TierProbabilities,
    dbcp_threshold,
    epoch_length,
    sep_threshold,
)
from .model import Node, NodeTier, ProtocolKind

__all__ = [
    "ProtocolKind",
    "Cluster",
    "ClusterAssignment",
    "eligibility_for",
    "threshold_for",
    "elect_heads",
    "form_clusters",
]


@dataclass(frozen=True)
class Cluster:
    head_id: int
    member_ids: list[int]


@dataclass(frozen=True)
class ClusterAssignment:
    """One round's cluster structure.  Every alive node appears exactly once:
    as a head, as a member, or (only in zero-head rounds) unclustered."""

    clusters: list[Cluster]
    unclustered: list[int]


def eligibility_for(
    protocol: ProtocolKind, probs: TierProbabilities, p_opt: float
) -> EligibilityState:
    """Fresh eligibility bookkeeping with the epoch lengths the protocol uses."""
    if protocol is ProtocolKind.LEACH:
        e = epoch_length(p_opt)
        epochs = {tier: e for tier in NodeTier}
    else:
        epochs = {tier: epoch_length(probs.for_tier(tier)) for tier in NodeTier}
    return EligibilityState(epochs)


def threshold_for(
    protocol: ProtocolKind,
    node: Node,
    r: int,
    probs: TierProbabilities,
    p_opt: float,
    eligibility: EligibilityState,
    d_avg: float,
) -> float:
    """Election threshold for one alive node in round r."""
    eligible = eligibility.is_eligible(node, r)
    if protocol is ProtocolKind.LEACH:
        return sep_threshold(p_opt, r, eligible)
    p = probs.for_tier(node.tier)
    if protocol is ProtocolKind.SEP:
        return sep_threshold(p, r, eligible)
    return dbcp_threshold(p, r, eligible, node.distance_to_bs, d_avg)


def elect_heads(
    protocol: ProtocolKind,
    nodes: list[Node],
    r: int,
    probs: TierProbabilities,
    p_opt: float,
    eligibility: EligibilityState,
    d_avg: float,
    rng: random.Random,
) -> list[int]:
    """Draw one uniform per alive node in ascending id order; a node becomes
    head iff its draw falls below threshold_for.  Elected nodes are marked
    ineligible for the remainder of their tier epoch.  Returns head ids in
    ascending order.

    The per-tier base threshold is hoisted out of the node loop; per node only
    eligibility and (for DBCP) the cached distance factor vary.  This is the
    hot path of the whole simulator.
    """
    if protocol is ProtocolKind.LEACH:
        base = {tier: sep_threshold(p_opt, r, True) for tier in NodeTier}
    else:
        base = {
            tier: sep_threshold(probs.for_tier(tier), r, True) for tier in NodeTier
        }
    scaled = protocol is ProtocolKind.DBCP
    eligible_from = eligibility.eligible_from
    draw = rng.random
    heads: list[int] = []
    for node in nodes:
        if not node.alive:
            continue
        u = draw()  # every alive node draws, eligible or not (determinism contract)
        if r < eligible_from.get(node.id, 0):
            continue
        t = base[node.tier]
        if scaled and node.distance_to_bs < d_avg:
            t = t * (1.0 - node.distance_to_bs / d_avg)
        if u < t:
            heads.append(node.id)
            eligibility.mark_elected(node, r)
    return heads


class FieldGeometry:
    """Static per-run position arrays so nearest-head lookups do not rebuild
    numpy arrays from node objects every round."""

    def __init__(self, nodes: list[Node]):
        self.row_of = {node.id: i for i, node in enumerate(nodes)}
        self.x = np.array([node.x for node in nodes])
        self.y = np.array([node.y for node in nodes])


def form_clusters(
    nodes: list[Node], heads: list[int], geometry: FieldGeometry | None = None
) -> ClusterAssignment:
    """Attach every alive non-head node to its nearest head (Euclidean);
    equidistant ties go to the lower head id.  With no heads at all, every
    alive node is left unclustered."""
    head_ids = sorted(heads)
    if not head_ids:
        return ClusterAssignment(
            clusters=[], unclustered=[n.id for n in nodes if n.alive]
        )
    if geometry is None:
        geometry = FieldGeometry(nodes)
    head_set = frozenset(head_ids)
    member_ids = [n.id for n in nodes if n.alive and n.id not in head_set]
    cluster_members: dict[int, list[int]] = {h: [] for h in head_ids}
    if member_ids:
        row_of = geometry.row_of
        head_rows = [row_of[h] for h in head_ids]
        member_rows = [row_of[m] for m in member_ids]
        hx = geometry.x[head_rows]
        hy = geometry.y[head_rows]
        mx = geometry.x[member_rows]
        my = geometry.y[member_rows]
        d2 = (mx[:, None] - hx[None, :]) ** 2 + (my[:, None] - hy[None, :]) ** 2
        nearest = d2.argmin(axis=1)  # first minimum -> lowest head id on ties
        for mid, h_idx in zip(member_ids, nearest):
            cluster_members[head_ids[h_idx]].append(mid)
    return ClusterAssignment(
        clusters=[Cluster(h, cluster_members[h]) for h in head_ids],
        unclustered=[],
    )
