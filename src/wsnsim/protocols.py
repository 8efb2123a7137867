"""Protocol-level election and cluster formation.

LEACH: every node runs the rotating threshold at the uniform rate p_opt.
SEP:   per-tier rates from weighted_probabilities, same rotation mechanics.
DBCP:  SEP rates with the near-node distance scaling applied on top.
"""

from __future__ import annotations

import math
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


# Member x head pair count from which form_clusters searches a cell grid
# instead of the full distance matrix.  On one core of a 2-vCPU Xeon VM, with
# nine members per head, the dense kernel took 0.16-0.21 ms at 4.4e4 pairs
# against 0.32-0.47 ms for the grid, and 0.43-0.60 ms at 5.8e4 against
# 0.36-0.53 ms.  The default n=100 round has about 900 pairs and stays dense;
# n=1000 has about 9e4 and n=10000 about 9e6.
GRID_MIN_PAIRS = 50_000


def _nearest_dense(mx, my, hx, hy) -> np.ndarray:
    """Index of each member's nearest head: the first minimum of the full
    member x head matrix of squared distances, so ties go to the lowest
    head index."""
    d2 = (mx[:, None] - hx[None, :]) ** 2 + (my[:, None] - hy[None, :]) ** 2
    return d2.argmin(axis=1)


def _nearest_grid(mx, my, hx, hy) -> np.ndarray:
    """_nearest_dense's result, bit for bit, without the full matrix.

    Heads are bucketed into square cells of about two heads each over their
    bounding box; members outside the box fall into its border cells.  Each
    member is scored against the heads of its 3x3 block of cells with the
    dense kernel's expression, and ties go to the lowest head index.  The
    result is accepted when that best squared distance is strictly below a
    bound every head outside the block meets: the squared gap to the nearest
    coordinate such a head can have, taken from the heads themselves, on
    each side of the block (infinite where no head lies beyond).  Cell
    indices rise with the coordinate, so that gap is exact in floating point
    and needs no margin.  Every other member is re-scored by _nearest_dense.
    """
    n_members, n_heads = len(mx), len(hx)
    x0, y0 = hx.min(), hy.min()
    w, h = hx.max() - x0, hy.max() - y0
    cells = max(1.0, n_heads / 2)
    # square cells; a box thinner than one cell gets a single row or column
    side = max(math.sqrt(w * h / cells), max(w, h) / cells) or 1.0
    nx, ny = max(1, math.ceil(w / side)), max(1, math.ceil(h / side))

    def cell_of(v, v0, count):
        return np.clip(np.floor((v - v0) / side), 0, count - 1).astype(np.intp)

    hcol, hrow, mcol, mrow = (
        cell_of(hx, x0, nx), cell_of(hy, y0, ny), cell_of(mx, x0, nx), cell_of(my, y0, ny)
    )
    head_cell = hrow * nx + hcol
    by_cell = np.argsort(head_cell, kind="stable")  # ascending index within a cell
    start = np.zeros(nx * ny + 1, dtype=np.intp)
    np.cumsum(np.bincount(head_cell, minlength=nx * ny), out=start[1:])

    # one contiguous run of by_cell per block row: columns mcol-1..mcol+1
    rows = mrow[:, None] + np.arange(-1, 2)
    in_grid = (rows >= 0) & (rows < ny)
    first_cell = np.clip(rows, 0, ny - 1) * nx
    lo = start[first_cell + np.maximum(mcol - 1, 0)[:, None]]
    hi = start[first_cell + np.minimum(mcol + 1, nx - 1)[:, None] + 1]
    runs = np.where(in_grid, hi - lo, 0).ravel()
    run_start = np.cumsum(runs) - runs
    cand = by_cell[np.arange(run_start[-1] + runs[-1]) + np.repeat(lo.ravel() - run_start, runs)]
    per_member = runs.reshape(n_members, 3).sum(axis=1)
    d2 = (np.repeat(mx, per_member) - hx[cand]) ** 2
    d2 += (np.repeat(my, per_member) - hy[cand]) ** 2

    scored = per_member > 0
    seg = (np.cumsum(per_member) - per_member)[scored]
    best = np.full(n_members, np.inf)
    best[scored] = np.minimum.reduceat(d2, seg)
    tied = np.where(d2 == np.repeat(best, per_member), cand, n_heads)
    nearest = np.zeros(n_members, dtype=np.intp)
    nearest[scored] = np.minimum.reduceat(tied, seg)

    def beyond(hv, hcell, count):
        """below[k]: largest coordinate of a head in cells <= k-2; above[k]:
        smallest in cells >= k.  Index either with a member's cell (+2 for
        above) to get the nearest head coordinate past its block."""
        high = np.full(count, -np.inf)
        low = np.full(count, np.inf)
        np.maximum.at(high, hcell, hv)
        np.minimum.at(low, hcell, hv)
        below = np.concatenate(([-np.inf, -np.inf], np.maximum.accumulate(high)))
        above = np.concatenate((np.minimum.accumulate(low[::-1])[::-1], [np.inf, np.inf]))
        return below, above

    left, right = beyond(hx, hcol, nx)
    down, up = beyond(hy, hrow, ny)
    gap = np.minimum(
        np.minimum(mx - left[mcol], right[mcol + 2] - mx),
        np.minimum(my - down[mrow], up[mrow + 2] - my),
    )
    redo = np.flatnonzero(~(best < gap * gap))
    if redo.size:
        nearest[redo] = _nearest_dense(mx[redo], my[redo], hx, hy)
    return nearest


def form_clusters(
    nodes: list[Node], heads: list[int], geometry: FieldGeometry | None = None
) -> ClusterAssignment:
    """Attach every alive non-head node to its nearest head by squared
    Euclidean distance; equidistant ties go to the lower head id.  With no
    heads at all, every alive node is left unclustered.

    Rounds with fewer than GRID_MIN_PAIRS member x head pairs compare every
    member with every head (_nearest_dense); larger ones search a cell grid
    (_nearest_grid) that gives the same assignment.  Members keep their
    order in `nodes` (ascending id) inside each cluster.
    """
    head_ids = sorted(heads)
    if not head_ids:
        return ClusterAssignment(
            clusters=[], unclustered=[n.id for n in nodes if n.alive]
        )
    if geometry is None:
        geometry = FieldGeometry(nodes)
    head_set = frozenset(head_ids)
    member_ids = [n.id for n in nodes if n.alive and n.id not in head_set]
    row_of = geometry.row_of
    head_rows = [row_of[h] for h in head_ids]
    member_rows = [row_of[m] for m in member_ids]
    search = (
        _nearest_grid
        if len(member_rows) * len(head_rows) >= GRID_MIN_PAIRS
        else _nearest_dense
    )
    nearest = search(
        geometry.x[member_rows], geometry.y[member_rows],
        geometry.x[head_rows], geometry.y[head_rows],
    )
    cluster_members: list[list[int]] = [[] for _ in head_ids]
    for mid, k in zip(member_ids, nearest.tolist()):
        cluster_members[k].append(mid)
    return ClusterAssignment(
        clusters=[Cluster(h, m) for h, m in zip(head_ids, cluster_members)],
        unclustered=[],
    )
