"""Protocol-level election and cluster formation.

LEACH: every node runs the rotating threshold at the uniform rate p_opt.
SEP:   per-tier rates from weighted_probabilities, same rotation mechanics.
DBCP:  SEP rates with the near-node distance scaling applied on top.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .election import TierProbabilities, distance_factor, sep_threshold, threshold
from .model import NodeTier, ProtocolKind

__all__ = ["ProtocolKind", "election_rule", "elect_heads", "form_clusters"]


def election_rule(
    protocol: ProtocolKind, p_opt: float, probs: TierProbabilities, d_bs, d_avg: float
) -> tuple[tuple[float, ...], np.ndarray]:
    """The election rate of each tier (in NodeTier order) and the distance
    factor of each node under `protocol`."""
    if protocol is ProtocolKind.LEACH:
        rate = (p_opt,) * len(NodeTier)
    else:
        rate = tuple(probs.for_tier(tier) for tier in NodeTier)
    if protocol is ProtocolKind.DBCP:
        return rate, distance_factor(d_bs, d_avg)
    return rate, np.ones(len(d_bs))


def elect_heads(state, alive: np.ndarray, r: int, rng: random.Random) -> np.ndarray:
    """Draw one uniform per node of `alive` (ascending ids) in that order; a
    node becomes head iff its draw falls below its election threshold.
    Elected nodes are marked ineligible for the remainder of their tier
    epoch.  Returns the head ids in ascending order.

    `state` is the run's node table (engine.EngineState): per-tier rate and
    epoch, per-node tier, distance factor and first round of renewed
    eligibility.
    """
    # every alive node draws, eligible or not (determinism contract); the
    # iterator never ends, and fromiter takes exactly len(alive) draws
    u = np.fromiter(iter(rng.random, None), float, len(alive))
    tier = state.tier[alive]
    t = threshold(
        [sep_threshold(p, r) for p in state.rate],
        tier,
        state.factor[alive],
        r >= state.eligible_from[alive],
    )
    elected = u < t
    heads = alive[elected]
    if len(heads):
        epoch = state.epoch[tier[elected]]
        state.eligible_from[heads] = (r // epoch + 1) * epoch
    return heads


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
    alive: np.ndarray, heads: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Attach every alive non-head node to its nearest head by squared
    Euclidean distance.  `alive` and `heads` hold ascending node ids and `x`,
    `y` every node's position.  Returns the members (alive non-heads, in
    ascending id) and, for each, the index in `heads` of its head; equal
    distances go to the lower index, and so to the lower head id.  With no
    heads at all the second item is None: every alive node is unclustered.

    Rounds with fewer than GRID_MIN_PAIRS member x head pairs compare every
    member with every head (_nearest_dense); larger ones search a cell grid
    (_nearest_grid) that gives the same assignment.
    """
    if not len(heads):
        return alive, None
    is_head = np.zeros(len(x), dtype=bool)
    is_head[heads] = True
    members = alive[~is_head[alive]]
    search = (
        _nearest_grid
        if len(members) * len(heads) >= GRID_MIN_PAIRS
        else _nearest_dense
    )
    return members, search(x[members], y[members], x[heads], y[heads])
