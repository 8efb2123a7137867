"""How leach, sep and dbcp elect cluster heads and form clusters.

LEACH: every node runs the rotating threshold at the uniform rate p_opt.
SEP:   per-tier rates from model.weighted_probabilities, same rotation mechanics.
DBCP:  SEP rates with the near-node distance factor applied on top.

Thresholds follow the rotating-eligibility scheme: each node may serve once
per epoch of ceil(1/p) rounds, with the per-round threshold ramping up to 1
at the end of the epoch so that every eligible node has served exactly once
by the time the epoch wraps.  election_rule fixes a run's tier rotation
pairs (1/p, epoch) and distance factors; elect_heads draws each round's
heads against them and form_clusters attaches every other alive node to its
nearest head.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import NodeTier, ProtocolKind, SimConfig, WorkArrays, weighted_probabilities


def rotation(p: float) -> tuple[float, int]:
    """The rotation pair of election probability p: its inverse rate 1/p
    and its epoch ceil(1/p), the number of rounds per eligibility epoch."""
    # 1/p, snapped to the nearest integer when the quotient is integral up to
    # float noise; keeps epoch lengths and the end-of-epoch threshold exact.
    inv = 1.0 / p
    nearest = round(inv)
    if nearest >= 1 and abs(inv - nearest) <= 1e-9 * nearest:
        inv = float(nearest)
    return inv, math.ceil(inv)


def sep_threshold(pair: tuple[float, int], r: int | np.ndarray) -> float | np.ndarray:
    """Rotating election threshold p / (1 - p*(r mod epoch)), clamped to 1,
    of the tier whose rotation pair is `pair` = (1/p, epoch), in round r or
    elementwise over an array of rounds (election_window).

    Evaluated as 1 / (1/p - (r mod epoch)), which is the same expression with
    one division fewer and is exact (== 1.0) at the end of an epoch whenever
    1/p is integral.
    """
    inv, epoch = pair
    return np.minimum(1.0, 1.0 / (inv - r % epoch))


def distance_factor(d, d_avg: float):
    """The dbcp scaling, elementwise over floats or arrays: nodes nearer the
    base station than the deployment average d_avg get 1 - d/d_avg, nodes at
    or beyond it keep 1."""
    d = np.asarray(d, dtype=float)
    # d_avg = 0 (every node on the base station) leaves no node nearer
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d < d_avg, 1.0 - d / d_avg, 1.0)[()]


def threshold(tier_thresholds, tier, factor) -> np.ndarray:
    """The election threshold rule, for many nodes at once: the rotating
    threshold of each node's tier (`tier_thresholds`, one sep_threshold per
    tier for the round), times the node's distance factor.  `tier` and
    `factor` hold one entry per node; leach and sep use factor 1, so the
    product is the tier threshold itself.  A node that already served this
    epoch is not elected whatever its threshold (elect_heads).
    """
    return np.asarray(tier_thresholds)[tier] * factor


# Rounds an ElectionWindow covers.  On one core of a 2-vCPU Xeon VM (best of
# 7 timeit passes), a window of 64, 256, 1024 and 4096 rounds took 22, 30,
# 53 and 149 us to build, 0.35, 0.12, 0.05 and 0.04 us a round; working out
# a round's three thresholds and renewal rounds in Python lists took about
# 1.5 us.  A window holds 48 bytes a round: 48 KiB at 1024.
ELECTION_WINDOW = 1024


class ElectionWindow(NamedTuple):
    """The election rule of ELECTION_WINDOW consecutive rounds, one row per
    round from `start` on and one column per tier (NodeTier order): each
    tier's sep_threshold, and the first round of its next epoch, from which
    a head elected in that round may serve again.  Its size is fixed, so a
    rate p however small costs no more memory."""

    start: int
    thresholds: np.ndarray
    renewed: np.ndarray


def election_window(rotation, start: int) -> ElectionWindow:
    """The ElectionWindow of the ELECTION_WINDOW rounds from `start` on, for
    a run whose tiers have the rotation pairs `rotation`."""
    end = start + ELECTION_WINDOW
    rounds = np.arange(start, end)
    thresholds, renewed = [], []
    for inv, epoch in rotation:
        # a small rate p gives an epoch longer than the window, even past
        # any int64.  No round of the window reaches such an epoch, so
        # capping it at the window's end leaves each r mod epoch as it is,
        # and its heads' renewal round is capped at the largest int64, a
        # round no run reaches
        capped = min(epoch, end)
        thresholds.append(sep_threshold((inv, capped), rounds))
        renewed.append(rounds - rounds % capped + min(epoch, np.iinfo(np.int64).max))
    return ElectionWindow(start, np.stack(thresholds, axis=1), np.stack(renewed, axis=1))


def election_rule(
    config: SimConfig, d_bs, d_avg: float
) -> tuple[tuple[tuple[float, int], ...], np.ndarray]:
    """The rotation pair of each tier's election rate (in NodeTier order)
    and the distance factor of each node under config.protocol."""
    if config.protocol is ProtocolKind.LEACH:
        rate = (config.p_opt,) * len(NodeTier)
    else:
        rate = weighted_probabilities(config)
    if config.protocol is ProtocolKind.DBCP:
        factor = distance_factor(d_bs, d_avg)
    else:
        factor = np.ones(len(d_bs))
    return tuple(map(rotation, rate)), factor


def elect_heads(state, alive: np.ndarray, r: int, draws) -> np.ndarray:
    """Take one uniform per node of `alive` (ascending ids) from `draws`, in
    that order; a node becomes head iff its draw falls below its election
    threshold and it is eligible.  Elected nodes are marked ineligible for
    the remainder of their tier epoch.  Returns the head ids in ascending
    order.

    `state` is the run's node table (engine.EngineState), and `alive` its
    alive ids: per-tier rotation pair, first round of renewed eligibility
    by node id, the alive nodes' tiers and distance factors in alive order,
    and the ElectionWindow in use, replaced here by one from round r on when
    r lies outside it.  `draws` serves the run's uniforms k at a time
    through `take(k)` (engine.DrawStream).
    """
    # every alive node draws, eligible or not (determinism contract)
    u = draws.take(len(alive))
    tier = state.alive_tier
    window = state.election_window
    k = r - window.start
    if not 0 <= k < len(window.thresholds):
        window = state.election_window = election_window(state.rotation, r)
        k = 0
    elected = u < threshold(window.thresholds[k], tier, state.alive_factor)
    # draws are never negative, so masking here elects exactly the nodes
    # that a threshold of 0 for the ineligible would
    elected &= state.eligible_from[alive] <= r
    at = elected.nonzero()[0]
    heads = alive[at]
    if len(heads):
        state.eligible_from[heads] = window.renewed[k][tier[at]]
    return heads


# Member x head pair count from which form_clusters searches a cell grid
# instead of the full distance matrix.  On one core of a 2-vCPU Xeon VM, with
# nine members per head (median of 400 alternating calls, two or three
# runs), the dense kernel took 0.18-0.25 ms at 1.8e4 pairs against
# 0.20-0.29 ms for the grid, about the same from 2.3e4 to 3.2e4 pairs
# (0.21-0.37 ms either way), 0.26-0.27 ms at 3.8e4 against 0.23-0.25 ms and
# 0.33-0.49 ms at 4.4e4 against 0.27-0.40 ms.  The default n=100 round has
# about 900 pairs and stays dense; n=1000 has about 9e4 and n=10000 about
# 9e6.
GRID_MIN_PAIRS = 40_000

# Members _nearest_grid scores at a time.  On the same VM, over 60 captured
# n=10000 calls (leach, sep and dbcp, seeds 1-2, 10 rounds each) with a
# run's work arrays and the block sizes interleaved, blocks of 256, 512,
# 1024, 2048 and 4096 members took at best 5.3-5.4, 3.9-4.1, 3.6, 3.1-3.4
# and 3.2-3.3 ms a call over two passes.  Without work arrays, one n=10000
# dbcp call (9289 members, 711 heads) peaked at 0.8, 1.1, 1.6, 2.5 and
# 4.2 MiB of numpy memory: a block's two slabs grow with its members times
# its largest candidate count.  1024 is the largest block that stays under
# 2 MiB.  A round of at most one block (n=1000) is scored in one pass.
GRID_BLOCK_MEMBERS = 1024


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """keys.argsort(kind="stable") for non-negative integer keys no larger
    than `bound`.  The keys are sorted as the narrowest unsigned type that
    holds `bound`, which numpy radix-sorts up to 16 bits where it
    merge-sorts int64; a stable sort's permutation is fixed by the keys'
    order alone, so the result is the same."""
    return keys.astype(np.min_scalar_type(bound), copy=False).argsort(kind="stable")


def squared_distances(ax, ay, bx, by) -> np.ndarray:
    """The a x b matrix of squared distances from points (ax, ay) to points
    (bx, by): the expression the dense nearest-head search and the engine's
    pair table compare.  _nearest_grid writes the same expression again,
    squared in place, for the reason given there."""
    return (ax[:, None] - bx[None, :]) ** 2 + (ay[:, None] - by[None, :]) ** 2


def _nearest_dense(mx, my, hx, hy) -> np.ndarray:
    """Index of each member's nearest head: the first minimum of the full
    member x head matrix of squared distances, so ties go to the lowest
    head index."""
    return squared_distances(mx, my, hx, hy).argmin(axis=1)


def _nearest_grid(mx, my, hx, hy, work: WorkArrays | None = None) -> np.ndarray:
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

    Once per call, each cell's candidates (the heads of its 3x3 block) are
    listed as a row of a cells x K table in ascending head index, padded
    with a sentinel head at +inf.  Members are taken GRID_BLOCK_MEMBERS at a
    time in descending order of their cell's candidate count, and a block
    is scored as one slab of its members' rows, cut to the block's largest
    count; a row's first minimum is then the lowest-index tie.  The two
    slabs are the run's `work` arrays, sized by the first block, or fresh.
    """
    n_heads = len(hx)
    x0, y0 = hx.min(), hy.min()
    w, h = hx.max() - x0, hy.max() - y0
    cells = max(1.0, n_heads / 2)
    # square cells; a box thinner than one cell gets a single row or column
    side = max(math.sqrt(w * h / cells), max(w, h) / cells) or 1.0
    nx, ny = max(1, math.ceil(w / side)), max(1, math.ceil(h / side))

    def cell_of(v, v0, count):
        return np.clip(np.floor((v - v0) / side), 0, count - 1).astype(np.intp)

    def beyond(hv, hcell, count):
        """below[k]: largest coordinate of a head in cells <= k-2; above[k]:
        smallest in cells >= k.  For a member in cell j of the bordered grid
        below[j-1] and above[j+1] are the nearest head coordinates past its
        block."""
        # cells rise with the coordinate, so the heads in cells <= k hold
        # the upto[k] smallest coordinates
        upto = np.cumsum(np.bincount(hcell, minlength=count))
        ranked = np.concatenate(([-np.inf], np.sort(hv), [np.inf]))
        below = ranked[np.concatenate(([0, 0], upto))]
        above = ranked[np.concatenate(([0], upto, [len(hv)])) + 1]
        return below, above

    # cells are numbered on the grid with a border of empty cells, row by
    # row, so every cell of a 3x3 block has a number and none wraps a row
    stride = nx + 2

    def candidate_table(head_cell):
        """Row c: the heads of cell c's 3x3 block in ascending index, padded
        with the sentinel n_heads; and each row's count."""
        around = (np.arange(-1, 2)[:, None] * stride + np.arange(-1, 2)).ravel()
        # each head is a candidate of the 9 cells around its own, listed
        # head by head, so a stable sort by cell keeps each row ascending
        near = (head_cell[:, None] + around).ravel()
        by_cell = stable_order(near, stride * (ny + 2))
        near = near[by_cell]
        count = np.bincount(near, minlength=stride * (ny + 2))
        rank = np.arange(len(near)) - np.repeat(np.cumsum(count) - count, count)
        table = np.full((len(count), count.max()), n_heads, np.min_scalar_type(n_heads))
        table.ravel()[near * table.shape[1] + rank] = by_cell // len(around)
        return table, count

    hcol, hrow = cell_of(hx, x0, nx), cell_of(hy, y0, ny)
    table, count = candidate_table((hrow + 1) * stride + hcol + 1)
    table_x, table_y = np.append(hx, np.inf)[table], np.append(hy, np.inf)[table]
    left, right = beyond(hx, hcol, nx)
    down, up = beyond(hy, hrow, ny)

    cell = (cell_of(my, y0, ny) + 1) * stride + cell_of(mx, x0, nx) + 1
    by_count = stable_order(count[cell], table.shape[1])[::-1]

    work = work or WorkArrays()
    nearest = np.empty(len(mx), dtype=np.intp)
    for lead in range(0, len(mx), GRID_BLOCK_MEMBERS):
        ids = by_count[lead : lead + GRID_BLOCK_MEMBERS]
        rows = cell[ids]
        k = max(1, count[rows[0]])  # the block's largest count
        bx, by = mx[ids], my[ids]
        # squared_distances' expression, the same operations in place
        d2 = work.take("grid_x", table_x[:, :k], rows)
        np.subtract(bx[:, None], d2, out=d2)
        d2 *= d2
        dy = work.take("grid_y", table_y[:, :k], rows)
        np.subtract(by[:, None], dy, out=dy)
        dy *= dy
        d2 += dy
        pick = d2.argmin(axis=1)
        found = table[rows, pick]
        best = d2[np.arange(len(ids)), pick]
        mrow, mcol = np.divmod(rows, stride)  # on the bordered grid
        gap = np.minimum(
            np.minimum(bx - left[mcol - 1], right[mcol + 1] - bx),
            np.minimum(by - down[mrow - 1], up[mrow + 1] - by),
        )
        # members with no candidate have best = inf and always land here;
        # they gather in the last blocks, so they are re-scored in pieces
        # whose matrix is no larger than the block's slab
        redo = np.flatnonzero(~(best < gap * gap))
        step = max(1, d2.size // n_heads)
        for at in range(0, redo.size, step):
            part = redo[at : at + step]
            found[part] = _nearest_dense(bx[part], by[part], hx, hy)
        nearest[ids] = found
    return nearest


def form_clusters(
    alive: np.ndarray,
    heads: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    d2: np.ndarray | None = None,
    work: WorkArrays | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Attach every alive non-head node to its nearest head by squared
    Euclidean distance.  `alive` and `heads` hold ascending node ids and `x`,
    `y` every node's position.  Returns the members (alive non-heads, in
    ascending id) and, for each, the index in `heads` of its head; equal
    distances go to the lower index, and so to the lower head id.  With no
    heads at all the second item is None: every alive node is unclustered.

    `d2`, if given, is every node pair's squared_distances, built once per
    run; the nearest head is then the first minimum down the member's
    column of the heads' rows.  Otherwise rounds with fewer than GRID_MIN_PAIRS member x head
    pairs compare every member with every head (_nearest_dense); larger ones
    search a cell grid (_nearest_grid) that gives the same assignment, in
    the run's `work` arrays if given.
    """
    if not len(heads):
        return alive, None
    keep = np.zeros(len(x), dtype=bool)
    keep[alive] = True
    keep[heads] = False
    members = keep.nonzero()[0]
    if d2 is not None:
        # d2 is exactly symmetric, so a head's row holds its column; the
        # first minimum down a column is the lowest-index tie.  Taking every
        # node's and keeping the members' cost less than cutting out the
        # members' columns first.
        return members, d2.take(heads, axis=0).argmin(axis=0)[members]
    mx, my, hx, hy = x[members], y[members], x[heads], y[heads]
    if len(members) * len(heads) >= GRID_MIN_PAIRS:
        return members, _nearest_grid(mx, my, hx, hy, work)
    return members, _nearest_dense(mx, my, hx, hy)
