"""Cluster-head election math: tier probabilities, rotating-epoch thresholds,
and the distance-scaled threshold variant.

Thresholds follow the rotating-eligibility scheme: each node may serve once
per epoch of ceil(1/p) rounds, with the per-round threshold ramping up to 1
at the end of the epoch so that every eligible node has served exactly once
by the time the epoch wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import HeterogeneityParams, Node, NodeTier


@dataclass(frozen=True)
class TierProbabilities:
    """Per-round election probabilities by tier."""

    p_normal: float
    p_advanced: float
    p_super: float

    def for_tier(self, tier: NodeTier) -> float:
        if tier is NodeTier.NORMAL:
            return self.p_normal
        if tier is NodeTier.ADVANCED:
            return self.p_advanced
        return self.p_super


def weighted_probabilities(
    p_opt: float, hetero: HeterogeneityParams
) -> TierProbabilities:
    """Split a target election rate p_opt into per-tier probabilities.

    Probabilities are weighted by each tier's extra energy so that the
    population-average probability stays exactly p_opt:

        (1-m)*p_n + (m-m0)*p_a + m0*p_s == p_opt
    """
    denom = 1.0 + hetero.a * (hetero.m - hetero.m0) + hetero.b * hetero.m0
    p_n = p_opt / denom
    p_a = p_n * (1.0 + hetero.a)
    p_s = p_n * (1.0 + hetero.b)
    for name, p in (("p_normal", p_n), ("p_advanced", p_a), ("p_super", p_s)):
        if p >= 1.0:
            raise ValueError(
                f"{name}={p:.6g} is not a probability; "
                f"p_opt={p_opt} with multipliers a={hetero.a}, b={hetero.b} is too large"
            )
    return TierProbabilities(p_normal=p_n, p_advanced=p_a, p_super=p_s)


def _inverse_rate(p: float) -> float:
    # 1/p, snapped to the nearest integer when the quotient is integral up to
    # float noise; keeps epoch lengths and the end-of-epoch threshold exact.
    inv = 1.0 / p
    nearest = round(inv)
    if nearest >= 1 and abs(inv - nearest) <= 1e-9 * nearest:
        return float(nearest)
    return inv


def epoch_length(p: float) -> int:
    """Rounds per eligibility epoch for election probability p: ceil(1/p)."""
    return math.ceil(_inverse_rate(p))


def sep_threshold(p: float, r: int, eligible: bool) -> float:
    """Rotating election threshold p / (1 - p*(r mod epoch)), clamped to [0, 1].

    Evaluated as 1 / (1/p - (r mod epoch)), which is the same expression with
    one division fewer and is exact (== 1.0) at the end of an epoch whenever
    1/p is integral.  Ineligible nodes get 0.
    """
    if not eligible:
        return 0.0
    inv = _inverse_rate(p)
    pos = r % math.ceil(inv)
    return min(1.0, 1.0 / (inv - pos))


def dbcp_threshold(
    p: float, r: int, eligible: bool, d_i: float, d_avg: float
) -> float:
    """Distance-scaled variant: nodes nearer the base station than the
    deployment average get their threshold shrunk by (1 - d_i/d_avg);
    nodes at or beyond the average keep the unscaled threshold."""
    base = sep_threshold(p, r, eligible)
    if d_i < d_avg:
        return base * (1.0 - d_i / d_avg)
    return base


class EligibilityState:
    """Per-node once-per-epoch eligibility bookkeeping.

    A node elected in round r stays ineligible for the rest of the epoch
    containing r (epochs are aligned blocks of epoch_length(p_tier) rounds)
    and regains eligibility when the epoch wraps.
    """

    def __init__(self, epochs: Mapping[NodeTier, int]):
        self.epochs = dict(epochs)
        # node id -> first round of renewed eligibility (missing = always eligible)
        self.eligible_from: dict[int, int] = {}

    def is_eligible(self, node: Node, r: int) -> bool:
        return r >= self.eligible_from.get(node.id, 0)

    def mark_elected(self, node: Node, r: int) -> None:
        e = self.epochs[node.tier]
        self.eligible_from[node.id] = (r // e + 1) * e

    def reset(self) -> None:
        self.eligible_from.clear()


def average_distance(nodes: Iterable[Node]) -> float:
    """Mean node-to-base-station distance over the deployment (all nodes,
    computed once at deployment time and never updated as nodes die)."""
    total = 0.0
    count = 0
    for node in nodes:
        total += node.distance_to_bs
        count += 1
    if count == 0:
        raise ValueError("average_distance needs at least one node")
    return total / count

