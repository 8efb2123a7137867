"""Cluster-head election math: tier probabilities, rotating-epoch thresholds,
and the distance factor of the dbcp variant.

Thresholds follow the rotating-eligibility scheme: each node may serve once
per epoch of ceil(1/p) rounds, with the per-round threshold ramping up to 1
at the end of the epoch so that every eligible node has served exactly once
by the time the epoch wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NodeTier, SimConfig


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


def weighted_probabilities(config: SimConfig) -> TierProbabilities:
    """Split the config's target election rate p_opt into per-tier
    probabilities.

    Probabilities are weighted by each tier's extra energy so that the
    population-average probability stays exactly p_opt:

        (1-m)*p_n + (m-m0)*p_a + m0*p_s == p_opt
    """
    a, b = config.a, config.b
    p_n = config.p_opt / (1.0 + a * (config.m - config.m0) + b * config.m0)
    p_a = p_n * (1.0 + a)
    p_s = p_n * (1.0 + b)
    for name, p in (("p_normal", p_n), ("p_advanced", p_a), ("p_super", p_s)):
        if p >= 1.0:
            raise ValueError(
                f"{name}={p:.6g} is not a probability; "
                f"p_opt={config.p_opt} with multipliers a={a}, b={b} is too large"
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


def sep_threshold(p: float, r: int) -> float:
    """Rotating election threshold p / (1 - p*(r mod epoch)), clamped to 1.

    Evaluated as 1 / (1/p - (r mod epoch)), which is the same expression with
    one division fewer and is exact (== 1.0) at the end of an epoch whenever
    1/p is integral.
    """
    inv = _inverse_rate(p)
    return min(1.0, 1.0 / (inv - r % math.ceil(inv)))


def distance_factor(d, d_avg: float):
    """The dbcp scaling, elementwise over floats or arrays: nodes nearer the
    base station than the deployment average d_avg get 1 - d/d_avg, nodes at
    or beyond it keep 1."""
    d = np.asarray(d, dtype=float)
    # d_avg = 0 (every node on the base station) leaves no node nearer
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d < d_avg, 1.0 - d / d_avg, 1.0)[()]


def threshold(tier_thresholds, tier, factor, eligible) -> np.ndarray:
    """The election threshold rule, for many nodes at once: the rotating
    threshold of each node's tier (`tier_thresholds`, one sep_threshold per
    tier for the round), times the node's distance factor, or 0 for a node
    not eligible.  `tier`, `factor` and `eligible` hold one entry per node;
    leach and sep use factor 1, so the product is the tier threshold itself.
    """
    return np.where(eligible, np.asarray(tier_thresholds)[tier] * factor, 0.0)
