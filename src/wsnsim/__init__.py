"""Round-based simulator for cluster-head election protocols on
heterogeneous wireless sensor networks."""

from .engine import RoundMetrics, RunResult, SummaryMetrics, run
from .model import (
    Deployment,
    NodeTier,
    ProtocolKind,
    SimConfig,
    TierProbabilities,
    deploy,
    tier_counts,
    weighted_probabilities,
)
from .protocols import (
    distance_factor,
    elect_heads,
    form_clusters,
    sep_threshold,
    threshold,
)
from .report import aggregate

__all__ = [
    "distance_factor",
    "sep_threshold",
    "threshold",
    "RoundMetrics",
    "RunResult",
    "SummaryMetrics",
    "run",
    "Deployment",
    "NodeTier",
    "ProtocolKind",
    "SimConfig",
    "TierProbabilities",
    "deploy",
    "tier_counts",
    "weighted_probabilities",
    "elect_heads",
    "form_clusters",
    "aggregate",
]
