"""Round-based simulator for cluster-head election protocols on
heterogeneous wireless sensor networks."""

from .election import (
    TierProbabilities,
    distance_factor,
    sep_threshold,
    threshold,
    weighted_probabilities,
)
from .engine import RoundMetrics, RunResult, SummaryMetrics, run
from .model import (
    Deployment,
    NodeTier,
    ProtocolKind,
    SimConfig,
    deploy,
    tier_counts,
)
from .protocols import elect_heads, form_clusters
from .report import ComparisonResult, aggregate

__all__ = [
    "TierProbabilities",
    "distance_factor",
    "sep_threshold",
    "threshold",
    "weighted_probabilities",
    "RoundMetrics",
    "RunResult",
    "SummaryMetrics",
    "run",
    "Deployment",
    "NodeTier",
    "ProtocolKind",
    "SimConfig",
    "deploy",
    "tier_counts",
    "elect_heads",
    "form_clusters",
    "aggregate",
    "ComparisonResult",
]
