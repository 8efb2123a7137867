"""Round-based simulator for cluster-head election protocols on
heterogeneous wireless sensor networks."""

from .election import (
    EligibilityState,
    TierProbabilities,
    average_distance,
    dbcp_threshold,
    sep_threshold,
    weighted_probabilities,
)
from .engine import RoundMetrics, RunResult, SummaryMetrics, run
from .model import (
    HeterogeneityParams,
    Node,
    NodeTier,
    ProtocolKind,
    RadioParams,
    SimConfig,
    deploy,
    tier_counts,
)
from .protocols import ClusterAssignment, elect_heads, form_clusters, threshold_for
from .report import ComparisonResult, aggregate

__all__ = [
    "EligibilityState",
    "TierProbabilities",
    "average_distance",
    "dbcp_threshold",
    "sep_threshold",
    "weighted_probabilities",
    "RoundMetrics",
    "RunResult",
    "SummaryMetrics",
    "run",
    "HeterogeneityParams",
    "Node",
    "NodeTier",
    "ProtocolKind",
    "RadioParams",
    "SimConfig",
    "deploy",
    "tier_counts",
    "ClusterAssignment",
    "elect_heads",
    "form_clusters",
    "threshold_for",
    "aggregate",
    "ComparisonResult",
]
