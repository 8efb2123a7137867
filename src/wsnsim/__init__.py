"""Round-based simulator for cluster-head election protocols on
heterogeneous wireless sensor networks."""

from .engine import RoundMetrics, RunResult, SummaryMetrics, run
from .model import NodeTier, ProtocolKind, SimConfig
from .report import aggregate

__all__ = [
    "NodeTier",
    "ProtocolKind",
    "RoundMetrics",
    "RunResult",
    "SimConfig",
    "SummaryMetrics",
    "aggregate",
    "run",
]
