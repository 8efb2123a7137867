"""Domain model: node tiers, radio/heterogeneity parameters, and deployment."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum


class NodeTier(Enum):
    NORMAL = "normal"
    ADVANCED = "advanced"
    SUPER = "super"


class ProtocolKind(Enum):
    LEACH = "leach"
    SEP = "sep"
    DBCP = "dbcp"


@dataclass(frozen=True)
class HeterogeneityParams:
    """Tier fractions and energy multipliers.

    m is the fraction of nodes that are advanced-or-better, m0 the fraction
    that are super.  Advanced nodes carry (1+a) times the base energy e0,
    super nodes (1+b) times.
    """

    m: float
    m0: float
    a: float
    b: float
    e0: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.m0 <= self.m <= 1.0:
            raise ValueError(
                f"need 0 <= m0 <= m <= 1, got m0={self.m0}, m={self.m}"
            )
        if self.a < 0 or self.b < 0:
            raise ValueError(f"energy multipliers a={self.a}, b={self.b} must be >= 0")
        if self.b < self.a:
            raise ValueError(f"super multiplier b={self.b} must be >= a={self.a}")
        if self.e0 <= 0:
            raise ValueError(f"base energy e0={self.e0} must be positive")


@dataclass(frozen=True)
class RadioParams:
    """First-order radio energy constants (joules per bit, per bit/m^2, per bit/m^4)."""

    e_elec: float = 5e-9
    eps_fs: float = 10e-12
    eps_mp: float = 0.0013e-12
    e_da: float = 5e-9
    d0_override: float | None = None

    def __post_init__(self) -> None:
        for name in ("e_elec", "eps_fs", "eps_mp", "e_da"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d0_override is not None and self.d0_override <= 0:
            raise ValueError(f"d0_override must be positive, got {self.d0_override}")


@dataclass(frozen=True)
class SimConfig:
    """Full configuration for one simulation run."""

    n: int = 100
    field_width: float = 100.0
    field_height: float = 100.0
    bs_x: float | None = None  # None -> field centre
    bs_y: float | None = None
    p_opt: float = 0.1
    packet_bits: int = 4000
    radio: RadioParams = field(default_factory=RadioParams)
    hetero: HeterogeneityParams = field(
        default_factory=lambda: HeterogeneityParams(m=0.2, m0=0.1, a=2.0, b=3.0, e0=0.5)
    )
    protocol: ProtocolKind = ProtocolKind.DBCP
    seed: int = 1
    max_rounds: int = 10000

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.field_width <= 0 or self.field_height <= 0:
            raise ValueError(
                f"field dimensions must be positive, got "
                f"{self.field_width} x {self.field_height}"
            )
        if not 0.0 < self.p_opt < 1.0:
            raise ValueError(f"p_opt must be in (0, 1), got {self.p_opt}")
        if self.packet_bits < 1:
            raise ValueError(f"packet_bits must be >= 1, got {self.packet_bits}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.bs_x is None:
            object.__setattr__(self, "bs_x", self.field_width / 2.0)
        if self.bs_y is None:
            object.__setattr__(self, "bs_y", self.field_height / 2.0)


@dataclass
class Node:
    """One sensor node.  Mutable: energy and liveness change per round."""

    id: int
    x: float
    y: float
    tier: NodeTier
    initial_energy: float
    residual_energy: float
    distance_to_bs: float
    alive: bool = True


def tier_counts(n: int, hetero: HeterogeneityParams) -> tuple[int, int, int]:
    """Split n nodes into (normal, advanced, super) counts.

    Super count is round-half-up of n*m0; advanced-or-better is round-half-up
    of n*m; normal is the remainder.
    """
    n_super = math.floor(n * hetero.m0 + 0.5)
    n_adv_or_better = math.floor(n * hetero.m + 0.5)
    n_advanced = n_adv_or_better - n_super
    n_normal = n - n_adv_or_better
    if n_normal < 0 or n_advanced < 0 or n_super < 0:
        raise ValueError(
            f"tier counts ({n_normal}, {n_advanced}, {n_super}) "
            f"must be non-negative after rounding"
        )
    return n_normal, n_advanced, n_super


def deploy(config: SimConfig, rng: random.Random) -> list[Node]:
    """Place nodes uniformly over the field and assign tiers by node id.

    Ids 0 .. n_super-1 are super, the next n_advanced ids advanced, the rest
    normal.  Positions consume exactly two draws per node in id order, so the
    deployment is a pure function of (config, rng state).
    """
    n_normal, n_advanced, n_super = tier_counts(config.n, config.hetero)
    e0 = config.hetero.e0
    energies = {
        NodeTier.SUPER: e0 * (1.0 + config.hetero.b),
        NodeTier.ADVANCED: e0 * (1.0 + config.hetero.a),
        NodeTier.NORMAL: e0,
    }
    nodes = []
    for i in range(config.n):
        if i < n_super:
            tier = NodeTier.SUPER
        elif i < n_super + n_advanced:
            tier = NodeTier.ADVANCED
        else:
            tier = NodeTier.NORMAL
        x = rng.uniform(0.0, config.field_width)
        y = rng.uniform(0.0, config.field_height)
        energy = energies[tier]
        nodes.append(
            Node(
                id=i,
                x=x,
                y=y,
                tier=tier,
                initial_energy=energy,
                residual_energy=energy,
                distance_to_bs=math.hypot(x - config.bs_x, y - config.bs_y),
            )
        )
    return nodes
