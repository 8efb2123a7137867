"""Domain model: node tiers, the run configuration, and deployment."""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np


class NodeTier(Enum):
    NORMAL = "normal"
    ADVANCED = "advanced"
    SUPER = "super"


class ProtocolKind(Enum):
    LEACH = "leach"
    SEP = "sep"
    DBCP = "dbcp"


@dataclass(frozen=True)
class SimConfig:
    """Full configuration for one simulation run; its fields, in order, are
    the keys of the flat config.

    Radio: first-order energy constants in joules per bit (e_elec, e_da),
    per bit/m^2 (eps_fs) and per bit/m^4 (eps_mp).  Heterogeneity: m is the
    fraction of nodes that are advanced-or-better, m0 the fraction that are
    super; advanced nodes carry (1+a) times the base energy e0, super nodes
    (1+b) times.
    """

    n: int = 100
    field_width: float = 100.0
    field_height: float = 100.0
    bs_x: float | None = None  # None -> field centre
    bs_y: float | None = None
    p_opt: float = 0.1
    packet_bits: int = 4000
    e_elec: float = 5e-9
    eps_fs: float = 10e-12
    eps_mp: float = 0.0013e-12
    e_da: float = 5e-9
    d0_override: float | None = None
    m: float = 0.2
    m0: float = 0.1
    a: float = 2.0
    b: float = 3.0
    e0: float = 0.5
    protocol: ProtocolKind = ProtocolKind.DBCP
    seed: int = 1
    max_rounds: int = 10000

    def __post_init__(self) -> None:
        # non-finite floats first: NaN passes every range rule below
        for name, value in vars(self).items():  # in field order
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        # then radio, heterogeneity and the rest: a finite config that breaks
        # several rules reports the first, as the seed copy does
        for name in ("e_elec", "eps_fs", "eps_mp", "e_da", "d0_override"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
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
        if self.packet_bits > sys.float_info.max:
            # every energy is priced in float
            raise ValueError(
                f"packet_bits must be <= {sys.float_info.max:.6g}, "
                f"got a {len(str(self.packet_bits))}-digit number"
            )
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        weighted_probabilities(self)  # last, so a broken range rule is reported first
        if self.bs_x is None:
            object.__setattr__(self, "bs_x", self.field_width / 2.0)
        if self.bs_y is None:
            object.__setattr__(self, "bs_y", self.field_height / 2.0)


@dataclass(frozen=True)
class Deployment:
    """A freshly deployed network as arrays indexed by node id.  `tier` holds
    each node's index in NodeTier order (normal, advanced, super)."""

    x: np.ndarray
    y: np.ndarray
    d_bs: np.ndarray  # distance to the base station, m
    tier: np.ndarray
    energy: np.ndarray  # initial energy, J


def tier_counts(config: SimConfig) -> tuple[int, int, int]:
    """Split the config's n nodes into (normal, advanced, super) counts.

    Super count is round-half-up of n*m0; advanced-or-better is round-half-up
    of n*m; normal is the remainder.  0 <= m0 <= m <= 1 keeps each count
    non-negative.
    """
    n_super = math.floor(config.n * config.m0 + 0.5)
    n_adv_or_better = math.floor(config.n * config.m + 0.5)
    return config.n - n_adv_or_better, n_adv_or_better - n_super, n_super


class TierProbabilities(NamedTuple):
    """Per-round election probabilities by tier, in NodeTier order."""

    p_normal: float
    p_advanced: float
    p_super: float


def weighted_probabilities(config: SimConfig) -> TierProbabilities:
    """Split the config's target election rate p_opt into per-tier
    probabilities.

    Probabilities are weighted by each tier's extra energy so that the
    population-average probability stays exactly p_opt:

        (1-m)*p_n + (m-m0)*p_a + m0*p_s == p_opt

    Every tier needs a rate below 1 and an epoch ceil(1/p) that is finite.
    """
    a, b = config.a, config.b
    p_n = config.p_opt / (1.0 + a * (config.m - config.m0) + b * config.m0)
    probs = TierProbabilities(p_n, p_n * (1.0 + a), p_n * (1.0 + b))
    for name, p in probs._asdict().items():
        if p >= 1.0:
            raise ValueError(
                f"{name}={p:.6g} is not a probability; "
                f"p_opt={config.p_opt} with multipliers a={a}, b={b} is too large"
            )
        if not p > 0.0 or math.isinf(1.0 / p):
            raise ValueError(
                f"{name}={p:.6g} has no finite epoch; "
                f"p_opt={config.p_opt} with multipliers a={a}, b={b} is too small"
            )
    return probs


class WorkArrays:
    """Named arrays that a run reuses from round to round, so that a large
    round writes into memory it already holds instead of allocating, freeing
    and faulting in its temporaries again.  get(name, k, dtype) returns the
    first k entries of the array `name`, reallocated with a quarter to spare
    only when k outgrows it or the dtype changes.  What a view holds stays
    until the name is used again.

    A per-round run keeps 4 names: the grid search's two slabs,
    link_lengths' result and the running sums.  Allocating the slabs or
    the result afresh added a median of 127 and 151 minor faults to a
    warmed-up n=10000 round, and all four 407; the member links' legs,
    link_lengths' scratch, the ledger and the energy charge allocate
    afresh, which added none."""

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def get(self, name: str, k: int, dtype=float) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None or len(a) < k or a.dtype != dtype:
            a = self._arrays[name] = np.empty(k + k // 4, dtype)
        return a[:k]

    def take(self, name: str, a: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """a[indices] (rows of `a`, for a 2-D `a`) for in-range indices,
        written into the work array `name`.  np.take's default mode copies
        `out` to check the indices first; "wrap" writes in place and, for
        in-range indices, the same values."""
        shape = (len(indices), *a.shape[1:])
        out = self.get(name, math.prod(shape), a.dtype).reshape(shape)
        return np.take(a, indices, axis=0, out=out, mode="wrap")


# Dekker's splitter 2**27 + 1, and the range of squares within which every
# leg of link_lengths is split and squared exactly: legs from about 2**-450
# (a square's low half stays clear of the subnormals below 2**-1022) to
# about 2**450 (the splitter's product and the sum of two squares stay
# finite).
_SPLIT = 134217729.0
_SQUARE_MIN, _SQUARE_MAX = 2.0**-900, 2.0**900


def _exact_square(x, p, e, high, low) -> None:
    """Write x*x as p + e exactly, p = fl(x*x), by Dekker's split product,
    for every x whose square lies in [_SQUARE_MIN, _SQUARE_MAX]; `high` and
    `low` are scratch."""
    np.multiply(x, _SPLIT, out=high)
    np.subtract(high, x, out=low)
    high -= low
    np.subtract(x, high, out=low)  # x == high + low, each half 26 bits wide
    np.multiply(x, x, out=p)
    np.multiply(high, high, out=e)
    e -= p
    high += high
    high *= low
    e += high
    low *= low
    e += low


def link_lengths(dx, dy, work: WorkArrays | None = None) -> np.ndarray:
    """Link lengths for 1-D arrays of coordinate differences, each equal
    bit for bit to math.hypot(dx, dy), which np.hypot does not match in the
    last bit.

    Each square is taken exactly as a double-double (Dekker), the two are
    added with an exact two-sum, and the square root h of the high part is
    corrected once by (S - h*h) / (2h) (Borges), with the residual S - h*h
    computed exactly.  The corrected length is kept only when moving the
    correction by +-h * 2**-62 (between 1/1024 and 1/512 of an ulp) leaves
    it rounding to the same double: then the true length lies clear of
    every rounding midpoint and h plus the correction is the correctly
    rounded length.  Entries near a midpoint, and those with a leg outside
    the exact range (zero, subnormal, huge, infinite or NaN), are measured
    by math.hypot one by one; on a field of random nodes about 0.3% are.

    With `work`, the result is the work array "link", valid until the next
    call with the same `work`; without it, it is fresh.  The scratch is
    always fresh.
    """
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    a, a_low, b, b_low, high, low = (np.empty(len(dx)) for _ in range(6))
    with np.errstate(all="ignore"):  # entries out of range are redone below
        _exact_square(dx, a, a_low, high, low)
        _exact_square(dy, b, b_low, high, low)
        exact = np.minimum(a, b) >= _SQUARE_MIN
        s = a + b
        exact &= s <= _SQUARE_MAX
        np.subtract(s, a, out=high)  # two-sum: s + (a - ...) + (b - high) == a + b
        np.subtract(s, high, out=low)
        a -= low
        b -= high
        a += b
        a_low += b_low
        a_low += a  # dx*dx + dy*dy == s + a_low, up to the last bits of a_low
        h = np.sqrt(s, out=b)
        _exact_square(h, a, b_low, high, low)
        s -= a  # exact: h*h lies within an ulp of s
        s -= b_low
        s += a_low
        np.add(h, h, out=a)
        s /= a  # the correction (S - h*h) / (2h)
        tol = np.multiply(h, 2.0**-62, out=a_low)
        length = np.add(s, tol, out=(work or WorkArrays()).get("link", len(dx)))
        length += h
        s -= tol
        s += h
        exact &= length == s
    redo = np.flatnonzero(~exact)
    if redo.size:
        length[redo] = list(map(math.hypot, dx[redo].tolist(), dy[redo].tolist()))
    return length


def uniforms(rng: random.Random, k: int) -> np.ndarray:
    """The next k rng.random() values, bit for bit, leaving rng where k
    calls would.

    random() builds each double from two 32-bit Mersenne Twister outputs, a
    then b, as ((a >> 5) * 2**26 + (b >> 6)) / 2**53.  getrandbits(64*k)
    takes the same 2k outputs in the same order and places the first in the
    lowest 32 bits, so its little-endian bytes hold them in order on any
    platform.
    """
    w = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u4")
    return ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def deploy(config: SimConfig, rng: random.Random) -> Deployment:
    """Place nodes uniformly over the field and assign tiers by node id.

    Ids 0 .. n_super-1 are super, the next n_advanced ids advanced, the rest
    normal.  Positions take the rng's next 2n draws through uniforms, two
    per node in id order, x then y, so the deployment is a pure function of
    (config, rng state) and leaves rng where 2n random() calls would.
    """
    n_normal, n_advanced, n_super = tier_counts(config)
    tier = np.repeat([2, 1, 0], [n_super, n_advanced, n_normal])  # super, advanced, normal
    e0 = config.e0
    tier_energy = np.array([e0, e0 * (1.0 + config.a), e0 * (1.0 + config.b)])
    u = uniforms(rng, 2 * config.n)
    # rng.uniform(0.0, b) returns 0.0 + (b - 0.0) * rng.random(), which is
    # b * u exactly for u >= 0
    x = config.field_width * u[0::2]
    y = config.field_height * u[1::2]
    return Deployment(
        x=x,
        y=y,
        d_bs=link_lengths(x - config.bs_x, y - config.bs_y),
        tier=tier,
        energy=tier_energy[tier],
    )
