"""First-order radio energy model with free-space / multipath branches."""

from __future__ import annotations

import math

import numpy as np

from .model import SimConfig


def crossover_distance(config: SimConfig) -> float:
    """Distance at which the amplifier switches from d^2 to d^4 cost.

    Defaults to sqrt(eps_fs / eps_mp); an explicit d0_override wins.
    """
    if config.d0_override is not None:
        return config.d0_override
    return math.sqrt(config.eps_fs / config.eps_mp)


def tx_energy(config: SimConfig, distance):
    """Energy to transmit one packet of the config's packet_bits over
    `distance` metres: a float, or an array of distances priced elementwise.
    This is the one implementation of the transmit rule."""
    bits = config.packet_bits
    d2 = distance * distance
    amp = np.where(
        distance < crossover_distance(config), config.eps_fs * d2, config.eps_mp * d2 * d2
    )
    return bits * config.e_elec + bits * amp


def rx_energy(config: SimConfig) -> float:
    """Energy to receive one packet of the config's packet_bits."""
    return config.packet_bits * config.e_elec


def aggregation_energy(config: SimConfig, signals: int) -> float:
    """Energy for a head to fuse `signals` packets into one.

    The product is taken in float: an int64 array of signal counts times
    packet_bits would wrap.  For packet_bits up to 2**53 the float product
    rounds the exact one once, as converting an exact integer product would."""
    return signals * float(config.packet_bits) * config.e_da
