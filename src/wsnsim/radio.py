"""First-order radio energy model with free-space / multipath branches."""

from __future__ import annotations

import math

import numpy as np

from .model import RadioParams


def crossover_distance(radio: RadioParams) -> float:
    """Distance at which the amplifier switches from d^2 to d^4 cost.

    Defaults to sqrt(eps_fs / eps_mp); an explicit d0_override wins.
    """
    if radio.d0_override is not None:
        return radio.d0_override
    return math.sqrt(radio.eps_fs / radio.eps_mp)


def tx_energy(radio: RadioParams, bits: int, distance):
    """Energy to transmit `bits` over `distance` metres: a float, or an array
    of distances priced elementwise.  This is the one implementation of the
    transmit rule."""
    d2 = distance * distance
    amp = np.where(
        distance < crossover_distance(radio), radio.eps_fs * d2, radio.eps_mp * d2 * d2
    )
    return bits * radio.e_elec + bits * amp


def rx_energy(radio: RadioParams, bits: int) -> float:
    """Energy to receive `bits`."""
    return bits * radio.e_elec


def aggregation_energy(radio: RadioParams, bits: int, signals: int) -> float:
    """Energy for a head to fuse `signals` inputs of `bits` each into one packet."""
    return signals * bits * radio.e_da
