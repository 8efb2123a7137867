"""First-order radio energy model with free-space / multipath branches."""

from __future__ import annotations

import math

from .model import RadioParams


def crossover_distance(radio: RadioParams) -> float:
    """Distance at which the amplifier switches from d^2 to d^4 cost.

    Defaults to sqrt(eps_fs / eps_mp); an explicit d0_override wins.
    """
    if radio.d0_override is not None:
        return radio.d0_override
    return math.sqrt(radio.eps_fs / radio.eps_mp)


def tx_energy(radio: RadioParams, bits: int, distance: float) -> float:
    """Energy to transmit `bits` over `distance` metres."""
    # d^4 written as (d*d)*(d*d) so the fast inline copy in the engine's
    # transmission loop stays bit-identical (see engine.transmission_costs).
    d2 = distance * distance
    if distance < crossover_distance(radio):
        amp = radio.eps_fs * d2
    else:
        amp = radio.eps_mp * d2 * d2
    return bits * radio.e_elec + bits * amp


def rx_energy(radio: RadioParams, bits: int) -> float:
    """Energy to receive `bits`."""
    return bits * radio.e_elec


def aggregation_energy(radio: RadioParams, bits: int, signals: int) -> float:
    """Energy for a head to fuse `signals` inputs of `bits` each into one packet."""
    return signals * bits * radio.e_da
