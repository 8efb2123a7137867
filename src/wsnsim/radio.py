"""First-order radio energy model with free-space / multipath branches."""

from __future__ import annotations

import math
from typing import Callable

from .model import RadioParams


def crossover_distance(radio: RadioParams) -> float:
    """Distance at which the amplifier switches from d^2 to d^4 cost.

    Defaults to sqrt(eps_fs / eps_mp); an explicit d0_override wins.
    """
    if radio.d0_override is not None:
        return radio.d0_override
    return math.sqrt(radio.eps_fs / radio.eps_mp)


def tx_energy_fn(radio: RadioParams, bits: int) -> Callable[[float], float]:
    """Energy to transmit `bits` as a function of the distance in metres.

    This is the one implementation of the transmit rule.  The constants are
    bound once, so a caller that prices many links (the engine builds one per
    run) pays a single call per link.
    """
    d0 = crossover_distance(radio)
    elec = bits * radio.e_elec
    eps_fs, eps_mp = radio.eps_fs, radio.eps_mp

    def tx(distance: float) -> float:
        d2 = distance * distance
        amp = eps_fs * d2 if distance < d0 else eps_mp * d2 * d2
        return elec + bits * amp

    return tx


def tx_energy(radio: RadioParams, bits: int, distance: float) -> float:
    """Energy to transmit `bits` over `distance` metres."""
    return tx_energy_fn(radio, bits)(distance)


def rx_energy(radio: RadioParams, bits: int) -> float:
    """Energy to receive `bits`."""
    return bits * radio.e_elec


def aggregation_energy(radio: RadioParams, bits: int, signals: int) -> float:
    """Energy for a head to fuse `signals` inputs of `bits` each into one packet."""
    return signals * bits * radio.e_da
