"""Radio energy model: frozen point values, the amplifier crossover, and
linearity/monotonicity properties.

The point values below were computed by hand from the energy constants
(e.g. 4000 * 5e-9 + 4000 * 10e-12 * 50**2 = 1.2e-4) and frozen before the
module was written.
"""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from wsnsim.model import SimConfig
from wsnsim.radio import aggregation_energy, crossover_distance, rx_energy, tx_energy


class TestCrossoverDistance:
    def test_default_constants(self, radio):
        assert crossover_distance(radio) == pytest.approx(87.7058, abs=1e-3)

    def test_equal_amplifier_constants(self):
        radio = SimConfig(eps_fs=1e-12, eps_mp=1e-12)
        assert crossover_distance(radio) == 1.0

    def test_override_wins(self):
        radio = SimConfig(d0_override=70.0)
        assert crossover_distance(radio) == 70.0


class TestTxEnergy:
    def test_free_space_50m(self, radio):
        assert tx_energy(radio, 50.0) == pytest.approx(1.2e-4, abs=1e-9)

    def test_multipath_100m(self, radio):
        # 100 m is beyond the ~87.7 m crossover: d^4 amplifier
        assert tx_energy(radio, 100.0) == pytest.approx(5.4e-4, abs=1e-9)

    def test_branches_agree_at_crossover(self, radio):
        """At d0 = sqrt(eps_fs/eps_mp) the d^2 and d^4 branches coincide."""
        d0 = crossover_distance(radio)
        bits = 4000
        d2 = d0 * d0
        fs = bits * radio.e_elec + bits * (radio.eps_fs * d2)
        mp = bits * radio.e_elec + bits * (radio.eps_mp * d2 * d2)
        assert abs(fs - mp) <= 1e-15 * max(fs, mp)

    def test_override_changes_branch_selection_only(self):
        # with d0 forced to 70 m, an 80 m link is charged at the d^4 rate
        # even though the amplifier constants put the natural crossover at 87.7
        radio = SimConfig(d0_override=70.0)
        expected = 4000 * radio.e_elec + 4000 * radio.eps_mp * 80.0**4
        assert tx_energy(radio, 80.0) == pytest.approx(expected, rel=1e-12)

    @given(
        d=st.floats(min_value=0.0, max_value=500.0),
        bits=st.integers(min_value=1, max_value=10**6),
    )
    def test_linear_in_bits(self, d, bits):
        radio = SimConfig()
        assert tx_energy(replace(radio, packet_bits=bits), d) == pytest.approx(
            bits * tx_energy(replace(radio, packet_bits=1), d), rel=1e-12
        )

    @given(
        d1=st.floats(min_value=0.0, max_value=500.0),
        d2=st.floats(min_value=0.0, max_value=500.0),
    )
    def test_monotone_in_distance(self, d1, d2):
        radio = SimConfig()
        lo, hi = sorted((d1, d2))
        assert tx_energy(radio, lo) <= tx_energy(radio, hi)


class TestRxEnergy:
    def test_4000_bits(self, radio):
        assert rx_energy(radio) == pytest.approx(2.0e-5, abs=1e-9)

    def test_unit_case(self):
        assert rx_energy(SimConfig(e_elec=1e-9, packet_bits=1)) == 1e-9


class TestAggregationEnergy:
    def test_five_signals(self, radio):
        assert aggregation_energy(radio, 5) == pytest.approx(1.0e-4, abs=1e-12)

    def test_zero_signals(self, radio):
        assert aggregation_energy(radio, 0) == 0.0

    def test_single_signal(self, radio):
        assert aggregation_energy(radio, 1) == pytest.approx(2.0e-5, abs=1e-12)

    @given(signals=st.integers(min_value=0, max_value=1000))
    def test_linear_in_signals(self, signals):
        radio = SimConfig()
        one = aggregation_energy(radio, 1)
        assert aggregation_energy(radio, signals) == pytest.approx(
            signals * one, rel=1e-12
        )


def test_tx_energy_continuous_near_crossover(radio):
    # no jump when approaching d0 from either side (default d0 only)
    d0 = crossover_distance(radio)
    below = tx_energy(radio, d0 * (1 - 1e-9))
    above = tx_energy(radio, d0 * (1 + 1e-9))
    assert above == pytest.approx(below, rel=1e-6)


def test_radio_params_reject_nonpositive():
    with pytest.raises(ValueError, match="eps_fs"):
        SimConfig(eps_fs=0.0)
    with pytest.raises(ValueError, match="e_elec"):
        SimConfig(e_elec=-1e-9)
    with pytest.raises(ValueError, match="d0_override"):
        SimConfig(d0_override=-5.0)
