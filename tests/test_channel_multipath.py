"""Unit tests for repro.channel.multipath — Saleh-Valenzuela model."""

import numpy as np
import pytest

from per_symbol_oracle import classic_decode
from repro.errors import ReproError
from waveform_oracle import (
    MultipathChannel,
    MultipathTap,
    delay_spread_in_bins,
    paper_delay_spread_range_bins,
    saleh_valenzuela_channel,
)


class TestTapsAndChannel:
    def test_single_tap_identity(self, rng):
        channel = MultipathChannel(
            taps=[MultipathTap(delay_s=0.0, gain=1.0 + 0j)]
        )
        signal = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert np.allclose(channel.apply(signal, 1e6), signal)

    def test_delayed_tap_shifts(self):
        channel = MultipathChannel(
            taps=[MultipathTap(delay_s=2e-6, gain=1.0 + 0j)]
        )
        signal = np.zeros(16, dtype=complex)
        signal[0] = 1.0
        out = channel.apply(signal, 1e6)  # 2 us at 1 Msps = 2 samples
        assert out[2] == pytest.approx(1.0)
        assert np.sum(np.abs(out)) == pytest.approx(1.0)

    def test_tap_beyond_signal_is_dropped(self):
        channel = MultipathChannel(
            taps=[MultipathTap(delay_s=1.0, gain=1.0 + 0j)]
        )
        out = channel.apply(np.ones(8, dtype=complex), 1e6)
        assert np.all(out == 0)

    def test_empty_taps_rejected(self):
        with pytest.raises(ReproError):
            MultipathChannel(taps=[])

    def test_normalization(self, rng):
        channel = saleh_valenzuela_channel(rng)
        total = sum(abs(t.gain) ** 2 for t in channel.taps)
        assert total == pytest.approx(1.0, rel=1e-9)


class TestRmsDelaySpread:
    def test_single_tap_zero_spread(self):
        channel = MultipathChannel(
            taps=[MultipathTap(delay_s=5e-8, gain=1.0 + 0j)]
        )
        assert channel.rms_delay_spread_s == pytest.approx(0.0, abs=1e-15)

    def test_two_equal_taps(self):
        channel = MultipathChannel(
            taps=[
                MultipathTap(delay_s=0.0, gain=1.0 + 0j),
                MultipathTap(delay_s=100e-9, gain=1.0 + 0j),
            ]
        )
        assert channel.rms_delay_spread_s == pytest.approx(50e-9)

    def test_generated_channels_in_indoor_range(self, rng):
        """Most SV realisations should produce spreads consistent with
        the paper's cited 50-300 ns indoor environment (we allow the
        generator's natural spread around it)."""
        spreads = [
            saleh_valenzuela_channel(rng).rms_delay_spread_s
            for _ in range(50)
        ]
        median = float(np.median(spreads))
        assert 10e-9 < median < 400e-9


class TestNegligibilityClaim:
    def test_paper_bin_numbers(self):
        """Section 3.2.1: 300 ns at 500 kHz is 0.15 bins (negligible)."""
        assert delay_spread_in_bins(300e-9, 500e3) == pytest.approx(0.15)
        low, high = paper_delay_spread_range_bins(500e3)
        assert low == pytest.approx(0.025)
        assert high == pytest.approx(0.15)

    def test_chirp_survives_indoor_multipath(self, params, rng):
        """End-to-end check of the claim: a chirp through a 300 ns-class
        channel still decodes to the right bin (possibly +/- a fraction
        absorbed by the guard)."""
        from repro.phy.chirp import cyclic_shifted_upchirp
        from repro.phy.demodulation import Demodulator

        channel = saleh_valenzuela_channel(rng)
        demod = Demodulator(params)
        symbol = np.asarray(cyclic_shifted_upchirp(params, 100))
        # Critical rate: 500 kHz -> taps round to 0-1 samples.
        out = channel.apply(symbol, params.bandwidth_hz)
        decoded = classic_decode(demod, out)
        assert abs(decoded - 100) <= 1

    def test_invalid_sample_rate(self):
        channel = MultipathChannel(
            taps=[MultipathTap(delay_s=0.0, gain=1.0 + 0j)]
        )
        with pytest.raises(ReproError):
            channel.apply(np.ones(4, dtype=complex), 0.0)

    def test_negative_spread_rejected(self):
        with pytest.raises(ReproError):
            delay_spread_in_bins(-1e-9, 500e3)
