"""Integration tests: full association -> concurrent round -> decode,
exercising the waveform path end-to-end across modules."""

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.core.config import NetScatterConfig
from repro.core.dcss import DeviceTransmission
from repro.core.receiver import NetScatterReceiver
from repro.hardware.device import BackscatterDevice, DeviceState
from repro.protocol.ap import AccessPoint
from repro.utils.rng import make_rng
from waveform_oracle import compose_frame, decode_frame


class TestAssociationToDataFlow:
    def test_full_protocol_round(self, config):
        """Fig. 10's flow: device 1 is a member; device 2 joins; both
        then transmit concurrently and decode."""
        rng = make_rng(99)
        ap = AccessPoint(config)
        params = config.chirp_params

        shift1 = ap.run_association(1, measured_snr_db=15.0)
        device1 = BackscatterDevice(1, params, rng=rng)
        device1.begin_association(-30.0)
        device1.complete_association(shift1, -30.0)

        shift2 = ap.run_association(2, measured_snr_db=8.0)
        device2 = BackscatterDevice(2, params, rng=rng)
        device2.begin_association(-42.0)
        device2.complete_association(shift2, -42.0)

        assert device1.state is DeviceState.ASSOCIATED
        assert device2.state is DeviceState.ASSOCIATED
        assert shift1 != shift2

        bits1 = rng.integers(0, 2, size=16).tolist()
        bits2 = rng.integers(0, 2, size=16).tolist()
        txs = [
            DeviceTransmission(shift=shift1, bits=bits1),
            DeviceTransmission(shift=shift2, bits=bits2),
        ]
        stream = compose_frame(
            params,
            txs,
            leading_silence_samples=300,
            trailing_silence_samples=2 * params.n_samples,
            rng=rng,
        )
        stream = awgn(stream, 0.0, rng)
        decode = decode_frame(ap.receiver(), stream, n_payload_bits=16)
        assert decode.bits_of(1) == bits1
        assert decode.bits_of(2) == bits2

    def test_device_waveforms_through_receiver(self, small_config):
        """Packets carrying each BackscatterDevice's own impairment draws
        (turnaround delay, CFO, power level) decode through the receiver
        on a shared timeline."""
        rng = make_rng(7)
        params = small_config.chirp_params
        payload = [1, 0, 1, 1, 0, 0, 1, 0]

        devices = []
        assignments = {}
        for device_id, shift in ((0, 4), (1, 24), (2, 44)):
            device = BackscatterDevice(device_id, params, rng=rng)
            device.begin_association(-30.0)
            device.complete_association(shift, -30.0)
            devices.append(device)
            assignments[device_id] = shift

        txs = []
        for device in devices:
            txs.append(
                DeviceTransmission(
                    shift=device.assigned_shift,
                    bits=payload,
                    power_gain_db=device.switch.gain_db,
                    delay_s=device.timing.sample_latency_s(rng),
                    cfo_hz=device.oscillator.offset_hz(rng),
                )
            )
        # Common-mode delay is absorbed by synchronisation; model it by
        # removing the mean before composing on the ideal timeline.
        mean_delay = float(np.mean([t.delay_s for t in txs]))
        for tx in txs:
            tx.delay_s -= mean_delay

        stream = compose_frame(
            params,
            txs,
            leading_silence_samples=100,
            trailing_silence_samples=2 * params.n_samples,
            rng=rng,
        )
        stream = awgn(stream, 5.0, rng)
        receiver = NetScatterReceiver(small_config, assignments)
        decode = decode_frame(receiver, stream, n_payload_bits=len(payload))
        for device_id in assignments:
            assert decode.bits_of(device_id) == payload


class TestNearFarIntegration:
    def test_power_aware_allocation_protects_weak_device(self, config):
        """With a 30 dB strong interferer, the weak device survives when
        allocated far away and fails when forced adjacent — the
        allocation ablation at waveform level."""
        from repro.core.dcss import compose_preamble_and_payload_symbols

        payload = [1, 0, 1, 1, 0, 1, 0, 0] * 3
        # The interferer's payload must differ from the victim's, else
        # its leakage coincides with the victim's own '1' symbols and
        # masks the interference.
        interferer_payload = [1 - b for b in payload]
        delta_db = 30.0

        def ber_at(strong_shift):
            generator = make_rng(17)
            txs = [
                DeviceTransmission(shift=0, bits=payload),
                DeviceTransmission(
                    shift=strong_shift,
                    bits=interferer_payload,
                    power_gain_db=delta_db,
                ),
            ]
            symbols = compose_preamble_and_payload_symbols(
                config.chirp_params, txs, rng=generator
            )
            symbols = [awgn(s, -5.0, generator) for s in symbols]
            receiver = NetScatterReceiver(
                config, {0: 0, 1: strong_shift}, detection_snr_db=-100.0
            )
            decode = receiver.decode_fast_symbols(symbols)
            got = decode.bits_of(0)
            return sum(1 for a, b in zip(payload, got) if a != b) / len(
                payload
            )

        far = ber_at(256)
        near = ber_at(2)
        assert far == 0.0
        assert near > 0.2

    def test_adjacent_5db_resilience(self, config):
        """Section 4.3: a device SKIP = 2 away tolerates a ~5 dB stronger
        neighbour."""
        from repro.core.dcss import compose_preamble_and_payload_symbols

        generator = make_rng(21)
        payload = [1, 0] * 10
        neighbour_payload = [0, 1] * 10  # anti-correlated: worst case
        txs = [
            DeviceTransmission(shift=0, bits=payload),
            DeviceTransmission(
                shift=2, bits=neighbour_payload, power_gain_db=5.0
            ),
        ]
        symbols = compose_preamble_and_payload_symbols(
            config.chirp_params, txs, rng=generator
        )
        symbols = [awgn(s, 0.0, generator) for s in symbols]
        receiver = NetScatterReceiver(config, {0: 0, 1: 2})
        decode = receiver.decode_fast_symbols(symbols)
        assert decode.bits_of(0) == payload
        assert decode.bits_of(1) == neighbour_payload


class TestCapacityConsistency:
    def test_throughput_approaches_capacity_regime(self, config):
        """The deployed operating point (SKIP 2) delivers half the BW
        ceiling; the capacity model must agree on the ordering."""
        from repro.core.capacity import (
            multiuser_capacity_bps,
            netscatter_utilisation,
        )

        full = NetScatterConfig(n_association_shifts=0)
        achieved = full.max_devices * full.device_bitrate_bps
        assert netscatter_utilisation(achieved, 500e3) == pytest.approx(0.5)
        # At -20 dB per device, 256 devices: capacity comfortably above
        # the achieved 250 kbps (coding is not capacity-achieving).
        capacity = multiuser_capacity_bps(500e3, -20.0, 256)
        assert capacity > achieved
