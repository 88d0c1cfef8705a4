"""Unit tests for the composed BackscatterDevice behaviour."""

import pytest

from repro.errors import ProtocolError
from repro.hardware.device import BackscatterDevice, DeviceState


@pytest.fixture
def device(params):
    return BackscatterDevice(device_id=7, params=params, rng=42)


class TestAssociationBehaviour:
    def test_initial_state(self, device):
        assert device.state is DeviceState.UNASSOCIATED
        assert device.assigned_shift is None

    def test_far_device_uses_max_power(self, device):
        gain = device.begin_association(query_rssi_dbm=-45.0)
        assert gain == 0.0

    def test_near_device_uses_middle_level(self, device):
        gain = device.begin_association(query_rssi_dbm=-25.0)
        assert gain == -4.0

    def test_complete_association(self, device):
        device.begin_association(-30.0)
        device.complete_association(assigned_shift=100, query_rssi_dbm=-30.0)
        assert device.state is DeviceState.ASSOCIATED
        assert device.assigned_shift == 100
        assert device.baseline_rssi_dbm == -30.0

    def test_cannot_associate_twice(self, device):
        device.begin_association(-30.0)
        device.complete_association(10, -30.0)
        with pytest.raises(ProtocolError):
            device.begin_association(-30.0)

    def test_invalid_shift_rejected(self, device, params):
        device.begin_association(-30.0)
        with pytest.raises(ProtocolError):
            device.complete_association(params.n_shifts, -30.0)

    def test_reset(self, device):
        device.begin_association(-30.0)
        device.complete_association(10, -30.0)
        device.reset_association()
        assert device.state is DeviceState.UNASSOCIATED
        assert device.assigned_shift is None


class TestPowerAdjustment:
    def _associated(self, params, rssi=-30.0):
        device = BackscatterDevice(device_id=1, params=params, rng=3)
        device.begin_association(rssi)
        device.complete_association(50, rssi)
        return device

    def test_requires_association(self, device):
        with pytest.raises(ProtocolError):
            device.adjust_power(-30.0)

    def test_stronger_channel_steps_down(self, params):
        device = self._associated(params)
        initial = device.switch.gain_db
        gain, participate = device.adjust_power(-25.0)  # 5 dB hotter
        assert participate
        assert gain < initial

    def test_weaker_channel_steps_up(self, params):
        device = self._associated(params)
        gain, participate = device.adjust_power(-35.0)  # 5 dB colder
        assert participate
        assert gain > -4.0

    def test_small_change_no_step(self, params):
        device = self._associated(params)
        gain, participate = device.adjust_power(-30.5)
        assert participate
        assert gain == -4.0

    def test_exhausted_levels_sit_out(self, params):
        device = self._associated(params)
        # Drive the channel much hotter repeatedly: -4 -> -10 -> stuck.
        device.adjust_power(-22.0)
        device.adjust_power(-22.0)
        gain, participate = device.adjust_power(-22.0)
        assert gain == -10.0
        assert not participate

    def test_reassociation_after_repeated_skips(self, params):
        device = self._associated(params)
        for _ in range(2):
            device.adjust_power(-22.0)
        for _ in range(4):
            if device.state is not DeviceState.ASSOCIATED:
                break
            device.adjust_power(-22.0)
        assert device.state is DeviceState.UNASSOCIATED

    def test_participation_resets_skip_counter(self, params):
        device = self._associated(params)
        device.adjust_power(-22.0)  # steps -4 -> -10, still participates
        device.adjust_power(-22.0)  # exhausted: sits out (1)
        device.adjust_power(-22.0)  # sits out (2)
        assert device.skipped_rounds == 2
        device.adjust_power(-30.0)  # back in range
        assert device.skipped_rounds == 0
        assert device.state is DeviceState.ASSOCIATED
