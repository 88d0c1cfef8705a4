"""Unit tests for repro.channel.pathloss."""

import pytest

from repro.channel.pathloss import free_space_path_loss_db, indoor_path_loss_db
from repro.errors import LinkBudgetError


class TestFreeSpace:
    def test_known_value(self):
        # FSPL at 1 m, 900 MHz is ~31.5 dB.
        assert free_space_path_loss_db(1.0, 900e6) == pytest.approx(
            31.5, abs=0.2
        )

    def test_inverse_square(self):
        near = free_space_path_loss_db(10.0, 900e6)
        far = free_space_path_loss_db(20.0, 900e6)
        assert far - near == pytest.approx(6.02, abs=0.01)

    def test_frequency_scaling(self):
        low = free_space_path_loss_db(10.0, 900e6)
        high = free_space_path_loss_db(10.0, 1800e6)
        assert high - low == pytest.approx(6.02, abs=0.01)

    def test_invalid_inputs(self):
        with pytest.raises(LinkBudgetError):
            free_space_path_loss_db(0.0, 900e6)
        with pytest.raises(LinkBudgetError):
            free_space_path_loss_db(1.0, 0.0)


class TestIndoor:
    def test_reduces_to_reference_at_1m(self):
        assert indoor_path_loss_db(1.0, 900e6) == pytest.approx(
            free_space_path_loss_db(1.0, 900e6)
        )

    def test_exponent_rolloff(self):
        near = indoor_path_loss_db(10.0, 900e6, exponent=3.0)
        far = indoor_path_loss_db(100.0, 900e6, exponent=3.0)
        assert far - near == pytest.approx(30.0, abs=0.01)

    def test_walls_add_loss(self):
        clear = indoor_path_loss_db(10.0, 900e6, n_walls=0)
        walled = indoor_path_loss_db(10.0, 900e6, n_walls=3, wall_loss_db=5.0)
        assert walled - clear == pytest.approx(15.0)

    def test_below_reference_clamps_to_reference(self):
        assert indoor_path_loss_db(0.5, 900e6) == pytest.approx(
            free_space_path_loss_db(1.0, 900e6)
        )

    def test_invalid_walls(self):
        with pytest.raises(LinkBudgetError):
            indoor_path_loss_db(10.0, 900e6, n_walls=-1)
