"""Unit tests for the multi-user capacity analysis (Section 3.1) and
the closed-form OOK link law."""

import numpy as np
import pytest
from scipy.stats import ncx2

from repro.core import capacity
from repro.core.capacity import (
    OOK_DETECTION_SNR_DB,
    OOK_EFFECTIVE_PAYLOAD_BITS,
    OOK_OFF_BIT_CANDIDATES,
    OOK_PREAMBLE_SYMBOLS,
    approximation_error,
    below_noise_approximation_bps,
    capacity_scaling_series,
    effective_bit_error_rate,
    multiuser_capacity_bps,
    netscatter_utilisation,
    noncentral_chi2_cdf,
    ook_link_probabilities,
    packet_delivery_probability,
    post_despreading_snr,
)
from repro.errors import LinkBudgetError

SPREADING_FACTORS = (7, 9, 12)
SNR_GRID_DB = np.linspace(-40.0, 30.0, 7001)


def _legacy_noncentral_chi2_cdf(x, noncentrality, max_terms=800):
    """The χ² series as it ran before lanes retired early, kept as the
    oracle: every lane runs all ``max_terms`` terms."""
    x = np.asarray(x, dtype=np.float64)
    lam = np.asarray(noncentrality, dtype=np.float64)
    x, lam = np.broadcast_arrays(x, lam)
    half_lam = lam / 2.0
    half_x = x / 2.0
    poisson = np.exp(-half_lam)
    term = np.exp(-half_x)
    tail = term.copy()
    cdf = np.zeros_like(half_x)
    for k in range(max_terms):
        cdf += poisson * (1.0 - tail)
        poisson = poisson * half_lam / (k + 1)
        term = term * half_x / (k + 1)
        tail = tail + term
    return np.clip(cdf, 0.0, 1.0)


def _legacy_link_law(snr_db, spreading_factor):
    """The per-stage formulas the kernel replaced, inlined as an oracle:
    every stage over every device, saturation resolved by ``np.where``,
    each χ² decision through the full-length series."""
    rho = post_despreading_snr(snr_db, spreading_factor)
    safe = np.minimum(rho, capacity._SATURATION_RHO)
    saturated = rho > capacity._SATURATION_RHO
    threshold = 0.5 * (safe + 1.0)
    p_on = _legacy_noncentral_chi2_cdf(2.0 * threshold, 2.0 * safe)
    p_off = 1.0 - (1.0 - np.exp(-threshold)) ** OOK_OFF_BIT_CANDIDATES
    p_on = np.where(saturated, 0.0, p_on)
    p_off = np.where(saturated, 0.0, p_off)
    symbol_ber = 0.5 * (p_on + p_off)
    gate = 10.0 ** (OOK_DETECTION_SNR_DB / 10.0)
    p_symbol = 1.0 - _legacy_noncentral_chi2_cdf(2.0 * gate, 2.0 * safe)
    p_detect = np.where(
        saturated, 1.0, p_symbol**OOK_PREAMBLE_SYMBOLS
    )
    delivery = p_detect * (1.0 - symbol_ber) ** float(
        OOK_EFFECTIVE_PAYLOAD_BITS
    )
    return delivery, 1.0 - p_detect * (1.0 - symbol_ber)


@pytest.fixture
def saturation_on_grid(monkeypatch):
    """Move the saturation rho onto the grid device nearest it, so one
    device sits exactly on the boundary (no SNR in dB maps exactly onto
    the default 300)."""

    def place(spreading_factor):
        rho = post_despreading_snr(SNR_GRID_DB, spreading_factor)
        nearest = rho[np.argmin(np.abs(rho - capacity._SATURATION_RHO))]
        monkeypatch.setattr(capacity, "_SATURATION_RHO", float(nearest))

    return place


class TestExactCapacity:
    def test_zero_devices_zero_capacity(self):
        assert multiuser_capacity_bps(500e3, -20.0, 0) == 0.0

    def test_monotone_in_devices(self):
        values = [
            multiuser_capacity_bps(500e3, -20.0, n) for n in (1, 10, 100)
        ]
        assert values[0] < values[1] < values[2]

    def test_known_value(self):
        # N*snr = 1 -> BW * log2(2) = BW.
        assert multiuser_capacity_bps(500e3, -20.0, 100) == pytest.approx(
            500e3
        )

    def test_invalid_inputs(self):
        with pytest.raises(LinkBudgetError):
            multiuser_capacity_bps(0.0, -20.0, 1)
        with pytest.raises(LinkBudgetError):
            multiuser_capacity_bps(500e3, -20.0, -1)


class TestLinearApproximation:
    def test_linear_in_n(self):
        one = below_noise_approximation_bps(500e3, -20.0, 1)
        ten = below_noise_approximation_bps(500e3, -20.0, 10)
        assert ten == pytest.approx(10 * one)

    def test_accurate_below_noise(self):
        """The paper's claim: below the noise floor capacity scales
        linearly. At N*snr = 0.01 the linearisation is within 1%."""
        assert approximation_error(-30.0, 10) < 0.01

    def test_degrades_above_noise(self):
        assert approximation_error(0.0, 100) > 0.5

    def test_zero_devices_zero_error(self):
        assert approximation_error(-20.0, 0) == 0.0


class TestSeries:
    def test_row_structure(self):
        rows = capacity_scaling_series(500e3, -25.0, [1, 2, 4])
        assert len(rows) == 3
        assert rows[0]["n_devices"] == 1.0
        assert rows[2]["capacity_bps"] > rows[0]["capacity_bps"]

    def test_approx_tracks_exact_at_low_snr(self):
        rows = capacity_scaling_series(500e3, -40.0, [1, 64, 256])
        for row in rows:
            assert row["linear_approx_bps"] == pytest.approx(
                row["capacity_bps"], rel=0.02
            )


class TestUtilisation:
    def test_full_band(self):
        assert netscatter_utilisation(500e3, 500e3) == pytest.approx(1.0)

    def test_deployment_skip2_half(self):
        """SKIP = 2 halves the 500 kbps ceiling to ~250 kbps."""
        assert netscatter_utilisation(250e3, 500e3) == pytest.approx(0.5)

    def test_invalid(self):
        with pytest.raises(LinkBudgetError):
            netscatter_utilisation(1.0, 0.0)
        with pytest.raises(LinkBudgetError):
            netscatter_utilisation(-1.0, 500e3)


class TestNoncentralChi2:
    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    def test_matches_scipy_on_link_law_arguments(self, sf):
        """Both decisions of the link law: the on-bit midpoint threshold
        and the preamble gate, over every unsaturated grid device."""
        rho = post_despreading_snr(SNR_GRID_DB, sf)
        rho = rho[rho <= capacity._SATURATION_RHO]
        gate = 10.0 ** (OOK_DETECTION_SNR_DB / 10.0)
        for x in (rho + 1.0, np.full_like(rho, 2.0 * gate)):
            np.testing.assert_allclose(
                noncentral_chi2_cdf(x, 2.0 * rho),
                ncx2.cdf(x, 2, 2.0 * rho),
                rtol=0.0,
                atol=1e-12,
            )


def _assert_same_bits(x, lam, max_terms=800):
    expected = _legacy_noncentral_chi2_cdf(x, lam, max_terms)
    actual = noncentral_chi2_cdf(x, lam, max_terms)
    assert type(actual) is type(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=True)


#: Arguments that stress the early exit: zero, tiny and subnormal
#: values, a central cdf near 1/2 (x = 2 ln 2), the preamble gate,
#: ``e^{-x/2}`` subnormal (x/2 in (708, 745]) and underflowing, and
#: values outside the precondition (negative, infinite, NaN).
EDGE_VALUES = np.array(
    [
        0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 2.0, 4.0, 2 * np.log(2.0),
        3.9810717055349722, 100.0, 600.0, 1400.0, 1420.0, 1480.0, 1489.5,
        1490.5, 1e10, 1e308, -5e-324, -1.0, -50.0, -100.0, -300.0, -1400.0,
        np.inf, -np.inf, np.nan,
    ]
)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
class TestSeriesEarlyExit:
    """The lane-retiring series returns exactly the full series' bits."""

    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    def test_link_law_decisions(self, sf):
        rho = post_despreading_snr(SNR_GRID_DB, sf)
        safe = np.minimum(rho, capacity._SATURATION_RHO)
        gate = 10.0 ** (OOK_DETECTION_SNR_DB / 10.0)
        _assert_same_bits(safe + 1.0, 2.0 * safe)
        _assert_same_bits(2.0 * gate, 2.0 * safe)

    def test_random_pairs(self):
        rng = np.random.default_rng(2019)
        x, lam = rng.uniform(0.0, 700.0, size=(2, 100_000))
        _assert_same_bits(x, lam)

    def test_zero_arguments(self):
        values = np.array([0.0, 1e-3, 1.0, 10.0, 300.0, 700.0])
        _assert_same_bits(0.0, values)
        _assert_same_bits(values, 0.0)
        _assert_same_bits(0.0, 0.0)

    def test_edge_values_in_either_argument(self):
        x, lam = np.meshgrid(EDGE_VALUES, EDGE_VALUES)
        _assert_same_bits(x, lam)

    @pytest.mark.parametrize(
        "x, lam",
        [
            (3.98, np.linspace(0.0, 600.0, 41)),
            (np.linspace(0.0, 600.0, 41), 250.0),
            (np.array([[1.0], [50.0]]), np.array([0.0, 20.0, 400.0])),
            (np.float64(2.0), np.float64(3.0)),
            (np.array(2.0), np.array(3.0)),
            (np.array([[7.0]]), np.array([1.0, 2.0])),
        ],
    )
    def test_broadcasts(self, x, lam):
        _assert_same_bits(x, lam)

    @pytest.mark.parametrize(
        "x, lam",
        [
            (np.empty(0), np.empty(0)),
            (2.0, np.empty(0)),
            (np.empty((0, 3)), 1.0),
            (np.empty((3, 1)), np.empty(0)),
            (np.empty((2, 0, 4)), np.ones(4)),
        ],
    )
    def test_empty_inputs(self, x, lam):
        _assert_same_bits(x, lam)

    @pytest.mark.parametrize(
        "offset, max_terms",
        [(0, 0), (0, 1), (-1, None), (0, None), (1, None), (0, 800)],
    )
    def test_max_terms(self, offset, max_terms):
        if max_terms is None:
            max_terms = capacity._SERIES_CHECK_PERIOD + offset
        rng = np.random.default_rng(max_terms)
        x = np.concatenate([EDGE_VALUES, rng.uniform(0.0, 80.0, 200)])
        lam = np.concatenate([EDGE_VALUES[::-1], rng.uniform(0.0, 2.0, 200)])
        _assert_same_bits(x, lam, max_terms)
        _assert_same_bits(2.0, lam, max_terms)


class TestOokLinkProbabilities:
    @pytest.mark.parametrize("on_boundary", [False, True])
    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    def test_bit_identical_to_per_stage_formulas(
        self, sf, on_boundary, saturation_on_grid
    ):
        snrs = SNR_GRID_DB
        rho = post_despreading_snr(snrs, sf)
        if on_boundary:
            saturation_on_grid(sf)
            assert np.any(rho == capacity._SATURATION_RHO)
        assert np.any(rho > capacity._SATURATION_RHO)
        assert np.any(rho < capacity._SATURATION_RHO)
        delivery, ber = ook_link_probabilities(snrs, sf)
        expected_delivery, expected_ber = _legacy_link_law(snrs, sf)
        assert np.array_equal(delivery, expected_delivery)
        assert np.array_equal(ber, expected_ber)
        assert np.array_equal(packet_delivery_probability(snrs, sf), delivery)
        assert np.array_equal(effective_bit_error_rate(snrs, sf), ber)

    def test_empty_input(self):
        delivery, ber = ook_link_probabilities(np.empty(0), 9)
        assert delivery.shape == ber.shape == (0,)

    @pytest.mark.parametrize("snr_db", [-40.0, -12.0, 0.0, 30.0, np.nan])
    def test_scalar_input(self, snr_db):
        delivery, ber = ook_link_probabilities(snr_db, 9)
        expected_delivery, expected_ber = _legacy_link_law(snr_db, 9)
        assert np.array_equal(delivery, expected_delivery, equal_nan=True)
        assert np.array_equal(ber, expected_ber, equal_nan=True)
