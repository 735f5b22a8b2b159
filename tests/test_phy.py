import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rateadapt import phy
from tests.reference import CHANNEL, TABLE, snr_db_reference


class TestFriis:
    def test_one_meter(self):
        assert phy.friis_path_loss(1.0, CHANNEL) == pytest.approx(46.73, abs=0.01)

    def test_ten_meters(self):
        # +20 dB per decade
        assert phy.friis_path_loss(10.0, CHANNEL) == pytest.approx(66.73, abs=0.01)

    @given(st.floats(min_value=0.1, max_value=1e6))
    def test_doubling_distance_adds_6dB(self, d):
        delta = phy.friis_path_loss(2 * d, CHANNEL) - phy.friis_path_loss(d, CHANNEL)
        assert delta == pytest.approx(20 * math.log10(2), rel=1e-9)

    def test_strictly_increasing(self):
        grid = np.geomspace(0.1, 1e4, 200)
        losses = [phy.friis_path_loss(d, CHANNEL) for d in grid]
        assert all(b > a for a, b in zip(losses, losses[1:]))


class TestNoisePower:
    def test_default_nf(self):
        assert CHANNEL.noise_power_dbm == pytest.approx(-93.99, abs=0.01)

    def test_zero_nf(self):
        params = replace(CHANNEL, noise_figure_db=0.0)
        assert params.noise_power_dbm == pytest.approx(-100.99, abs=0.01)

    def test_doubling_bandwidth_adds_3dB(self):
        single = replace(CHANNEL, bandwidth_hz=20e6).noise_power_dbm
        double = replace(CHANNEL, bandwidth_hz=40e6).noise_power_dbm
        assert double - single == pytest.approx(10 * math.log10(2), rel=1e-9)

    @pytest.mark.parametrize("params", [
        CHANNEL, replace(CHANNEL, bandwidth_hz=40e6, noise_figure_db=0.0)])
    def test_snr_bit_equal_to_per_call_noise_floor(self, params):
        # The noise floor is computed once per ChannelParams; snr_db must
        # equal the expression that recomputed it on every call.
        def per_call(d):
            noise = (-174.0 + 10.0 * math.log10(params.bandwidth_hz)
                     + params.noise_figure_db)
            return params.tx_power_dbm - phy.friis_path_loss(d, params) - noise

        grid = np.geomspace(0.1, 1e5, 500)
        assert phy.snr_db(grid, params).tobytes() == per_call(grid).tobytes()
        assert all(phy.snr_db(d, params) == per_call(d) for d in grid.tolist())


class TestSnr:
    def test_at_100m(self):
        assert phy.snr_db(100.0, CHANNEL) == pytest.approx(27.26, abs=0.05)

    def test_at_1m(self):
        assert phy.snr_db(1.0, CHANNEL) == pytest.approx(67.26, abs=0.05)

    def test_strictly_decreasing_in_distance(self):
        grid = np.geomspace(0.1, 1e4, 300)
        snrs = [phy.snr_db(d, CHANNEL) for d in grid]
        assert all(b < a for a, b in zip(snrs, snrs[1:]))

    def test_array_matches_scalar_calls_and_reference(self):
        # A window's SNRs come from one array call; the environment's outputs
        # stay byte-identical only if that equals per-frame scalar calls.
        rng = np.random.default_rng(0)
        grid = np.concatenate([np.geomspace(0.1, 1e5, 2000),
                               rng.uniform(0.1, 3000.0, 2000),
                               1.0 + 20.0 * np.arange(1, 51) * 272.31e-6])
        snrs = phy.snr_db(grid, CHANNEL)
        scalar = np.array([phy.snr_db(float(d), CHANNEL) for d in grid])
        assert snrs.tobytes() == scalar.tobytes()
        reference = np.array([snr_db_reference(float(d), CHANNEL) for d in grid])
        np.testing.assert_allclose(snrs, reference, rtol=1e-12, atol=0)


class TestFrameSuccessProb:
    # MCS 3: midpoint 14 dB, slope 1 per dB
    SLOPE, MIDPOINT = 1.0, 14.0

    def test_midpoint_is_half(self):
        assert phy.frame_success_prob(14.0, self.SLOPE, self.MIDPOINT) == 0.5

    def test_inverted_logistic_at_p09(self):
        snr = 14.0 + math.log(9.0) / 1.0
        assert phy.frame_success_prob(snr, self.SLOPE, self.MIDPOINT) == pytest.approx(
            0.9, abs=1e-9)

    def test_limits(self):
        assert phy.frame_success_prob(1e4, self.SLOPE, self.MIDPOINT) == 1.0
        assert phy.frame_success_prob(-1e4, self.SLOPE, self.MIDPOINT) == 0.0

    def test_monotone_in_snr_every_mcs(self):
        grid = np.linspace(-20, 60, 500)
        for slope, mid in zip(TABLE.slopes_per_db, TABLE.midpoints_db):
            p = phy.frame_success_prob(grid, slope, mid)
            assert np.all(np.diff(p) >= 0)
            assert np.all((p >= 0) & (p <= 1))

    def test_monotone_nonincreasing_in_mcs_index(self):
        for snr in np.linspace(-10, 50, 100):
            ps = phy.frame_success_prob(snr, TABLE.slopes_per_db, TABLE.midpoints_db)
            assert np.all(np.diff(ps) <= 0)

    def test_table_arrays_match_single_mcs_calls(self):
        # reference_ideal evaluates the 8 MCS at one SNR in one call, and
        # IdealAgent's threshold bisection at 8 SNRs, one per MCS; each entry
        # must agree bit for bit with one call per MCS.
        slopes = np.array([0.5, 1.0, 1.0, 1.5, 0.8, 1.0, 2.0, 1.0])
        for snr in np.linspace(-30, 70, 401):
            for at in (np.full(phy.N_MCS, snr), snr + np.linspace(-3.0, 3.0, phy.N_MCS)):
                together = phy.frame_success_prob(at, slopes, TABLE.midpoints_db)
                single = np.array([phy.frame_success_prob(x, s, m)
                                   for x, s, m in zip(at.tolist(), slopes, TABLE.midpoints_db)])
                assert together.tobytes() == single.tobytes()


class TestFrameSuccessProbOverflow:
    """frame_success_prob is the errstate expression bit for bit where exp
    overflows and either side of it, and lets no overflow warning out."""

    @staticmethod
    def errstate_expression(snr, slope, midpoint):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-slope * (snr - midpoint)))

    def test_bit_equal_to_the_errstate_expression(self):
        t = 709.782712893384  # np.log(np.finfo(float).max)
        exponents = np.array([np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf),
                              1e4, -1e4])
        # slope 1 and midpoint 0 make the exponent -snr exactly
        cases = [(-exponents, 1.0, 0.0), (np.full(64, -t), 1.0, 0.0),
                 *((-e, 1.0, 0.0) for e in exponents),
                 *((-e, np.ones(8), np.zeros(8)) for e in exponents)]
        for snr, slope, midpoint in cases:
            want = self.errstate_expression(snr, slope, midpoint)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no overflow warning escapes
                got = phy.frame_success_prob(snr, slope, midpoint)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert phy.frame_success_prob(-1e4, 1.0, 0.0) == 0.0


class TestScaleSnr:
    def test_midpoint(self):
        assert phy.scale_snr(20.0, 0.0, 40.0) == 0.5

    def test_clamp_below(self):
        assert phy.scale_snr(-5.0, 0.0, 40.0) == 0.0

    def test_clamp_above(self):
        assert phy.scale_snr(47.0, 0.0, 40.0) == 1.0

    @given(st.floats(min_value=-200, max_value=200, allow_nan=False))
    def test_always_in_unit_interval(self, snr):
        v = phy.scale_snr(snr, 0.0, 40.0)
        assert 0.0 <= v <= 1.0
        if snr <= 0.0:
            assert v == 0.0
        if snr >= 40.0:
            assert v == 1.0


class TestMcsTable:
    def test_default_table_valid(self):
        for column in (TABLE.rates_mbps, TABLE.midpoints_db, TABLE.slopes_per_db):
            assert column.shape == (phy.N_MCS,) and column.dtype == np.float64
        assert TABLE.max_rate_mbps == 65.0
        assert list(TABLE.rates_mbps) == list(phy.DEFAULT_PHY_RATES_MBPS)
