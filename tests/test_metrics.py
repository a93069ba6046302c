"""Measurement kernels: Welch PSD, OOB level, leakage ratio, Wilson intervals."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.signal
from numpy.lib.stride_tricks import sliding_window_view

from ddwave.metrics import (
    band_has_welch_bin,
    doppler_leakage,
    oob_metric,
    psd_welch,
    wilson_interval,
)


class TestPsdWelch:
    def test_tone_dominates(self):
        fs = 1.0e6
        n = 65536
        f0 = 200e3
        t = np.arange(n) / fs
        x = np.exp(2j * np.pi * f0 * t)
        est = psd_welch(x, fs)
        peak_idx = np.argmax(est.psd)
        assert est.freq_hz[peak_idx] == pytest.approx(f0, abs=2 * fs / 1024)
        df = fs / 1024
        two_bins_away = np.argmin(np.abs(est.freq_hz - (f0 + 2 * df)))
        assert est.psd_db[peak_idx] - est.psd_db[two_bins_away] >= 30.0

    def test_white_noise_flat_at_density_level(self):
        rng = np.random.default_rng(1)
        fs = 2.0
        var = 0.7
        x = np.sqrt(var / 2) * (rng.normal(size=400_000) + 1j * rng.normal(size=400_000))
        est = psd_welch(x, fs)
        level_db = 10 * np.log10(var / fs)
        assert np.abs(10 * np.log10(np.mean(est.psd)) - level_db) < 1.0

    def test_total_power_matches_time_domain(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=100_000) + 1j * rng.normal(size=100_000)
        est = psd_welch(x, fs_hz=5.0)
        df = 5.0 / 1024
        integrated = np.sum(est.psd) * df
        assert integrated == pytest.approx(np.mean(np.abs(x) ** 2), rel=0.01)

    def test_zero_input_clamped(self):
        est = psd_welch(np.zeros(4096, dtype=complex), 1.0)
        assert np.all(est.psd_db == -200.0)

    def test_axis_symmetric_and_increasing(self):
        est = psd_welch(np.ones(4096, dtype=complex), 1.0)
        assert np.all(np.diff(est.freq_hz) > 0)
        assert np.max(np.abs(est.freq_hz + est.freq_hz[::-1])) < 1e-9

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            psd_welch(np.zeros(100, dtype=complex), 1.0, segment_len=1024)

    def test_one_sample_segment_rejected(self):
        with pytest.raises(ValueError):
            psd_welch(np.ones(100, dtype=complex), 1.0, segment_len=1)


class TestPsdWelchEqualsScipy:
    """psd_welch is scipy's ``welch`` at the same settings, shifted, lowest bin dropped."""

    @pytest.mark.parametrize("segment_len, n, fs", [
        (64, 64, 1.0), (64, 1000, 1.92e6), (65, 1000, 1.92e6), (97, 12_345, 3.0),
        (256, 300_001, 5.0), (1023, 65_537, 7.3e5), (1024, 40_000, 10e6)])
    def test_equals_scipy_welch(self, segment_len, n, fs):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        est = psd_welch(x, fs, segment_len=segment_len)
        freqs, pxx = scipy.signal.welch(
            x, fs=fs, window="hann", nperseg=segment_len, noverlap=round(segment_len / 2),
            detrend=False, return_onesided=False, scaling="density")
        drop = int(segment_len % 2 == 0)
        np.testing.assert_allclose(est.psd, np.fft.fftshift(pxx)[drop:], rtol=1e-13, atol=0)
        np.testing.assert_allclose(est.freq_hz, np.fft.fftshift(freqs)[drop:], rtol=1e-13)

    def test_complex_spectrogram_never_whole(self):
        # 2047 segments of 1024: the whole complex FFT alone would be 33.5 MB
        x = np.ones(1 << 20, dtype=complex)
        tracemalloc.start()
        psd_welch(x, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2047 * 1024 * 16

    @pytest.mark.parametrize("segment_len, n", [
        (64, 64), (64, 8_225), (65, 10_000), (16, 2_000), (8, 100_003), (1024, 300_000)])
    def test_running_sum_is_the_power_matrix_mean_bit_for_bit(self, segment_len, n):
        # 1 to 24,999 segments, across numpy's pairwise leaves of 128 and its 8192 buffer
        rng = np.random.default_rng(segment_len)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, segment_len + 1)[:-1])
        win = win * (1 / np.sqrt(sum(win ** 2)))
        hop = segment_len - round(segment_len / 2)
        spec = scipy.fft.fft(sliding_window_view(x, segment_len)[::hop] * win, axis=-1)
        power = np.ascontiguousarray((spec.real ** 2 + spec.imag ** 2).T)  # scipy's layout
        drop = int(segment_len % 2 == 0)
        dense = np.fft.fftshift(power.mean(axis=-1))[drop:]
        assert np.array_equal(psd_welch(x, 1.0, segment_len=segment_len).psd, dense)

    def test_power_matrix_never_whole(self):
        # 2047 segments of 1024: the real (segment_len, n_seg) power matrix would be 16.8 MB
        x = np.ones(1 << 20, dtype=complex)
        tracemalloc.start()
        psd_welch(x, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2047 * 1024 * 8 / 2


class TestOobMetric:
    def test_brickwall_floor(self):
        rng = np.random.default_rng(3)
        n = 1 << 16
        spec = np.zeros(n, dtype=complex)
        spec[:n // 8] = rng.normal(size=n // 8) + 1j * rng.normal(size=n // 8)
        spec[-n // 8:] = rng.normal(size=n // 8) + 1j * rng.normal(size=n // 8)
        x = np.fft.ifft(spec) * np.sqrt(n)
        est = psd_welch(x, 1.0)
        # occupied |f| < 0.125, offset well outside
        val = oob_metric(est, (0.0, 0.11), (0.3, 0.4))
        assert val < -40.0

    def test_equal_levels_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=65536) + 1j * rng.normal(size=65536)
        est = psd_welch(x, 1.0)
        val = oob_metric(est, (0.0, 0.2), (0.3, 0.45))
        assert abs(val) < 0.5

    def test_empty_band_rejected(self):
        est = psd_welch(np.ones(2048, dtype=complex), 1.0)
        with pytest.raises(ValueError):
            oob_metric(est, (0.0, 0.1), (0.9, 0.95))


class TestBandHasWelchBin:
    @staticmethod
    def selects_a_bin(est, lo, hi):
        try:
            est.band_mean_db(lo, hi)
        except ValueError:
            return False
        return True

    def test_agrees_with_band_mean_db(self):
        n_empty = 0
        for seg in list(range(64, 200)) + [256, 1000, 1024]:
            for fs in (1.92e6, 10e6, 7.3e5):
                est = psd_welch(np.zeros(seg), fs, segment_len=seg)
                bands = [(f * 0.55 * fs, f * 0.75 * fs) for f in (2 / 3, 0.5, 0.1, 0.03125)]
                # bands whose edges sit on, or one float step off, an axis bin
                for f in np.abs(est.freq_hz[[0, seg // 3, -2]]):
                    bands += [(f, f), (np.nextafter(f, 0), np.nextafter(f, 0)),
                              (np.nextafter(f, np.inf), 2 * f + 1.0)]
                for lo, hi in bands:
                    expected = self.selects_a_bin(est, lo, hi)
                    n_empty += not expected
                    assert band_has_welch_bin(lo, hi, fs, seg) == expected, (seg, fs, lo, hi)
        assert n_empty > 100

    def test_large_segment_builds_no_axis(self):
        assert band_has_welch_bin(0.55e6, 0.75e6, 2e6, 2 ** 52)
        assert not band_has_welch_bin(0.55e6, 0.56e6, 2e6, 64)


class TestDopplerLeakage:
    def test_all_energy_at_center(self):
        grid = np.zeros((8, 8))
        grid[4, 4] = 3.0
        rep = doppler_leakage(grid, (4, 4))
        assert rep.leakage_ratio_db == -200.0
        assert rep.in_window_energy == pytest.approx(rep.total_energy)

    def test_uniform_energy_closed_form(self):
        grid = np.ones((16, 8))
        rep = doppler_leakage(grid, (3, 3), (1, 1))
        assert rep.leakage_ratio_db == pytest.approx(10 * np.log10(1 - 9 / 128), abs=1e-9)

    def test_cyclic_window(self):
        grid = np.zeros((4, 4))
        grid[0, 0] = 1.0
        grid[3, 3] = 1.0  # inside the 3x3 cyclic window around (0, 0)
        rep = doppler_leakage(grid, (0, 0), (1, 1))
        assert rep.in_window_energy == pytest.approx(2.0)

    def test_monotone_in_window_size(self):
        rng = np.random.default_rng(5)
        grid = rng.normal(size=(16, 12))
        vals = [doppler_leakage(grid, (8, 6), (w, w)).leakage_ratio_db for w in (1, 2, 3)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_window_larger_than_grid_rejected(self):
        with pytest.raises(ValueError):
            doppler_leakage(np.ones((4, 4)), (0, 0), (2, 2))


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(30, 1000)
        assert lo < 0.03 < hi

    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 10_000)
        assert lo == 0.0
        assert 0.0 < hi < 1e-3

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
