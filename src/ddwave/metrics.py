"""Measurement kernels: Welch PSD, out-of-band level, the delay-Doppler
leakage ratio, and Wilson intervals for BER."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import fft

DB_FLOOR = -200.0
# segments per FFT call, bounding the complex transient to 2 MB at 1024; numpy's pairwise
# sum adds at most this many in one unrolled loop and halves longer runs
PAIRWISE_BLOCK = 128


def _to_db(p: np.ndarray) -> np.ndarray:
    return 10.0 * np.log10(np.maximum(np.asarray(p, dtype=float), 10.0 ** (DB_FLOOR / 10.0)))


@dataclass(frozen=True)
class PsdEstimate:
    freq_hz: np.ndarray   # centered, strictly increasing, symmetric about 0
    psd: np.ndarray       # linear density, power per Hz

    @property
    def psd_db(self) -> np.ndarray:
        return _to_db(self.psd)

    def band_mean_db(self, lo_hz: float, hi_hz: float) -> float:
        """Mean linear PSD over lo <= |f| <= hi, in dB."""
        sel = (np.abs(self.freq_hz) >= lo_hz) & (np.abs(self.freq_hz) <= hi_hz)
        if not np.any(sel):
            raise ValueError(f"empty band selection [{lo_hz}, {hi_hz}] Hz")
        return float(_to_db(np.mean(self.psd[sel])))


def _power_sum(segments: np.ndarray, win: np.ndarray) -> np.ndarray:
    """Sum of the windowed segments' |S|^2, split where numpy's pairwise sum splits."""
    n = len(segments)
    if n > PAIRWISE_BLOCK:
        half = n // 2
        half -= half % 8
        return _power_sum(segments[:half], win) + _power_sum(segments[half:], win)
    spec = fft(segments * win, axis=-1)
    # C-order (segment_len, n), laid out as scipy's, so that the row sums round alike
    return np.ascontiguousarray((spec.real ** 2 + spec.imag ** 2).T).sum(axis=-1)


def psd_welch(x: np.ndarray, fs_hz: float, segment_len: int = 1024) -> PsdEstimate:
    """Welch averaged periodogram of a complex baseband signal, two-sided and centered.

    Hann window, 50 % overlap, density scaling: the PSD integrates to the
    mean signal power. The lowest (unpaired) frequency bin is dropped so the
    axis is symmetric about zero. Welch (1967) in the steps and order of
    scipy's ``welch`` (pinned to it in the tests). It keeps a running
    ``segment_len``-vector sum of the segments' |S|^2, transformed a block at
    a time, and divides it by the segment count at the end; neither the
    complex spectrogram nor the (segment_len, n_seg) power matrix is ever
    held. The blocks' sums are added as numpy's pairwise mean of that matrix
    adds its columns, so the estimate is bit for bit the matrix's mean.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("psd_welch expects a 1-D signal")
    if not 2 <= segment_len <= x.size:  # a 1-sample Hann window is 0
        raise ValueError(f"segment_len {segment_len} outside [2, signal length {x.size}]")
    # periodic Hann window at density scaling; Python's sum adds in sequence
    win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, segment_len + 1)[:-1])
    win = win * (1 / np.sqrt(sum(win ** 2) / (1 / fs_hz)))
    hop = segment_len - round(segment_len / 2)
    segments = sliding_window_view(x, segment_len)[::hop]
    freqs = np.fft.fftshift(np.fft.fftfreq(segment_len, 1 / fs_hz))
    pxx = np.fft.fftshift(_power_sum(segments, win) / len(segments))
    if segment_len % 2 == 0:
        freqs, pxx = freqs[1:], pxx[1:]
    return PsdEstimate(freq_hz=freqs, psd=pxx)


def centered_band_mask(n_bins: int, fraction: float) -> np.ndarray:
    """Unshifted-DFT bins whose centered frequency lies inside the central fraction."""
    n_half = int(round(n_bins * fraction / 2.0))
    k = np.arange(n_bins)
    return (k < n_half) | (k >= n_bins - n_half)


def band_has_welch_bin(lo_hz: float, hi_hz: float, fs_hz: float, segment_len: int) -> bool:
    """Whether ``band_mean_db(lo_hz, hi_hz)`` of a :func:`psd_welch` estimate has a bin.

    Its |f| are k * step, k <= (segment_len - 1) // 2, rounded as in np.fft.fftfreq.
    """
    step = 1.0 / (segment_len * (1.0 / fs_hz))
    k = max(int(np.ceil(lo_hz / step)) - 1, 0)
    while k * step < lo_hz:
        k += 1
    return k <= (segment_len - 1) // 2 and k * step <= hi_hz


def oob_metric(psd: PsdEstimate, occupied_band_hz: tuple[float, float],
               offset_band_hz: tuple[float, float]) -> float:
    """Mean PSD over the offset band minus mean PSD over the occupied band, in dB.

    Bands are (lo, hi) limits on |f|; more negative means better containment.
    """
    return psd.band_mean_db(*offset_band_hz) - psd.band_mean_db(*occupied_band_hz)


@dataclass(frozen=True)
class LeakageReport:
    total_energy: float
    in_window_energy: float
    leakage_ratio_db: float
    half_width_delay: int
    half_width_doppler: int


def doppler_leakage(grid: np.ndarray, center: tuple[int, int],
                    half_widths: tuple[int, int] = (1, 1)) -> LeakageReport:
    """Energy fraction outside a cyclic window around the center bin, in dB.

    ``grid`` is the received M x N delay-Doppler grid; the window spans
    (2 w_m + 1) x (2 w_n + 1) bins around ``center`` with cyclic wrapping.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ValueError("grid must be 2-D (delay x Doppler)")
    m_dim, n_dim = grid.shape
    w_m, w_n = half_widths
    if 2 * w_m + 1 > m_dim or 2 * w_n + 1 > n_dim:
        raise ValueError(f"window {2 * w_m + 1}x{2 * w_n + 1} larger than grid {grid.shape}")
    power = np.abs(grid) ** 2
    total = float(power.sum())
    rows = (center[0] + np.arange(-w_m, w_m + 1)) % m_dim
    cols = (center[1] + np.arange(-w_n, w_n + 1)) % n_dim
    in_window = float(power[np.ix_(rows, cols)].sum())
    if total == 0.0:
        ratio_db = DB_FLOOR
    else:
        ratio_db = float(_to_db(max(1.0 - in_window / total, 0.0)))
    return LeakageReport(total_energy=total, in_window_energy=in_window,
                         leakage_ratio_db=ratio_db,
                         half_width_delay=w_m, half_width_doppler=w_n)


def wilson_interval(n_errors: int, n_bits: int, z: float = 1.959963984540054
                    ) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    p = n_errors / n_bits
    denom = 1.0 + z * z / n_bits
    center = (p + z * z / (2 * n_bits)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n_bits + z * z / (4.0 * n_bits * n_bits)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)
