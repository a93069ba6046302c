"""Measurement kernels: Welch PSD, out-of-band level, the delay-Doppler
leakage ratio, and Wilson intervals for BER."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.signal

DB_FLOOR = -200.0


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


def psd_welch(x: np.ndarray, fs_hz: float, segment_len: int = 1024) -> PsdEstimate:
    """Welch averaged periodogram of a complex baseband signal, two-sided and centered.

    Hann window, 50 % overlap, density scaling: the PSD integrates to the
    mean signal power. The lowest (unpaired) frequency bin is dropped so the
    axis is symmetric about zero.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("psd_welch expects a 1-D signal")
    if x.size < segment_len:
        raise ValueError(f"signal length {x.size} shorter than segment {segment_len}")
    freqs, pxx = scipy.signal.welch(
        x, fs=fs_hz, window="hann", nperseg=segment_len, noverlap=round(segment_len / 2),
        detrend=False, return_onesided=False, scaling="density")
    order = np.fft.fftshift(np.arange(freqs.size))
    freqs = np.fft.fftshift(freqs)
    pxx = pxx[order]
    if segment_len % 2 == 0:
        freqs, pxx = freqs[1:], pxx[1:]
    return PsdEstimate(freq_hz=freqs, psd=pxx)


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
