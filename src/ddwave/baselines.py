"""Comparison schemes: receiver-windowed OTFS and per-delay-block filtering.

RW-OTFS multiplies the delay-time samples by a global window, at the
receiver to tame Doppler-induced leakage and optionally at the transmitter
for sidelobe studies. The per-delay-block scheme runs a small subband filter
bank over each length-M delay block and overlap-adds the filter tails, so
filtering acts along the delay dimension only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal.windows import chebwin

from .scfdma import ProbedModem, zak_demodulate, zak_modulate
from .transforms import (
    DimensionError,
    FrameGeometry,
    add_cp,
    full_dft,
    to_delay_doppler,
    to_frequency_doppler,
)
from .ufmc import FilterBankSpec, UfmcOperators, design_chebyshev_prototype

WINDOW_KINDS = ("dolph_chebyshev", "raised_cosine", "rectangular")


@dataclass(frozen=True)
class WindowSpec:
    """Global window: kind, length M*N, and its shape parameter.

    The parameter is the sidelobe attenuation in dB for dolph_chebyshev and
    the roll-off fraction in (0, 1] for raised_cosine. Values are peak
    normalized to 1.
    """

    kind: str = "dolph_chebyshev"
    length: int = 512
    parameter: float = 60.0

    def values(self) -> np.ndarray:
        if self.length < 1:
            raise DimensionError("window length must be >= 1")
        if self.kind == "rectangular":
            return np.ones(self.length)
        if self.kind == "dolph_chebyshev":
            if self.length == 1:
                return np.ones(1)
            w = chebwin(self.length, at=self.parameter)
            return w / w.max()
        if self.kind == "raised_cosine":
            beta = self.parameter
            if not 0.0 < beta <= 1.0:
                raise ValueError(f"raised_cosine roll-off must be in (0, 1], got {beta}")
            n = np.arange(self.length)
            edge = beta * self.length / 2.0
            w = np.ones(self.length)
            left = n < edge
            right = n >= self.length - edge
            w[left] = 0.5 * (1 - np.cos(np.pi * n[left] / edge))
            w[right] = 0.5 * (1 - np.cos(np.pi * (self.length - 1 - n[right]) / edge))
            return w
        raise ValueError(f"unknown window kind {self.kind!r}, expected one of {WINDOW_KINDS}")


class RwOtfsModem(ProbedModem):
    """OTFS with a global delay-time window at the receiver (and optionally TX)."""

    name = "rw_otfs"

    def __init__(self, geom: FrameGeometry, window: WindowSpec | None = None,
                 tx_window: bool = False):
        if window is None:
            window = WindowSpec(length=geom.n_sc)
        if window.length != geom.n_sc:
            raise DimensionError(
                f"window length {window.length} does not match n_sc={geom.n_sc}")
        self.geom = geom
        self.window = window
        self.window_values = window.values()
        self.tx_window = tx_window
        self.tx_len = geom.n_sc + geom.cp_len
        self.rx_len = self.tx_len

    def modulate(self, d) -> np.ndarray:
        s_t = full_dft(to_frequency_doppler(d, self.geom), inverse=True)
        if self.tx_window:
            s_t = s_t * self.window_values.reshape((-1,) + (1,) * (s_t.ndim - 1))
        return add_cp(s_t, self.geom.cp_len)

    def demodulate(self, r) -> np.ndarray:
        r = np.asarray(r)[:self.rx_len]
        kept = r[self.geom.cp_len:] * self.window_values.reshape((-1,) + (1,) * (r.ndim - 1))
        return to_delay_doppler(full_dft(kept), self.geom)


@dataclass(frozen=True)
class DrUfmcSpec:
    """Per-delay-block filtering parameters: subband size, filter length, attenuation."""

    n_sc_rb: int = 4
    filter_len: int = 20
    atten_db: float = 60.0


class DrUfmcModem(ProbedModem):
    """Per-delay-block subband filtering with overlap-add between blocks.

    Each of the N delay blocks of the Zak-domain signal is treated as one
    multicarrier symbol over M bins: forward DFT, normalized and
    predistorted subband synthesis (length M + filter_len - 1), then the
    filter tails of consecutive blocks overlap. The receiver analyzes each
    block at its nominal boundaries, which leaves the inter-block
    interference in the effective channel for the detector to handle.
    """

    name = "dr_ufmc"

    def __init__(self, geom: FrameGeometry, spec: DrUfmcSpec | None = None):
        if spec is None:
            spec = DrUfmcSpec(n_sc_rb=geom.n_sc_rb)
        if geom.M % spec.n_sc_rb != 0:
            raise DimensionError(f"n_sc_rb={spec.n_sc_rb} must divide M={geom.M}")
        self.geom = geom
        self.spec = spec
        proto = design_chebyshev_prototype(spec.filter_len, spec.atten_db)
        self.bank = FilterBankSpec(geom.M, spec.n_sc_rb, proto)
        # Predistorted per-block modulator; without it the per-bin gain
        # ripple of the bank (periodic across subbands) puts delay-domain
        # ghosts on the raw demodulated grid.
        self.block_mod = UfmcOperators(self.bank).tu
        self.block_len = geom.M + spec.filter_len - 1
        self.tx_len = geom.n_sc + spec.filter_len - 1
        self.rx_len = self.tx_len

    def tx_from_block_spectra(self, f_blocks: np.ndarray) -> np.ndarray:
        """Overlap-add synthesis from per-block frequency content (N, M[, cols])."""
        f_blocks = np.asarray(f_blocks)
        if f_blocks.shape[:2] != (self.geom.N, self.geom.M):
            raise DimensionError(
                f"expected leading shape {(self.geom.N, self.geom.M)}, got {f_blocks.shape[:2]}")
        filtered = np.einsum("lm,nm...->nl...", self.block_mod, f_blocks)
        out = np.zeros((self.tx_len,) + f_blocks.shape[2:], dtype=complex)
        m = self.geom.M
        for n in range(self.geom.N):
            out[n * m:n * m + self.block_len] += filtered[n]
        return out

    def modulate(self, d) -> np.ndarray:
        d = np.asarray(d)
        s_t = zak_modulate(d, self.geom)
        blocks = s_t.reshape((self.geom.N, self.geom.M) + d.shape[1:])
        f_blocks = np.fft.fft(blocks, axis=1) / np.sqrt(self.geom.M)
        return self.tx_from_block_spectra(f_blocks)

    def demodulate(self, r) -> np.ndarray:
        r = np.asarray(r)[:self.rx_len]
        m, n_blocks = self.geom.M, self.geom.N
        rest = r.shape[1:]
        slices = np.stack([r[n * m:n * m + self.block_len] for n in range(n_blocks)])
        padded = np.zeros((n_blocks, 2 * m) + rest, dtype=complex)
        padded[:, :self.block_len] = slices
        spectra = np.fft.fft(padded, axis=1) / np.sqrt(2 * m)
        f_blocks = spectra[:, 0::2]
        blocks = np.fft.ifft(f_blocks, axis=1) * np.sqrt(m)
        s_t = blocks.reshape((self.geom.n_sc,) + rest)
        return zak_demodulate(s_t, self.geom)
