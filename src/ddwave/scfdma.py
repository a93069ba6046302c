"""SC-FDMA implementation of the delay-Doppler modem, with CP and optional window.

Two equivalent modulation paths exist: the direct Zak path
s_t = (F_N^H kron I_M) d (per-delay inverse DFT across Doppler), and the
SC-FDMA path s_t = F_MN^H Gamma d, which routes through the
frequency-Doppler domain where the filtered modems hook in. Their equality
is the factorization identity checked in the test suite. The
effective-channel probe that every modem shares lives here as well.

``CpOtfsModem(geom, cp_len, window=None, tx_window=False)`` serves both CP
schemes: plain OTFS (``otfs``, no window) and receiver-windowed OTFS
(``rw_otfs``), which multiplies the kept delay-time samples by a global
window to tame Doppler-induced leakage, and with ``tx_window`` also the
transmitted ones for sidelobe studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal.windows import chebwin

from . import channel as chan
from .transforms import (
    DimensionError,
    FrameGeometry,
    add_cp,
    full_dft,
    remove_cp,
    to_delay_doppler,
    to_frequency_doppler,
)

WINDOW_KINDS = ("dolph_chebyshev", "raised_cosine", "rectangular")


@dataclass(frozen=True)
class WindowSpec:
    """Global window: kind and its shape parameter.

    The parameter is the sidelobe attenuation in dB for dolph_chebyshev and
    the roll-off fraction in (0, 1] for raised_cosine. Values are peak
    normalized to 1.
    """

    kind: str = "dolph_chebyshev"
    parameter: float = 60.0

    def values(self, length: int) -> np.ndarray:
        if self.kind == "rectangular":
            return np.ones(length)
        if self.kind == "dolph_chebyshev":
            w = chebwin(length, at=self.parameter)
            return w / w.max()
        if self.kind == "raised_cosine":
            beta = self.parameter
            if not 0.0 < beta <= 1.0:
                raise ValueError(f"raised_cosine roll-off must be in (0, 1], got {beta}")
            n = np.arange(length)
            edge = beta * length / 2.0
            w = np.ones(length)
            left = n < edge
            right = n >= length - edge
            w[left] = 0.5 * (1 - np.cos(np.pi * n[left] / edge))
            w[right] = 0.5 * (1 - np.cos(np.pi * (length - 1 - n[right]) / edge))
            return w
        raise ValueError(f"unknown window kind {self.kind!r}, expected one of {WINDOW_KINDS}")


def zak_modulate(d, geom: FrameGeometry) -> np.ndarray:
    """Delay-Doppler to delay-time: inverse DFT over the Doppler axis per delay bin."""
    d = np.asarray(d)
    if d.shape[0] != geom.n_sc:
        raise DimensionError(f"expected leading dimension {geom.n_sc}, got {d.shape[0]}")
    rest = d.shape[1:]
    v = d.reshape((geom.N, geom.M) + rest)
    return (np.fft.ifft(v, axis=0) * np.sqrt(geom.N)).reshape(d.shape)


def zak_demodulate(s_t, geom: FrameGeometry) -> np.ndarray:
    """Inverse of :func:`zak_modulate`: forward DFT over the Doppler axis."""
    s_t = np.asarray(s_t)
    if s_t.shape[0] != geom.n_sc:
        raise DimensionError(f"expected leading dimension {geom.n_sc}, got {s_t.shape[0]}")
    rest = s_t.shape[1:]
    v = s_t.reshape((geom.N, geom.M) + rest)
    return (np.fft.fft(v, axis=0) / np.sqrt(geom.N)).reshape(s_t.shape)


class ProbedModem:
    """Effective-channel probe shared by every modem.

    A subclass provides ``geom``, ``rx_len``, ``modulate`` and ``demodulate``,
    all linear and columnwise on matrices. The probe pushes the identity basis
    through the chain; the transmitted basis does not depend on the channel,
    so it is built on the first probe and kept.
    """

    _basis: np.ndarray | None = None

    def effective_channel(self, ch: chan.LtvChannelRealization) -> np.ndarray:
        """End-to-end delay-Doppler map; column q is the response to symbol q."""
        if self._basis is None:
            self._basis = self.modulate(np.eye(self.geom.n_sc, dtype=complex))
        return self.demodulate(chan.apply_channel(self._basis, ch, out_len=self.rx_len))


class CpOtfsModem(ProbedModem):
    """CP-OTFS transceiver over the SC-FDMA route, optionally windowed.

    ``window`` (a :class:`WindowSpec`, sized to M*N) multiplies the
    delay-time samples after CP removal, and with ``tx_window`` also before
    the CP is added.
    """

    def __init__(self, geom: FrameGeometry, cp_len: int = 0,
                 window: WindowSpec | None = None, tx_window: bool = False):
        if cp_len < 0:
            raise DimensionError(f"cp_len must be nonnegative, got {cp_len}")
        if tx_window and window is None:
            raise ValueError("tx_window requires a window")
        self.geom = geom
        self.cp_len = cp_len
        self.window_values = None if window is None else window.values(geom.n_sc)
        self.tx_window = tx_window
        self.rx_len = geom.n_sc + cp_len

    def _windowed(self, s_t: np.ndarray) -> np.ndarray:
        return s_t * self.window_values.reshape((-1,) + (1,) * (s_t.ndim - 1))

    def modulate(self, d) -> np.ndarray:
        """Frequency-Doppler route F_MN^H Gamma d, the TX window if on, then the CP."""
        s_t = full_dft(to_frequency_doppler(d, self.geom), inverse=True)
        if self.tx_window:
            s_t = self._windowed(s_t)
        return add_cp(s_t, self.cp_len)

    def demodulate(self, r) -> np.ndarray:
        """CP removal, the RX window if any, full DFT, then the inverse frequency-Doppler route.

        Samples beyond rx_len (the channel tail) are dropped; shorter input
        is rejected. Works columnwise on matrices.
        """
        kept = remove_cp(np.asarray(r)[:self.rx_len], self.cp_len, self.geom.n_sc)
        if self.window_values is not None:
            kept = self._windowed(kept)
        return to_delay_doppler(full_dft(kept), self.geom)
