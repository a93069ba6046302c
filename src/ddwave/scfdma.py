"""SC-FDMA implementation of the delay-Doppler modem, with CP handling.

Two equivalent modulation paths exist: the direct Zak path
s_t = (F_N^H kron I_M) d (per-delay inverse DFT across Doppler), and the
SC-FDMA path s_t = F_MN^H Gamma d, which routes through the
frequency-Doppler domain where the filtered modems hook in. Their equality
is the factorization identity checked in the test suite. The
effective-channel probe that every modem shares lives here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel as chan
from .detect import qam_map
from .transforms import (
    DimensionError,
    FrameGeometry,
    add_cp,
    full_dft,
    remove_cp,
    to_delay_doppler,
    to_frequency_doppler,
)


@dataclass(frozen=True)
class DelayDopplerFrame:
    """One frame payload: bits, their QAM symbols d (length M*N), and the geometry.

    d is ordered Doppler-block-major: d[n*M + m] sits at delay m, Doppler n.
    """

    geom: FrameGeometry
    d: np.ndarray
    bits: np.ndarray
    qam_order: int

    @property
    def grid(self) -> np.ndarray:
        """M x N view with grid[m, n] = d[n*M + m]."""
        return self.d.reshape(self.geom.N, self.geom.M).T


def frame_from_bits(geom: FrameGeometry, bits: np.ndarray, qam_order: int) -> DelayDopplerFrame:
    bits = np.asarray(bits, dtype=np.int64)
    k = int(np.log2(qam_order))
    if bits.size != geom.n_sc * k:
        raise DimensionError(f"expected {geom.n_sc * k} bits, got {bits.size}")
    return DelayDopplerFrame(geom=geom, d=qam_map(bits, qam_order), bits=bits,
                             qam_order=qam_order)


def random_frame(geom: FrameGeometry, qam_order: int, rng) -> DelayDopplerFrame:
    bits = rng.integers(0, 2, size=geom.n_sc * int(np.log2(qam_order)))
    return frame_from_bits(geom, bits, qam_order)


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


class OtfsModem(ProbedModem):
    """Plain CP-OTFS transceiver over the SC-FDMA route."""

    name = "otfs"

    def __init__(self, geom: FrameGeometry):
        self.geom = geom
        self.tx_len = geom.n_sc + geom.cp_len
        self.rx_len = self.tx_len

    def modulate(self, d) -> np.ndarray:
        """Frequency-Doppler route F_MN^H Gamma d, then the CP."""
        return add_cp(full_dft(to_frequency_doppler(d, self.geom), inverse=True),
                      self.geom.cp_len)

    def demodulate(self, r) -> np.ndarray:
        """CP removal, full DFT, then the inverse frequency-Doppler route.

        Samples beyond rx_len (the channel tail) are dropped; shorter input
        is rejected. Works columnwise on matrices.
        """
        kept = remove_cp(np.asarray(r)[:self.rx_len], self.geom.cp_len, self.geom.n_sc)
        return to_delay_doppler(full_dft(kept), self.geom)
