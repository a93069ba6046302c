"""SC-FDMA implementation of the delay-Doppler modem, with CP and optional window.

Two equivalent modulation paths exist: the direct Zak path
s_t = (F_N^H kron I_M) d (per-delay inverse DFT across Doppler), and the
SC-FDMA path s_t = F_MN^H Gamma d, which routes through the
frequency-Doppler domain where the filtered modems hook in. Their equality
is the factorization identity checked in the test suite. The
effective-channel probe that every modem shares, the dense oracle of the
detectors, lives here as well.

``CpOtfsModem(geom, cp_len, window_db=None, tx_window=False)`` serves both
CP schemes: plain OTFS (``otfs``, no window) and receiver-windowed OTFS
(``rw_otfs``), which multiplies the kept delay-time samples by a global
Dolph-Chebyshev window with ``window_db`` dB sidelobe attenuation to tame
Doppler-induced leakage, and with ``tx_window`` also the transmitted ones
for sidelobe studies. Its ``detector`` factors the banded Gram of a sparse
time-domain channel built straight from the taps, with no probe.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from . import channel as chan
from .detect import StructuredMmse, cyclic_band_factor
from .transforms import (
    DimensionError,
    FrameGeometry,
    _check_first_axis,
    add_cp,
    full_dft,
    remove_cp,
    to_delay_doppler,
    to_frequency_doppler,
)
from .ufmc import dolph_chebyshev_window


def zak_modulate(d, geom: FrameGeometry) -> np.ndarray:
    """Delay-Doppler to delay-time: inverse DFT over the Doppler axis per delay bin."""
    d = _check_first_axis(d, geom.n_sc, "zak_modulate")
    v = d.reshape((geom.N, geom.M) + d.shape[1:])
    return (np.fft.ifft(v, axis=0) * np.sqrt(geom.N)).reshape(d.shape)


def zak_demodulate(s_t, geom: FrameGeometry) -> np.ndarray:
    """Inverse of :func:`zak_modulate`: forward DFT over the Doppler axis."""
    s_t = _check_first_axis(s_t, geom.n_sc, "zak_demodulate")
    v = s_t.reshape((geom.N, geom.M) + s_t.shape[1:])
    return (np.fft.fft(v, axis=0) / np.sqrt(geom.N)).reshape(s_t.shape)


class ProbedModem:
    """Effective-channel probe shared by every modem.

    A subclass provides ``geom``, ``rx_len``, ``modulate`` and ``demodulate``,
    all linear and columnwise on matrices, and ``detector(ch)``, a structured
    MMSE with ``solve(y, noise_var)``. The probe pushes the identity basis
    through the chain; the transmitted basis does not depend on the channel,
    so it is built on the first probe and kept. The dense probe and
    :class:`ddwave.detect.MmseEqualizer` are the oracle of every detector.
    """

    _basis: np.ndarray | None = None

    def effective_channel(self, ch: chan.LtvChannelRealization) -> np.ndarray:
        """End-to-end delay-Doppler map; column q is the response to symbol q."""
        if self._basis is None:
            self._basis = self.modulate(np.eye(self.geom.n_sc, dtype=complex))
        return self.demodulate(chan.apply_channel(self._basis, ch, out_len=self.rx_len))


class CpOtfsModem(ProbedModem):
    """CP-OTFS transceiver over the SC-FDMA route, optionally windowed.

    With ``window_db`` set, a length-M*N Dolph-Chebyshev window of that
    sidelobe attenuation in dB, peak normalized to 1, multiplies the
    delay-time samples after CP removal, and with ``tx_window`` also before
    the CP is added.
    """

    def __init__(self, geom: FrameGeometry, cp_len: int = 0,
                 window_db: float | None = None, tx_window: bool = False):
        if cp_len < 0:
            raise DimensionError(f"cp_len must be nonnegative, got {cp_len}")
        if tx_window and window_db is None:
            raise ValueError("tx_window requires window_db")
        self.geom = geom
        self.cp_len = cp_len
        self.window_values = None
        if window_db is not None:
            self.window_values = dolph_chebyshev_window(geom.n_sc, window_db)
        self.tx_window = tx_window
        self.rx_len = geom.n_sc + cp_len

    def _windowed(self, s_t: np.ndarray) -> np.ndarray:
        return s_t * self.window_values.reshape((-1,) + (1,) * (s_t.ndim - 1))

    def _to_time(self, d) -> np.ndarray:
        return full_dft(to_frequency_doppler(d, self.geom), inverse=True)

    def _from_time(self, s_t) -> np.ndarray:
        return to_delay_doppler(full_dft(s_t), self.geom)

    def modulate(self, d) -> np.ndarray:
        """Frequency-Doppler route F_MN^H Gamma d, the TX window if on, then the CP."""
        s_t = self._to_time(d)
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
        return self._from_time(kept)

    def detector(self, ch: chan.LtvChannelRealization) -> StructuredMmse:
        """Structured MMSE on K = W_rx B_cp H A_cp W_tx, one banded Cholesky per noise variance.

        The effective channel is Gamma^H F K F^H Gamma. K is rows cp: of the
        sparse delay-time matrix H times the CP insertion A_cp, then the
        windows, with no probe: its entries lie at (k, (k - tau_l) mod n), so
        K^H K is a cyclic band of half-width tau_max.
        """
        n, cp, w = self.geom.n_sc, self.cp_len, self.window_values
        j = np.arange(n + cp)
        a_cp = scipy.sparse.csr_array((np.ones(n + cp), (j, (j - cp) % n)), shape=(n + cp, n))
        k_mat = chan.delay_time_matrix(ch, n + cp)[cp:] @ a_cp
        if w is not None:
            k_mat = scipy.sparse.diags_array(w) @ k_mat
            if self.tx_window:
                k_mat = k_mat @ scipy.sparse.diags_array(w)
        k_h = k_mat.conj().T
        return StructuredMmse(k_h, cyclic_band_factor(k_h @ k_mat),
                              self._to_time, self._from_time)
