"""SC-FDMA implementation of the delay-Doppler modem, with CP and optional window.

The modem takes the SC-FDMA path s_t = F_MN^H Gamma d through the
frequency-Doppler domain, where the filtered modems hook in; the direct Zak
path it equals lives with the other maps in :mod:`ddwave.transforms`. The
effective-channel probe that every modem shares, the dense oracle of the
detectors, lives here as well.

``CpOtfsModem(geom, cp_len, window_db=None, tx_window=False)`` serves both
CP schemes: plain OTFS (``otfs``, no window) and receiver-windowed OTFS
(``rw_otfs``), which multiplies the kept delay-time samples by a global
Dolph-Chebyshev window with ``window_db`` dB sidelobe attenuation to tame
Doppler-induced leakage, and with ``tx_window`` also the transmitted ones
for sidelobe studies. Its prefix and windows are two sparse operators that
``modulate``, ``demodulate`` and ``detector`` all multiply; the detector
factors the banded Gram of ``rx H tx``, with no probe.
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
    full_dft,
    to_delay_doppler,
    to_frequency_doppler,
)
from .ufmc import dolph_chebyshev_window


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
    the CP is added. The prefix and the windows are two sparse operators,
    built once: ``tx = A_cp W_tx``, (n+cp) x n, and ``rx = W_rx B_cp``,
    n x (n+cp), with W = I where there is no window.
    """

    def __init__(self, geom: FrameGeometry, cp_len: int = 0,
                 window_db: float | None = None, tx_window: bool = False):
        n = geom.n_sc
        if not 0 <= cp_len <= n:
            raise DimensionError(f"cp_len must be in [0, {n}] (M*N), got {cp_len}")
        if tx_window and window_db is None:
            raise ValueError("tx_window requires window_db")
        self.geom = geom
        self.cp_len = cp_len
        self.window_values = None
        if window_db is not None:
            self.window_values = dolph_chebyshev_window(n, window_db)
        self.rx_len = n + cp_len
        ones = np.ones(n)
        w_rx = ones if window_db is None else self.window_values
        w_tx = self.window_values if tx_window else ones
        j = np.arange(self.rx_len)
        col = (j - cp_len) % n
        self.tx = scipy.sparse.csr_array((w_tx[col], (j, col)), shape=(self.rx_len, n))
        self.rx = scipy.sparse.csr_array((w_rx, (j[:n], j[cp_len:])), shape=(n, self.rx_len))

    def _to_time(self, d) -> np.ndarray:
        return full_dft(to_frequency_doppler(d, self.geom), inverse=True)

    def _from_time(self, s_t) -> np.ndarray:
        return to_delay_doppler(full_dft(s_t), self.geom)

    def modulate(self, d) -> np.ndarray:
        """tx F_MN^H Gamma d: the frequency-Doppler route, then the TX window if on and the CP."""
        return self.tx @ self._to_time(d)

    def demodulate(self, r) -> np.ndarray:
        """Gamma^H F_MN rx r: CP removal and the RX window if any, then the inverse route.

        Samples beyond rx_len (the channel tail) are dropped; shorter input
        is rejected. Works columnwise on matrices.
        """
        r = _check_first_axis(np.asarray(r)[:self.rx_len], self.rx_len, "demodulate")
        return self._from_time(self.rx @ r)

    def detector(self, ch: chan.LtvChannelRealization) -> StructuredMmse:
        """Structured MMSE on K = W_rx B_cp H A_cp W_tx, one banded Cholesky per noise variance.

        The effective channel is Gamma^H F K F^H Gamma. K is the modem's two
        operators around the sparse delay-time matrix H, with no probe: its
        entries lie at (k, (k - tau_l) mod n), so K^H K is a cyclic band of
        half-width tau_max.
        """
        k_mat = self.rx @ chan.delay_time_matrix(ch, self.rx_len) @ self.tx
        k_h = k_mat.conj().T
        return StructuredMmse(k_h, cyclic_band_factor(k_h @ k_mat),
                              self._to_time, self._from_time)
