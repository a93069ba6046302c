"""The modem chain every scheme inherits, and the CP-OTFS modem on it.

:class:`Modem` writes the chain once: ``modulate`` is ``tx`` after
:func:`zak_modulate` and ``demodulate`` is :func:`zak_demodulate` after ``rx``,
so every scheme is two sparse operators, built once, around the Zak maps
(the SC-FDMA route F_MN^H Gamma of a modem that filters nothing; gf_otfs's
T_u Gamma is (T_u F_MN) zak_modulate). The one detector, a banded Cholesky
of K K^H = (rx H) (tx tx^H) (rx H)^H in the scheme's residue order, and the
effective-channel probe, its dense oracle, live there too.

``CpOtfsModem(geom, cp_len, window_db=None, tx_window=False)`` serves both
CP schemes: plain OTFS (``otfs``, no window) and receiver-windowed OTFS
(``rw_otfs``), which multiplies the kept delay-time samples by a global
Dolph-Chebyshev window with ``window_db`` dB sidelobe attenuation to tame
Doppler-induced leakage, and with ``tx_window`` also the transmitted ones
for sidelobe studies. Its prefix and windows are its ``tx`` and ``rx``. K
has its entries at (k, (k - tau_l) mod n), so K K^H is a cyclic band of
half-width tau_max, a band of 2 tau_max in the reflected order (p = n).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from . import channel as chan
from .detect import StructuredMmse, band_factor, residue_order
from .transforms import (DimensionError, FrameGeometry, _check_first_axis, zak_demodulate,
                         zak_modulate)
from .ufmc import dolph_chebyshev_window


class Modem:
    """The modem chain: ``modulate(d) = tx Z d``, ``demodulate(r) = Z^H rx r[:rx_len]``.

    Z is :func:`zak_modulate`. A subclass sets ``geom``, ``rx_len``, ``tx``
    (rx_len x M*N), ``rx`` (M*N x rx_len) and ``order``, the
    :func:`ddwave.detect.residue_order` in which its K K^H is a band, K = rx H tx;
    ``detector(ch)`` is written here once. Everything is linear and columnwise on
    matrices. The probe pushes the identity basis through the chain; the
    transmitted basis does not depend on the channel, so it is built on the
    first probe and kept. The dense probe and
    :class:`ddwave.detect.MmseEqualizer` are the oracle of every detector.
    """

    _basis: np.ndarray | None = None
    _gram_ops: tuple | None = None  # rx in ``order``, tx tx^H and tx^H, for the detector

    def modulate(self, d) -> np.ndarray:
        """tx Z d: the Zak map to delay-time, then the scheme's transmit operator."""
        return self.tx @ zak_modulate(d, self.geom)

    def demodulate(self, r) -> np.ndarray:
        """Z^H rx r: the receive operator, then the Zak map back to delay-Doppler.

        Samples beyond rx_len (the channel tail) are dropped; shorter input
        is rejected. Works columnwise on matrices.
        """
        r = _check_first_axis(np.asarray(r)[:self.rx_len], self.rx_len, "demodulate")
        return zak_demodulate(self.rx @ r, self.geom)

    def detector(self, ch: chan.LtvChannelRealization) -> StructuredMmse:
        """Structured MMSE of Z^H K Z, K = rx H tx, in the dual form Z^H K^H (K K^H + var I)^-1 Z y.

        By the push-through identity that is the primal (K^H K + var I)^-1 K^H.
        H is the sparse delay-time matrix, with no probe. K K^H is formed as
        A P A^H, with A = rx H, its rows in ``order``, and P = tx tx^H, built
        once per modem; K itself is never formed, and K^H applies as tx^H A^H.
        K K^H is a band in ``order``, which :func:`ddwave.detect.band_factor`
        factors once per noise variance.
        """
        if self._gram_ops is None:
            self._gram_ops = self.rx[self.order], self.tx @ self.tx.conj().T, self.tx.conj().T
        rx_in_order, tx_gram, tx_h = self._gram_ops
        a = rx_in_order @ chan.delay_time_matrix(ch, self.rx_len)
        a_h = a.conj().T
        band_solver = band_factor(a @ tx_gram @ a_h)

        def factor(var):
            solve = band_solver(var)
            return lambda v: tx_h @ (a_h @ solve(v[self.order]))
        return StructuredMmse(factor, lambda y: zak_modulate(y, self.geom),
                              lambda x: zak_demodulate(x, self.geom))

    def effective_channel(self, ch: chan.LtvChannelRealization) -> np.ndarray:
        """End-to-end delay-Doppler map; column q is the response to symbol q."""
        if self._basis is None:
            self._basis = self.modulate(np.eye(self.geom.n_sc, dtype=complex))
        return self.demodulate(chan.apply_channel(self._basis, ch, out_len=self.rx_len))


class CpOtfsModem(Modem):
    """CP-OTFS transceiver over the Zak route, optionally windowed.

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
        self.order = residue_order(n, n)
