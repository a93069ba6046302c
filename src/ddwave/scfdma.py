"""The modem chain every scheme inherits, and the two modems on it.

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

``FilteredModem(geom, n_blocks, n_sc_rb, filter_len, atten_db)`` serves both
subband-filtered schemes, one UFMC filter bank at two spans: globally filtered
OTFS (``gf_otfs``, one bank over all M*N frequency-Doppler bins) and
per-delay-block UFMC (``dr_ufmc``, one bank over each of the N length-M delay
blocks). No CP is used; the filter ramp is the guard.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from . import channel as chan
from .detect import StructuredMmse, band_factor, residue_order
from .transforms import (DimensionError, FrameGeometry, _check_first_axis, full_dft,
                         zak_demodulate, zak_modulate)
from .ufmc import FilterBankSpec, UfmcOperators, analysis_fold, dolph_chebyshev_window


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
        factors once per noise variance. A BER frame's observations, A tx z for
        the delay-time symbols z = Z d and rx eta for the unit noise eta, are
        formed in ``order`` directly: no channel pass and no Zak round trip.
        """
        if self._gram_ops is None:
            self._gram_ops = self.rx[self.order], self.tx @ self.tx.conj().T, self.tx.conj().T
        rx_in_order, tx_gram, tx_h = self._gram_ops
        a = rx_in_order @ chan.delay_time_matrix(ch, self.rx_len)
        a_h = a.conj().T

        def observe(z, eta):
            return a @ (self.tx @ z), None if eta is None else rx_in_order @ eta[:self.rx_len]
        return StructuredMmse(band_factor(a @ tx_gram @ a_h),
                              lambda y: zak_modulate(y, self.geom)[self.order],
                              lambda v: zak_demodulate(tx_h @ (a_h @ v), self.geom), observe)

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
        self.rx_len = n + cp_len
        w_rx = np.ones(n) if window_db is None else dolph_chebyshev_window(n, window_db)
        w_tx = w_rx if tx_window else np.ones(n)
        j = np.arange(self.rx_len)
        col = (j - cp_len) % n
        self.tx = scipy.sparse.csr_array((w_tx[col], (j, col)), shape=(self.rx_len, n))
        self.rx = scipy.sparse.csr_array((w_rx, (j[:n], j[cp_len:])), shape=(n, self.rx_len))
        self.order = residue_order(n, n)


class FilteredModem(Modem):
    """``n_blocks`` blocks of n_sc / n_blocks bins, each through one predistorted subband bank.

    The bank is ``FilterBankSpec.chebyshev(n_sc / n_blocks, n_sc_rb, filter_len,
    atten_db)``. ``tx`` is ``n_blocks`` copies of its T_u F, n_sc / n_blocks
    apart, whose filter tails overlap-add (:class:`ddwave.ufmc.UfmcOperators`;
    the predistortion keeps the bank's gain ripple off the raw demodulated
    grid), and ``rx`` is :func:`ddwave.ufmc.analysis_fold` of every block at
    its nominal boundaries, so rx_len = n_sc + L - 1, L = filter_len, at any
    ``n_blocks``. Whatever the overlap leaves between blocks is the detector's.

    gf_otfs, one block: as Gamma = F_MN Z, Z = zak_modulate, its T_u Gamma is
    (T_u F_MN) Z, a bank across frequency-Doppler bins that the interleaver
    made adjacent, so it filters along Doppler as well as frequency.
    (T_u F)[t, s] is nonzero only at s = t mod n/n_sc_rb, the fold keeps
    t mod n/n_sc_rb and H shifts by tau_l, so K K^H is a band of at most
    (2 tau_max + 1) n_sc_rb - 1 rows in the residue order p = n/n_sc_rb.

    dr_ufmc, N blocks: the bank filters each delay block, along delay only. In
    the natural order K K^H is a band of at most
    min(n - 1, M + tau_max + P floor((M + L - 2) / P)) rows, P = M / n_sc_rb:
    148 at 64x8 with L 20 and tau_max 4, where it is attained. Column s of
    block b is T_u F_M's, nonzero only at t = s mod P with t <= M + L - 2; H
    delays it by up to tau_max, to bM + t + tau, and the fold keeps each sample
    on its own row or, in the tail of the block before, M rows up. So the rows
    one column reaches lie between (b - 1) M + (s mod P) and
    bM + t_max + tau_max, and two rows of K K^H meet only through a shared column.
    """

    def __init__(self, geom: FrameGeometry, n_blocks: int, n_sc_rb: int = 4,
                 filter_len: int = 1, atten_db: float = 60.0):
        if n_blocks < 1 or geom.n_sc % n_blocks:
            raise DimensionError(f"n_blocks must divide M*N = {geom.n_sc}, got {n_blocks}")
        self.geom = geom
        self.n_blocks = n_blocks
        self.bank = FilterBankSpec.chebyshev(geom.n_sc // n_blocks, n_sc_rb, filter_len, atten_db)
        self.tx = UfmcOperators(self.bank, n_blocks).tx
        self.rx = analysis_fold(self.bank, n_blocks)
        self.rx_len = self.rx.shape[1]
        # at N blocks the natural order: 148 rows at 64x8, against 161 for the residues
        # mod P within each block
        self.order = residue_order(geom.n_sc, self.bank.n_rb if n_blocks == 1 else 1)

    def tx_from_block_spectra(self, f_blocks) -> np.ndarray:
        """tx after each block's inverse DFT: bins (n_blocks, n_sc / n_blocks[, cols]) to frames."""
        f_blocks = np.asarray(f_blocks)
        shape = (self.n_blocks, self.bank.n_sc)
        if f_blocks.shape[:2] != shape:
            raise DimensionError(f"expected leading shape {shape}, got {f_blocks.shape[:2]}")
        s_t = full_dft(f_blocks, inverse=True, axis=1)
        return self.tx @ s_t.reshape((self.geom.n_sc,) + f_blocks.shape[2:])
