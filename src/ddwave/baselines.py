"""Per-delay-block filtering baseline (``dr_ufmc``).

``DrUfmcModem(geom, n_sc_rb, filter_len, atten_db)`` runs a small subband
filter bank over each length-M delay block and overlap-adds the filter
tails, so filtering acts along the delay dimension only. Its bank is
``FilterBankSpec.chebyshev(M, n_sc_rb, filter_len, atten_db)``, the
constructor gf_otfs uses on the full M*N bins. It runs the shared chain of
:class:`ddwave.scfdma.Modem` on the Zak route: its ``tx`` and ``rx`` are two
sparse block-time operators, built once, and its K K^H, K = ``rx H tx``, is
a band in the natural order, which the shared detector factors. The
receiver-windowed baseline (``rw_otfs``) is :class:`ddwave.scfdma.CpOtfsModem`
with a window.
"""

from __future__ import annotations

import numpy as np

from .detect import residue_order
from .scfdma import Modem
from .transforms import DimensionError, FrameGeometry, blockwise_dft
from .ufmc import FilterBankSpec, UfmcOperators, analysis_fold


class DrUfmcModem(Modem):
    """Per-delay-block subband filtering with overlap-add between blocks.

    Each of the N delay blocks of the Zak-domain signal is treated as one
    multicarrier symbol over M bins: forward DFT, normalized and
    predistorted subband synthesis (length M + filter_len - 1), then the
    filter tails of consecutive blocks overlap. The receiver analyzes each
    block at its nominal boundaries, which leaves the inter-block
    interference in the effective channel for the detector to handle.
    Both are sparse block-time operators over the N blocks, M samples apart:
    ``tx`` is N copies of the bank's T_u F_M (:class:`ddwave.ufmc.UfmcOperators`),
    and ``rx`` is :func:`ddwave.ufmc.analysis_fold` of the N blocks, whose
    block DFT cancels the Zak route's inverse one.

    In the natural order K K^H is a band of at most
    min(n - 1, M + tau_max + P floor((M + L - 2) / P)) rows, P = M / n_sc_rb,
    L = filter_len: 148 at 64x8 with L 20 and tau_max 4, where it is attained.
    Column s of block b is T_u F_M's, nonzero only at t = s mod P with
    t <= M + L - 2; H delays it by up to tau_max, to bM + t + tau, and the
    fold keeps each sample on its own row or, in the tail of the block
    before, M rows up. So the rows one column reaches lie between
    (b - 1) M + (s mod P) and bM + t_max + tau_max, and two rows of K K^H
    meet only through a shared column.
    """

    def __init__(self, geom: FrameGeometry, n_sc_rb: int = 4, filter_len: int = 20,
                 atten_db: float = 60.0):
        self.geom = geom
        self.bank = FilterBankSpec.chebyshev(geom.M, n_sc_rb, filter_len, atten_db)
        self.rx_len = geom.n_sc + filter_len - 1
        # the predistorted block modulator T_u F_M (the bank's gain ripple would put
        # delay-domain ghosts on the raw demodulated grid), once per block
        self.tx = UfmcOperators(self.bank, geom.N).tx
        self.rx = analysis_fold(self.bank, geom.N)
        self.order = residue_order(geom.n_sc, 1)

    def tx_from_block_spectra(self, f_blocks: np.ndarray) -> np.ndarray:
        """Overlap-add synthesis from per-block frequency content (N, M[, cols])."""
        f_blocks = np.asarray(f_blocks)
        if f_blocks.shape[:2] != (self.geom.N, self.geom.M):
            raise DimensionError(
                f"expected leading shape {(self.geom.N, self.geom.M)}, got {f_blocks.shape[:2]}")
        return self.tx @ blockwise_dft(f_blocks.reshape((self.geom.n_sc,) + f_blocks.shape[2:]),
                                       self.geom, inverse=True)
