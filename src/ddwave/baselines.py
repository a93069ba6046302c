"""Per-delay-block filtering baseline (``dr_ufmc``).

``DrUfmcModem(geom, n_sc_rb, filter_len, atten_db)`` runs a small subband
filter bank over each length-M delay block and overlap-adds the filter
tails, so filtering acts along the delay dimension only. Its bank is
``FilterBankSpec.chebyshev(M, n_sc_rb, filter_len, atten_db)``, the
constructor gf_otfs uses on the full M*N bins. It runs the shared chain of
:class:`ddwave.scfdma.Modem` on the Zak route: its ``tx`` and ``rx`` are two
sparse block-time operators, built once, and its detector factors the banded
Gram of the block-banded ``rx H tx``, with no probe. The
receiver-windowed baseline (``rw_otfs``) is :class:`ddwave.scfdma.CpOtfsModem`
with a window.
"""

from __future__ import annotations

import numpy as np

from . import channel as chan
from .detect import StructuredMmse, banded_factor
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

    def tx_from_block_spectra(self, f_blocks: np.ndarray) -> np.ndarray:
        """Overlap-add synthesis from per-block frequency content (N, M[, cols])."""
        f_blocks = np.asarray(f_blocks)
        if f_blocks.shape[:2] != (self.geom.N, self.geom.M):
            raise DimensionError(
                f"expected leading shape {(self.geom.N, self.geom.M)}, got {f_blocks.shape[:2]}")
        return self.tx @ blockwise_dft(f_blocks.reshape((self.geom.n_sc,) + f_blocks.shape[2:]),
                                       self.geom, inverse=True)

    def detector(self, ch: chan.LtvChannelRealization) -> StructuredMmse:
        """Structured MMSE on the block-time map T = rx H tx, with a banded Cholesky of G = T^H T.

        The effective channel is zak_demodulate T zak_modulate. Transmit block
        j reaches receive blocks j - above to j + below (the filter tail, and
        the channel memory downwards), so G has c*M - 1 subdiagonals.
        """
        m, n_blk, n = self.geom.M, self.geom.N, self.geom.n_sc
        above = (m + self.bank.filter_len - 2) // m
        below = (m + self.bank.filter_len - 2 + int(ch.tap_delays[-1])) // m
        c = min(above + below + 1, n_blk)
        t_sparse = self._rx_h(ch) @ self.tx
        t, g = t_sparse.toarray(), np.zeros((n, n), dtype=complex)
        for j in range(n_blk):  # strip j of G takes block columns j to j + c - 1 of T
            rows = slice(max(0, j - above) * m, (j + below + 1) * m)
            cols = slice(j * m, (j + 1) * m)
            g[j * m:(j + c) * m, cols] = t[rows, j * m:(j + c) * m].conj().T @ t[rows, cols]
        i, q = np.arange(c * m)[:, None], np.arange(n)
        band = np.where(q + i < n, g[(q + i) % n, q], 0)  # band[i, q] = G[q + i, q]
        return self._mmse(t_sparse.conj().T, banded_factor(band, np.arange(n)))
