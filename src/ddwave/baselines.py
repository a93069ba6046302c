"""Per-delay-block filtering baseline (``dr_ufmc``).

``DrUfmcModem(geom, n_sc_rb, filter_len, atten_db)`` runs a small subband
filter bank over each length-M delay block and overlap-adds the filter
tails, so filtering acts along the delay dimension only. Its bank is
``FilterBankSpec.chebyshev(M, n_sc_rb, filter_len, atten_db)``, the
constructor gf_otfs uses on the full M*N bins. The receiver-windowed
baseline (``rw_otfs``) is :class:`ddwave.scfdma.CpOtfsModem` with a window.
"""

from __future__ import annotations

import numpy as np

from .scfdma import ProbedModem, zak_demodulate, zak_modulate
from .transforms import DimensionError, FrameGeometry, blockwise_dft
from .ufmc import FilterBankSpec, UfmcOperators, ufmc_analyze


class DrUfmcModem(ProbedModem):
    """Per-delay-block subband filtering with overlap-add between blocks.

    Each of the N delay blocks of the Zak-domain signal is treated as one
    multicarrier symbol over M bins: forward DFT, normalized and
    predistorted subband synthesis (length M + filter_len - 1), then the
    filter tails of consecutive blocks overlap. The receiver analyzes each
    block at its nominal boundaries, which leaves the inter-block
    interference in the effective channel for the detector to handle.
    """

    def __init__(self, geom: FrameGeometry, n_sc_rb: int = 4, filter_len: int = 20,
                 atten_db: float = 60.0):
        self.geom = geom
        self.bank = FilterBankSpec.chebyshev(geom.M, n_sc_rb, filter_len, atten_db)
        # Predistorted per-block modulator; without it the per-bin gain
        # ripple of the bank (periodic across subbands) puts delay-domain
        # ghosts on the raw demodulated grid.
        self.block_mod = UfmcOperators(self.bank).tu
        self.rx_len = geom.n_sc + filter_len - 1

    def tx_from_block_spectra(self, f_blocks: np.ndarray) -> np.ndarray:
        """Overlap-add synthesis from per-block frequency content (N, M[, cols])."""
        f_blocks = np.asarray(f_blocks)
        if f_blocks.shape[:2] != (self.geom.N, self.geom.M):
            raise DimensionError(
                f"expected leading shape {(self.geom.N, self.geom.M)}, got {f_blocks.shape[:2]}")
        filtered = np.einsum("lm,nm...->nl...", self.block_mod, f_blocks)
        out = np.zeros((self.rx_len,) + f_blocks.shape[2:], dtype=complex)
        m, block_len = self.geom.M, self.bank.out_len
        for n in range(self.geom.N):
            out[n * m:n * m + block_len] += filtered[n]
        return out

    def modulate(self, d) -> np.ndarray:
        d = np.asarray(d)
        f_blocks = blockwise_dft(zak_modulate(d, self.geom), self.geom)
        return self.tx_from_block_spectra(
            f_blocks.reshape((self.geom.N, self.geom.M) + d.shape[1:]))

    def demodulate(self, r) -> np.ndarray:
        """Subband analysis of each block at its nominal boundaries, then the Zak inverse."""
        r = np.asarray(r)
        m, n_blocks = self.geom.M, self.geom.N
        blocks = np.stack([r[n * m:n * m + self.bank.out_len] for n in range(n_blocks)], axis=1)
        f_blocks = ufmc_analyze(blocks, self.bank).swapaxes(0, 1)
        s_t = blockwise_dft(f_blocks.reshape((self.geom.n_sc,) + r.shape[1:]), self.geom,
                            inverse=True)
        return zak_demodulate(s_t, self.geom)
