"""Per-delay-block filtering baseline (``dr_ufmc``).

``DrUfmcModem(geom, n_sc_rb, filter_len, atten_db)`` runs a small subband
filter bank over each length-M delay block and overlap-adds the filter
tails, so filtering acts along the delay dimension only. Its bank is
``FilterBankSpec.chebyshev(M, n_sc_rb, filter_len, atten_db)``, the
constructor gf_otfs uses on the full M*N bins. Its detector solves in the
block-time domain, where the map is block-banded. The receiver-windowed
baseline (``rw_otfs``) is :class:`ddwave.scfdma.CpOtfsModem` with a window.
"""

from __future__ import annotations

import numpy as np

from . import channel as chan
from .detect import StructuredMmse, banded_factor
from .scfdma import ProbedModem
from .transforms import (DimensionError, FrameGeometry, _check_first_axis, blockwise_dft,
                         zak_demodulate, zak_modulate)
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
        self._coloured = {}

    def tx_from_block_spectra(self, f_blocks: np.ndarray) -> np.ndarray:
        """Overlap-add synthesis from per-block frequency content (N, M[, cols])."""
        f_blocks = np.asarray(f_blocks)
        if f_blocks.shape[:2] != (self.geom.N, self.geom.M):
            raise DimensionError(
                f"expected leading shape {(self.geom.N, self.geom.M)}, got {f_blocks.shape[:2]}")
        m, block_len = self.geom.M, self.bank.out_len
        filtered = self.block_mod @ f_blocks.reshape(self.geom.N, m, -1)
        out = np.zeros((self.rx_len, filtered.shape[2]), dtype=complex)
        for n in range(self.geom.N):
            out[n * m:n * m + block_len] += filtered[n]
        return out.reshape((self.rx_len,) + f_blocks.shape[2:])

    def modulate(self, d) -> np.ndarray:
        d = np.asarray(d)
        f_blocks = blockwise_dft(zak_modulate(d, self.geom), self.geom)
        return self.tx_from_block_spectra(
            f_blocks.reshape((self.geom.N, self.geom.M) + d.shape[1:]))

    def demodulate(self, r) -> np.ndarray:
        """Subband analysis of each block at its nominal boundaries, then the Zak inverse.

        Samples beyond rx_len are dropped; shorter input is rejected.
        """
        r = _check_first_axis(np.asarray(r)[:self.rx_len], self.rx_len, "demodulate")
        m, n_blocks = self.geom.M, self.geom.N
        blocks = np.stack([r[n * m:n * m + self.bank.out_len] for n in range(n_blocks)], axis=1)
        f_blocks = ufmc_analyze(blocks, self.bank).swapaxes(0, 1)
        s_t = blockwise_dft(f_blocks.reshape((self.geom.n_sc,) + r.shape[1:]), self.geom,
                            inverse=True)
        return zak_demodulate(s_t, self.geom)

    def detector(self, ch: chan.LtvChannelRealization) -> StructuredMmse:
        """Structured MMSE on the block-time map T, with a banded Cholesky of G = T^H T.

        The effective channel is zak_demodulate T zak_modulate. Transmit block
        j reaches receive blocks j - above to j + below (the filter tail, and
        the channel memory downwards), so blocks c = above + below + 1 apart
        share none: c*M coloured probe columns recover T (Curtis, Powell & Reid
        1974), and G has c*M - 1 subdiagonals. The modulated colours are kept.
        """
        m, n_blk, n = self.geom.M, self.geom.N, self.geom.n_sc
        above = (m + self.bank.filter_len - 2) // m
        below = (m + self.bank.filter_len - 2 + int(ch.tap_delays[-1])) // m
        c = min(above + below + 1, n_blk)
        if c not in self._coloured:
            colours = np.tile(np.eye(c * m, dtype=complex), (-(-n_blk // c), 1))[:n]
            self._coloured[c] = self.modulate(zak_demodulate(colours, self.geom))
        resp = zak_modulate(self.demodulate(
            chan.apply_channel(self._coloured[c], ch, out_len=self.rx_len)), self.geom)
        # T and G padded with c*M zero columns and rows, so every strip and band has full size
        t, g = np.zeros((n, n + c * m), dtype=complex), np.zeros((n + c * m, n), dtype=complex)
        for j in reversed(range(n_blk)):  # strip j of G needs block columns j to j + c - 1 of T
            rows = slice(max(0, j - above) * m, (j + below + 1) * m)
            cols = slice(j * m, (j + 1) * m)
            t[rows, cols] = resp[rows, j % c * m:(j % c + 1) * m]
            g[j * m:(j + c) * m, cols] = t[rows, j * m:(j + c) * m].conj().T @ t[rows, cols]
        band = g[np.arange(c * m)[:, None] + np.arange(n), np.arange(n)]  # band[i, q] = G[q + i, q]
        return StructuredMmse(t[:, :n].conj().T, banded_factor(band, np.arange(n)),
                              lambda y: zak_modulate(y, self.geom),
                              lambda x: zak_demodulate(x, self.geom))
