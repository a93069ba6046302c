"""Globally filtered delay-Doppler transceiver.

Replaces the OFDM modem of the SC-FDMA route with the subband filter bank:
the interleaver has already made frequency-Doppler bins adjacent, so subband
filtering acts across the Doppler dimension as well as the frequency one. No
CP is used; the filter ramp is the inter-frame guard.

``GfOtfsModem(geom, n_sc_rb, filter_len, atten_db)`` builds its bank with
``FilterBankSpec.chebyshev`` over all M*N frequency-Doppler bins. Its chain
T_u Gamma is (T_u F_MN) zak_modulate, since Gamma = F_MN zak_modulate, so it
runs the shared chain of :class:`ddwave.scfdma.Modem` on the Zak maps like
every other scheme, between two sparse operators: ``tx`` = T_u F_MN, the
bank's predistorted synthesis built in closed form, and ``rx``, its tail
fold. Because the filter keeps inter-Doppler interference within a few
neighbouring bins, the channel in the frequency-Doppler domain is nearly
banded, cyclically, and its ``detector`` runs conjugate gradients on the
sparse time-domain channel, preconditioned by that band.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import channel as chan
from .detect import StructuredMmse, cyclic_band_factor
from .scfdma import Modem
from .transforms import FrameGeometry, full_dft
from .ufmc import FilterBankSpec, UfmcOperators, analysis_fold

# Half-width of the cyclic frequency-Doppler band the CG preconditioner keeps.
# At 64x8, TDL-C with Jakes Doppler, 8 frames and 0-40 dB: 12 (32 probe
# colours) needs 3-6 iterations and about 28 ms of detection a frame at 3 SNR
# points; 8 needs 4-11 (31 ms) and 16, with 64 colours, 3-5 (32 ms).
BAND_HALF_WIDTH = 12
# CG stops at this residual relative to the right-hand side. Over 40 such frames
# the largest deviation from the dense MMSE was 4.4e-11 at 1e-13 and 6.9e-12 at
# 1e-14, against a bound of 1e-10.
CG_RTOL = 1e-14


class GfOtfsModem(Modem):
    """Subband-filtered transceiver with predistortion.

    Its effective channel is Gamma^H F rx H T_u Gamma, where F rx = R_u. As
    Gamma = F Z with Z = zak_modulate, that is Z^H K Z with K = rx H tx and
    ``tx`` = T_u F, the bank's sparse modulator: the chain's maps are the Zak maps.
    """

    def __init__(self, geom: FrameGeometry, n_sc_rb: int = 4, filter_len: int = 1,
                 atten_db: float = 60.0):
        self.geom = geom
        self.bank = FilterBankSpec.chebyshev(geom.n_sc, n_sc_rb, filter_len, atten_db)
        self.tx = UfmcOperators(self.bank).tx
        self.rx_len = self.bank.out_len
        self.rx = analysis_fold(self.bank)
        n = geom.n_sc
        # colour q sums the columns q, q + c, ... of T_u: c is the least divisor of n
        # that keeps same-colour columns 2b + 1 apart cyclically (n if none)
        self.n_colours = next(c for c in range(min(2 * BAND_HALF_WIDTH + 1, n), n + 1)
                              if n % c == 0)
        colours = np.arange(n)[:, None] % self.n_colours == np.arange(self.n_colours)
        self._coloured = self.tx @ full_dft(colours.astype(complex), inverse=True)

    def detector(self, ch: chan.LtvChannelRealization) -> StructuredMmse:
        """Structured MMSE on the sparse K = rx H tx by preconditioned conjugate gradients.

        The effective channel is Z^H K Z. Its frequency-Doppler form A = F K F^H
        = F rx H T_u is nearly a cyclic band; the preconditioner is the band
        |i - j| <= b of A, recovered from ``n_colours`` coloured probe columns
        (Curtis, Powell & Reid 1974). Its Gram, a cyclic band of 2b, is factored
        by :func:`ddwave.detect.cyclic_band_factor` and applied between F and F^H,
        a unitary change of variables that leaves the Krylov iterates as they
        would be on A. CG gives up after n iterations, its bound in exact arithmetic.
        """
        n, c = self.geom.n_sc, self.n_colours
        rx_h = self._rx_h(ch)
        k_mat = rx_h @ self.tx
        k_h = k_mat.conj().T
        resp = full_dft(rx_h @ self._coloured)
        # with one colour a column (c == n) the probe is the whole of A: keep it all
        offs = np.arange(-BAND_HALF_WIDTH, BAND_HALF_WIDTH + 1) % n if c < n else np.arange(n)
        cols = np.broadcast_to(np.arange(n), (offs.size, n))
        rows = (cols + offs[:, None]) % n
        a_band = scipy.sparse.csc_array((resp[rows, cols % c].ravel(),
                                         (rows.ravel(), cols.ravel())), shape=(n, n))
        band_factor = cyclic_band_factor(a_band.conj().T @ a_band)

        def factor(var):
            band_solve = band_factor(var)
            precond = _operator(n, lambda v: full_dft(band_solve(full_dft(v)), inverse=True))
            gram = _operator(n, lambda v: k_h @ (k_mat @ v) + var * v)

            def solve(rhs):
                # Hestenes & Stiefel 1952, from the preconditioner's solution
                x, info = scipy.sparse.linalg.cg(gram, rhs, precond @ rhs, rtol=CG_RTOL,
                                                 maxiter=n, M=precond)
                if info and np.all(np.isfinite(x)):  # a non-finite x is the caller's to report
                    raise np.linalg.LinAlgError(
                        f"conjugate gradients did not reach relative residual {CG_RTOL:.0e} "
                        f"in {n} iterations")
                return x
            return solve
        return self._mmse(k_h, factor)


def _operator(n: int, matvec) -> scipy.sparse.linalg.LinearOperator:
    return scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=complex)
