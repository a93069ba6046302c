"""Globally filtered delay-Doppler transceiver.

Replaces the OFDM modem of the SC-FDMA route with the subband filter bank:
the interleaver has already made frequency-Doppler bins adjacent, so subband
filtering acts across the Doppler dimension as well as the frequency one. No
CP is used; the filter ramp is the inter-frame guard.

``GfOtfsModem(geom, n_sc_rb, filter_len, atten_db)`` builds its bank with
``FilterBankSpec.chebyshev`` over all M*N frequency-Doppler bins. Because the
filter keeps inter-Doppler interference within a few neighbouring bins, the
channel in the frequency-Doppler domain is nearly banded, cyclically, and its
``detector`` solves matrix-free: conjugate gradients preconditioned by the
band.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import channel as chan
from .detect import RegularizationRequiredError, StructuredMmse
from .scfdma import ProbedModem
from .transforms import FrameGeometry, to_delay_doppler, to_frequency_doppler
from .ufmc import FilterBankSpec, UfmcOperators, ufmc_analyze

# Half-width of the cyclic frequency-Doppler band the CG preconditioner keeps.
# At 64x8, TDL-C with Jakes Doppler, 8 frames and 0-40 dB: 12 (32 probe
# colours) needs 3-6 iterations and about 28 ms of detection a frame at 3 SNR
# points; 8 needs 4-11 (31 ms) and 16, with 64 colours, 3-5 (32 ms).
BAND_HALF_WIDTH = 12
# CG stops at this residual relative to the right-hand side and gives up after
# CG_MAX_ITERATIONS steps. Over 40 such frames the largest deviation from the
# dense MMSE was 4.4e-11 at 1e-13 and 6.9e-12 at 1e-14, against a bound of 1e-10.
CG_RTOL = 1e-14
CG_MAX_ITERATIONS = 100


class GfOtfsModem(ProbedModem):
    """Subband-filtered transceiver with predistortion.

    Its effective channel is Gamma^H R_u H T_u Gamma.
    """

    def __init__(self, geom: FrameGeometry, n_sc_rb: int = 4, filter_len: int = 1,
                 atten_db: float = 60.0):
        self.geom = geom
        self.bank = FilterBankSpec.chebyshev(geom.n_sc, n_sc_rb, filter_len, atten_db)
        self.tu = UfmcOperators(self.bank).tu
        self.rx_len = self.bank.out_len
        n = geom.n_sc
        # colour q sums the columns q, q + c, ...: c is the least divisor of n
        # that keeps same-colour columns 2b + 1 apart cyclically (n if none)
        self.n_colours = next(c for c in range(min(2 * BAND_HALF_WIDTH + 1, n), n + 1)
                              if n % c == 0)
        self._coloured = self.tu.reshape(self.rx_len, n // self.n_colours,
                                         self.n_colours).sum(axis=1)

    def modulate(self, d) -> np.ndarray:
        """Predistorted, normalized subband synthesis of Gamma d."""
        return self.tu @ to_frequency_doppler(d, self.geom)

    def demodulate(self, r) -> np.ndarray:
        """Subband analysis followed by the inverse frequency-Doppler route."""
        return to_delay_doppler(ufmc_analyze(r, self.bank), self.geom)

    def detector(self, ch: chan.LtvChannelRealization) -> StructuredMmse:
        """Structured MMSE on A = R_u H T_u by preconditioned conjugate gradients.

        The effective channel is Gamma^H A Gamma. A is applied through T_u, the
        sparse delay-time H and the analysis, never formed. The preconditioner
        is the cyclic band |i - j| <= b of A, recovered from ``n_colours``
        coloured probe columns (Curtis, Powell & Reid 1974). Its Gram, a
        cyclic band of 2b, becomes a plain band of 4b in the reflected order
        0, n-1, 1, n-2, ... and is factored with ``cholesky_banded``.
        """
        n, c = self.geom.n_sc, self.n_colours
        h = chan.delay_time_matrix(ch, self.rx_len)
        h_h = h.conj().T

        def a(v):
            return ufmc_analyze(h @ (self.tu @ v), self.bank)

        def a_h(w):
            z = np.zeros((2 * n,) + w.shape[1:], dtype=complex)
            z[0::2] = w
            u = h_h @ (np.fft.ifft(z, axis=0)[:self.rx_len] * np.sqrt(2 * n))
            return (self.tu.T @ u.conj()).conj()

        resp = ufmc_analyze(h @ self._coloured, self.bank)
        # with one colour a column (c == n) the probe is the whole of A: keep it all
        offs = np.arange(-BAND_HALF_WIDTH, BAND_HALF_WIDTH + 1) % n if c < n else np.arange(n)
        cols = np.broadcast_to(np.arange(n), (offs.size, n))
        rows = (cols + offs[:, None]) % n
        a_band = scipy.sparse.csc_array((resp[rows, cols % c].ravel(),
                                         (rows.ravel(), cols.ravel())), shape=(n, n))
        g = (a_band.conj().T @ a_band).tocoo()
        order = np.empty(n, dtype=int)
        order[0::2], order[1::2] = np.arange((n + 1) // 2), n - 1 - np.arange(n // 2)
        pos = np.argsort(order)
        r, q = pos[g.row], pos[g.col]
        low = r >= q
        band = np.zeros((int((r - q)[low].max()) + 1, n), dtype=complex)
        band[(r - q)[low], q[low]] = g.data[low]

        def factor(var):
            try:
                cb = scipy.linalg.cholesky_banded(np.vstack([band[:1] + var, band[1:]]),
                                                  lower=True, check_finite=False)
            except np.linalg.LinAlgError as exc:
                if var == 0.0:
                    raise RegularizationRequiredError(
                        "singular band preconditioner with noise_var=0; "
                        "a positive noise variance is required") from exc
                raise
            gram = _operator(n, lambda v: a_h(a(v)) + var * v)
            precond = _operator(n, lambda v: scipy.linalg.cho_solve_banded(
                (cb, True), v[order], check_finite=False)[pos])

            def solve(rhs):
                # Hestenes & Stiefel 1952, from the preconditioner's solution
                x, info = scipy.sparse.linalg.cg(gram, rhs, precond @ rhs, rtol=CG_RTOL,
                                                 maxiter=CG_MAX_ITERATIONS, M=precond)
                if info and np.all(np.isfinite(x)):  # a non-finite x is the caller's to report
                    raise np.linalg.LinAlgError(
                        f"conjugate gradients did not reach relative residual {CG_RTOL:.0e} "
                        f"in {CG_MAX_ITERATIONS} iterations")
                return x
            return solve
        return StructuredMmse(_operator(n, a_h), factor,
                              lambda y: to_frequency_doppler(y, self.geom),
                              lambda x: to_delay_doppler(x, self.geom))


def _operator(n: int, matvec) -> scipy.sparse.linalg.LinearOperator:
    return scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=complex)
