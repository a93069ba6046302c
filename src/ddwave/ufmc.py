"""Subband filter bank: the Chebyshev bank, synthesis, analysis, and predistortion.

A bank groups n_sc subcarriers into n_rb subbands of n_sc_rb each. Synthesis
transforms each subband to the time domain with the matching columns of the
inverse DFT, convolves with a frequency-shifted copy of the prototype filter,
and sums the subbands; the output is n_sc + filter_len - 1 samples long.
:class:`UfmcOperators` builds it, predistorted and power-normalized and after
a unitary DFT, in closed form as a sparse operator with n_sc_rb entries a row.
Analysis, the even bins of the 2 n_sc-point DFT of the zero-padded block, is
the n_sc-point DFT of the block with its tail folded onto its head, over
sqrt(2) (Muquet et al. 2002): :func:`analysis_fold`. With filter_len = 1 the
pair reduces to a plain (I)DFT modem up to a global 1/sqrt(2).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
from scipy.fft import fft

from .transforms import DimensionError, full_dft


class SingularPredistortionError(ValueError):
    """The through-modem response has a zero bin; predistortion is undefined."""


def dolph_chebyshev_window(length: int, atten_db: float) -> np.ndarray:
    """Symmetric Dolph-Chebyshev window (Dolph 1946), peak 1, ``atten_db`` dB sidelobes.

    The steps and their order are those of scipy's ``chebwin``, whose samples
    this matches bit for bit (pinned in the tests), without its warning below 45 dB.
    """
    if length <= 1:
        return np.ones(length)
    order = length - 1.0
    # 1.0 / order * acosh, not acosh / order: the two round differently
    beta = np.cosh(1.0 / order * np.arccosh(10 ** (abs(atten_db) / 20.)))
    x = beta * np.cos(np.pi * np.arange(length, dtype=float) / length)
    # the window's DFT: the Chebyshev polynomial of degree length - 1 at x
    p = np.zeros_like(x)
    p[x > 1] = np.cosh(order * np.arccosh(x[x > 1]))
    p[x < -1] = (2 * (length % 2) - 1) * np.cosh(order * np.arccosh(-x[x < -1]))
    p[abs(x) <= 1] = np.cos(order * np.arccos(x[abs(x) <= 1]))
    if length % 2 == 0:  # half-sample shift
        p = p * np.exp(1j * np.pi / length * np.arange(length, dtype=float))
    w = np.real(fft(p))
    n = length // 2 + 1
    w = np.concatenate((np.flip(w[1:n]), w[1 - length % 2:n]))
    return w / np.max(w)


class FilterBankSpec:
    """A prototype filter and the n_sc / n_sc_rb subbands it is shifted onto.

    Subband i is centered on alpha_i = (i + 0.5) * n_sc_rb - 0.5 in bin units,
    i.e. on the midpoint of its n_sc_rb bins, and its filter is the prototype
    multiplied by exp(+2j pi alpha_i k / n_sc).
    """

    def __init__(self, n_sc: int, n_sc_rb: int, prototype: np.ndarray):
        if n_sc < 1 or n_sc_rb < 1 or n_sc % n_sc_rb != 0:
            raise DimensionError(f"n_sc_rb={n_sc_rb} must divide n_sc={n_sc}")
        prototype = np.asarray(prototype, dtype=float)
        if prototype.ndim != 1 or prototype.size < 1:
            raise DimensionError("prototype must be a nonempty 1-D real array")
        if prototype.size - 1 > n_sc:
            raise DimensionError(
                f"filter_len={prototype.size} too long: analysis folds at most n_sc tail samples")
        self.n_sc = n_sc
        self.n_sc_rb = n_sc_rb
        self.n_rb = n_sc // n_sc_rb
        self.prototype = prototype
        self.filter_len = prototype.size

    @classmethod
    def chebyshev(cls, n_sc: int, n_sc_rb: int, filter_len: int,
                  atten_db: float = 60.0) -> "FilterBankSpec":
        """Bank on a unit-norm Dolph-Chebyshev prototype; both filtered modems build theirs here.

        ``atten_db`` is the window's equiripple sidelobe attenuation. Power
        normalization fixes the modulator's gain later, so only the shape matters.
        """
        if filter_len < 1:
            raise DimensionError(f"filter_len must be >= 1, got {filter_len}")
        if atten_db <= 0:
            raise ValueError(f"atten_db must be positive, got {atten_db}")
        w = dolph_chebyshev_window(filter_len, atten_db)
        return cls(n_sc, n_sc_rb, w / np.linalg.norm(w))

    @property
    def out_len(self) -> int:
        return self.n_sc + self.filter_len - 1


def analysis_fold(bank: FilterBankSpec, n_blocks: int = 1) -> scipy.sparse.csr_array:
    """Sparse fold, over sqrt(2), of ``n_blocks`` blocks of ``bank.out_len`` samples n_sc apart.

    Sample j of block b, at b*n_sc + j, adds into row b*n_sc + (j mod n_sc); the
    unitary DFT of a block's n_sc rows is its subband analysis."""
    m, j = bank.n_sc, np.arange(bank.out_len)
    start = m * np.arange(n_blocks)[:, None]
    rows, cols = (start + j % m).ravel(), (start + j).ravel()
    return scipy.sparse.csr_array((np.full(rows.size, np.sqrt(0.5)), (rows, cols)),
                                  shape=(n_blocks * m, (n_blocks - 1) * m + bank.out_len))


def predistortion(bank: FilterBankSpec) -> np.ndarray:
    """The rb = n_sc_rb gains mean|s| / s that flatten the bank's through response s.

    Bin q takes gain q mod rb. With no channel, analysis after synthesis is
    diagonal: the fold of a windowed periodic signal keeps the window's sum, so
    bin i*rb + r comes back times s_r = sum_k p[k] exp(2j pi c_r k / n) / sqrt(2),
    c_r = (rb - 1)/2 - r, whose common 1/sqrt(2) the ratio cancels. O(rb L).
    """
    c = (bank.n_sc_rb - 1) / 2 - np.arange(bank.n_sc_rb)[:, None]
    s = np.exp(2j * np.pi * c * np.arange(bank.filter_len) / bank.n_sc) @ bank.prototype
    mags = np.abs(s)
    if np.any(mags < 1e-300):
        raise SingularPredistortionError("through-modem response has a zero bin")
    gains = np.mean(mags) / s
    if not np.all(np.isfinite(gains)):
        raise SingularPredistortionError("non-finite predistortion entries")
    return gains


class UfmcOperators:
    """The predistorted, power-normalized modulator of one bank, built sparse.

    Bin q = i*rb + r of the raw synthesis T_0 (n = n_sc, rb = n_sc_rb, p the
    prototype, L its length) is an inverse-DFT column times a window that
    depends on r alone, with c_r = alpha_i - q = (rb - 1)/2 - r:

        T_0[t, q] = w_r[t] exp(2j pi q t / n) / sqrt(n),
        w_r[t] = sum_{k=max(0, t-n+1)}^{min(t, L-1)} p[k] exp(2j pi c_r k / n).

    So ``ref = T_0 1`` is nonzero only at t = 0 mod n/rb, ``synth_norm_gain`` g
    is its RMS, and its predistortion D, mean|s| / s of its analysis s, is
    :func:`predistortion` repeated with period rb. T_u = T_0 diag(D) / g
    after the unitary DFT F has rb entries a row, at s = t mod n/rb:

        (T_u F)[t, s] = 1/(g rb) sum_r w_r[t] predistortion[r] exp(2j pi r (t - s) / n).

    ``tx`` is ``n_blocks`` copies of T_u F, n_sc apart, as :func:`analysis_fold`.
    """

    def __init__(self, bank: FilterBankSpec, n_blocks: int = 1):
        n, rb, flen = bank.n_sc, bank.n_sc_rb, bank.filter_len
        m, t, j = n // rb, np.arange(bank.out_len), np.arange(rb)[:, None]
        h = bank.prototype * np.exp(2j * np.pi * ((rb - 1) / 2 - j) * np.arange(flen) / n)
        cum = np.hstack([np.zeros((rb, 1)), np.cumsum(h, axis=1)])
        w = cum[:, np.minimum(t, flen - 1) + 1] - cum[:, np.maximum(0, t - n + 1)]

        def sums(a):  # sum_r a[r, t] exp(2j pi r (t - s) / n) at s = t mod m + j m, row j
            return np.sqrt(rb) * full_dft(a, inverse=True)[(t // m - j) % rb, t]

        gains = predistortion(bank)  # a zero bin also means an all-zero ref, a zero gain
        ref = np.where(t % m == 0, np.sqrt(n) / rb * sums(w)[0], 0)
        self.synth_norm_gain = float(np.sqrt(np.mean(np.abs(ref) ** 2)))
        vals = sums(w * gains[:, None]) / (self.synth_norm_gain * rb)
        start = n * np.arange(n_blocks)[:, None, None]
        rows, cols, vals = np.broadcast_arrays(start + t, start + t % m + j * m, vals)
        self.tx = scipy.sparse.csr_array((vals.ravel(), (rows.ravel(), cols.ravel())),
                                         shape=((n_blocks - 1) * n + bank.out_len, n_blocks * n))
