"""Symbol detection: regularized linear (MMSE) equalization and Gray-coded QAM.

A modem's ``detect`` factors by :func:`band_factor` a Gram already in a
:func:`residue_order`, once for each of a BER frame's SNR points;
:class:`MmseEqualizer` on the dense probed effective channel is its oracle.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

QAM_ORDERS = (4, 16, 64)


class RegularizationRequiredError(np.linalg.LinAlgError):
    """Zero-noise solve requested on a numerically singular effective channel."""


def _bits_per_axis(order: int) -> int:
    if order not in QAM_ORDERS:
        raise ValueError(f"unsupported QAM order {order}, expected one of {QAM_ORDERS}")
    return int(np.log2(order)) // 2


def _gray_to_index(v: np.ndarray, m: int) -> np.ndarray:
    # Invert the binary-reflected Gray code over m bits.
    out = v.copy()
    shift = 1
    while shift < m:
        out ^= out >> shift
        shift *= 2
    return out


def _axis_scale(order: int) -> float:
    # Unit average symbol energy across the square constellation.
    return float(np.sqrt(3.0 / (2.0 * (order - 1))))


def qam_map(bits: np.ndarray, order: int) -> np.ndarray:
    """Gray-labeled square QAM with unit average energy.

    The first half of each symbol's bits selects the in-phase level, the
    second half the quadrature level; adjacent levels differ in one bit.
    """
    m = _bits_per_axis(order)
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size % (2 * m) != 0:
        raise ValueError(f"bit count {bits.size} not divisible by {2 * m}")
    grouped = bits.reshape(-1, 2 * m)
    weights = 1 << np.arange(m - 1, -1, -1)
    gi = grouped[:, :m] @ weights
    gq = grouped[:, m:] @ weights
    q = 1 << m
    li = _gray_to_index(gi, m)
    lq = _gray_to_index(gq, m)
    scale = _axis_scale(order)
    return ((2 * li - (q - 1)) + 1j * (2 * lq - (q - 1))) * scale


def qam_demap(symbols: np.ndarray, order: int) -> np.ndarray:
    """Minimum-distance hard decision back to bits; exact inverse of qam_map.

    Each axis level indexes a (q, m) table of its Gray label's bits; a non-finite
    symbol, which no level is nearest to, raises ValueError.
    """
    m = _bits_per_axis(order)
    symbols = np.asarray(symbols).ravel()
    if not np.all(np.isfinite(symbols)):
        raise ValueError("qam_demap: non-finite symbol")
    q = 1 << m
    scale = _axis_scale(order)
    levels = np.stack([symbols.real, symbols.imag], axis=1)  # (symbols, 2)
    idx = np.clip(np.round((levels / scale + (q - 1)) / 2), 0, q - 1).astype(np.int64)
    gray = np.arange(q) ^ (np.arange(q) >> 1)
    table = (gray[:, None] >> np.arange(m - 1, -1, -1)) & 1
    return table[idx].ravel()


class MmseEqualizer:
    """Dense linear MMSE detector for a fixed effective channel.

    It is the oracle that every modem's structured detector is tested
    against; no experiment runs it. It keeps the primal form
    (H^H H + var I)^-1 H^H y, the structured detectors the dual one. At
    ``noise_var == 0`` a singular H raises :class:`RegularizationRequiredError`.

    Caches the Gram matrix so that solves at several noise levels reuse the
    expensive product; ``gram`` holds its upper triangle only (zherk), the
    half cho_factor reads; no explicit inverse is formed.
    """

    def __init__(self, h_eff: np.ndarray):
        h_eff = np.asarray(h_eff)
        if h_eff.ndim != 2 or h_eff.shape[0] != h_eff.shape[1]:
            raise ValueError(f"effective channel must be square, got {h_eff.shape}")
        self.gram = scipy.linalg.blas.zherk(1.0, h_eff, trans=2, lower=0)
        self._h_h = h_eff.conj().T

    def solve(self, y: np.ndarray, noise_var: float) -> np.ndarray:
        if noise_var < 0:
            raise ValueError("noise_var must be nonnegative")
        a = self.gram if noise_var == 0.0 else self.gram + noise_var * np.eye(len(self.gram))
        try:
            c = scipy.linalg.cho_factor(a, check_finite=False)
        except np.linalg.LinAlgError as exc:
            if noise_var == 0.0:
                raise RegularizationRequiredError("a singular channel needs noise_var > 0") from exc
            raise
        return scipy.linalg.cho_solve(c, self._h_h @ y, check_finite=False)


def residue_order(n: int, p: int) -> np.ndarray:
    """0..n-1 by residue mod p: the residues in the reflected order 0, p-1, 1, p-2, ...

    and each class r, r + p, ... in turn; p divides n. A Gram whose entries lie
    within cyclic distance b of each other mod p is a band of at most
    (2b + 1) n/p - 1 rows in this order: p = n turns a cyclic band of half-width
    b into a plain band of 2b, and p = 1 is the natural order.
    """
    r = np.empty(p, dtype=int)
    r[0::2], r[1::2] = np.arange((p + 1) // 2), p - 1 - np.arange(p // 2)
    return (r[:, None] + p * np.arange(n // p)).ravel()


def band_factor(gram):
    """``factor(var)``: one banded Cholesky of G + var I, for a sparse Hermitian band G.

    The band holds G's lower triangle, band[i, q] = G[q + i, q], and is as high
    as its entries need, one row if it has none; ``factor(var)`` returns the
    solver of G + var I. A caller puts G's rows and columns in the order that
    makes it a band, its :func:`residue_order`, before the call.
    """
    g = gram.tocoo()
    low = g.row >= g.col
    r, q = g.row[low], g.col[low]
    # in LAPACK's column-major layout, so that no factorization transposes a copy
    band = np.zeros((int((r - q).max(initial=0)) + 1, gram.shape[0]), dtype=complex, order="F")
    band[r - q, q] = g.data[low]

    def factor(var):
        ab = band.copy(order="F")
        ab[0] += var
        cb = scipy.linalg.cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)
        return lambda v: scipy.linalg.cho_solve_banded((cb, True), v, check_finite=False)
    return factor
