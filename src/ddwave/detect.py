"""Symbol detection: regularized linear (MMSE) equalization and Gray-coded QAM.

A modem's ``detector(ch)`` has ``solve(y, noise_var)``. otfs, rw_otfs and
dr_ufmc solve structured (:class:`StructuredMmse`); :class:`MmseEqualizer` on
the dense probed effective channel is their oracle and gf_otfs's path.
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


def _index_to_gray(idx: np.ndarray) -> np.ndarray:
    return idx ^ (idx >> 1)


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
    """Minimum-distance hard decision back to bits; exact inverse of qam_map."""
    m = _bits_per_axis(order)
    symbols = np.asarray(symbols).ravel()
    q = 1 << m
    scale = _axis_scale(order)
    li = np.clip(np.round((symbols.real / scale + (q - 1)) / 2), 0, q - 1).astype(np.int64)
    lq = np.clip(np.round((symbols.imag / scale + (q - 1)) / 2), 0, q - 1).astype(np.int64)
    gi = _index_to_gray(li)
    gq = _index_to_gray(lq)
    shifts = np.arange(m - 1, -1, -1)
    bits = np.empty((symbols.size, 2 * m), dtype=np.int64)
    bits[:, :m] = (gi[:, None] >> shifts) & 1
    bits[:, m:] = (gq[:, None] >> shifts) & 1
    return bits.ravel()


class MmseEqualizer:
    """Dense linear MMSE detector for a fixed effective channel.

    It is the default ``detector`` of every modem (the one ``gf_otfs`` runs)
    and the oracle that the structured detectors are tested against.

    Caches the Gram matrix so that solves at several noise levels reuse the
    expensive product; ``gram`` holds its upper triangle only (zherk), the
    half cho_factor reads. The solve is (H^H H + var I) d = H^H y via
    Cholesky; no explicit inverse is formed.
    """

    def __init__(self, h_eff: np.ndarray):
        h_eff = np.asarray(h_eff)
        if h_eff.ndim != 2 or h_eff.shape[0] != h_eff.shape[1]:
            raise ValueError(f"effective channel must be square, got {h_eff.shape}")
        self.h_eff = h_eff
        self.gram = scipy.linalg.blas.zherk(1.0, h_eff, trans=2, lower=0)
        self._n = h_eff.shape[0]

    def solve(self, d_tilde: np.ndarray, noise_var: float) -> np.ndarray:
        if noise_var < 0:
            raise ValueError("noise_var must be nonnegative")
        rhs = self.h_eff.conj().T @ d_tilde
        a = self.gram if noise_var == 0.0 else self.gram + noise_var * np.eye(self._n)
        try:
            factor = scipy.linalg.cho_factor(a, check_finite=False)
        except np.linalg.LinAlgError as exc:
            if noise_var == 0.0:
                raise RegularizationRequiredError(
                    "singular effective channel with noise_var=0; "
                    "a positive noise variance is required") from exc
            raise
        return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


class StructuredMmse:
    """Linear MMSE for an effective channel U T U^H, with U unitary and T structured.

    As U^H H^H H U = T^H T, the solve is d = U (T^H T + var I)^-1 T^H U^H y and
    never forms H. ``to_t`` applies U^H, ``from_t`` applies U, and
    ``factor(var)`` factors T^H T + var I and returns its solver.
    """

    def __init__(self, t, factor, to_t, from_t):
        self.t_h = t.conj().T
        self.factor, self.to_t, self.from_t = factor, to_t, from_t

    def solve(self, y: np.ndarray, noise_var: float) -> np.ndarray:
        if noise_var < 0:
            raise ValueError("noise_var must be nonnegative")
        return self.from_t(self.factor(noise_var)(self.t_h @ self.to_t(y)))
