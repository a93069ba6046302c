"""Frame geometry, the one unitary DFT, and the delay-Doppler maps built on it.

``FrameGeometry(M, N, bandwidth_hz)`` describes the grid only; each modem
takes its own scheme parameters, so all schemes on one grid share one
geometry. A data vector d of length M*N is ordered Doppler-block-major:
d[n*M + m] holds the symbol at delay m, Doppler n. Every map below is
:func:`full_dft` along one axis of that N x M grid, with a diagonal or a
permutation around it. ``Gamma`` (dense: ``oracle_matrix("Gamma")``) has three steps:

* a block-diagonal twiddle Omega (a phase ramp per Doppler block),
* per-block M-point DFTs, :func:`full_dft` along the delay axis of the grid,
* a stride interleaver Psi that makes the N Doppler bins of each frequency
  index contiguous.

Two equivalent modulation paths exist: the direct Zak path
s_t = (F_N^H kron I_M) d (:func:`zak_modulate`), and the SC-FDMA path
s_t = F_MN^H Gamma d through the frequency-Doppler domain. Their equality is
F_MN = Psi (I_N kron F_M) Omega (F_N kron I_M), checked in the test suite. Every
modem takes the Zak path: gf_otfs, which replaces the final F_MN^H with its
filter bank T_u, transmits T_u Gamma d = (T_u F_MN) zak_modulate(d). Gamma^H
(:func:`to_delay_doppler`) is left to the spectral studies. Dense
materializations live in :func:`oracle_matrix`, for small-instance
verification only, including Gamma and the CP oracles ``A_cp`` and ``B_cp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import convolution_matrix


class DimensionError(ValueError):
    """An input length or operator size is inconsistent with the geometry."""


@dataclass(frozen=True)
class FrameGeometry:
    """Dimensional parameters of one delay-Doppler frame.

    Scheme parameters (CP length, window, subband size, filter length) belong
    to the modems, so every scheme shares one geometry per grid.

    Parameters
    ----------
    M, N : int
        Delay and Doppler bins. The frame carries M*N symbols.
    bandwidth_hz : float
        Sampling rate; delay spacing is 1/bandwidth and Doppler spacing is
        bandwidth/(M*N), so delta_nu * M * N * delta_tau == 1 by construction.
    """

    M: int
    N: int
    bandwidth_hz: float = 1.92e6

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise DimensionError(f"M and N must be positive, got M={self.M}, N={self.N}")
        if self.bandwidth_hz <= 0:
            raise DimensionError(f"bandwidth_hz must be positive, got {self.bandwidth_hz}")

    @property
    def n_sc(self) -> int:
        return self.M * self.N

    @property
    def delta_nu_hz(self) -> float:
        return self.bandwidth_hz / self.n_sc


def _check_first_axis(x: np.ndarray, n: int, what: str) -> np.ndarray:
    x = np.asarray(x)
    if x.shape[0] != n:
        raise DimensionError(f"{what}: expected leading dimension {n}, got {x.shape[0]}")
    return x


def dft_matrix(n: int) -> np.ndarray:
    """Normalized n-point DFT matrix, entries (1/sqrt(n)) exp(-2j pi m k / n)."""
    if n < 1:
        raise DimensionError(f"DFT size must be >= 1, got {n}")
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def full_dft(x, inverse: bool = False, axis: int = 0) -> np.ndarray:
    """Unitary DFT (or inverse) along ``axis``, over its full length."""
    x = np.asarray(x)
    n = x.shape[axis]
    if inverse:
        return np.fft.ifft(x, axis=axis) * np.sqrt(n)
    return np.fft.fft(x, axis=axis) / np.sqrt(n)


def _grid_dft(x, geom: FrameGeometry, axis: int, inverse: bool, what: str) -> np.ndarray:
    # the leading axis viewed as the N x M (Doppler, delay) grid, transformed along one of them
    x = _check_first_axis(x, geom.n_sc, what)
    v = x.reshape((geom.N, geom.M) + x.shape[1:])
    return full_dft(v, inverse, axis).reshape(x.shape)


def zak_modulate(d, geom: FrameGeometry) -> np.ndarray:
    """(F_N^H kron I_M) d: delay-Doppler to delay-time, an inverse DFT over Doppler per delay."""
    return _grid_dft(d, geom, 0, True, "zak_modulate")


def zak_demodulate(s_t, geom: FrameGeometry) -> np.ndarray:
    """(F_N kron I_M) s_t, the inverse of :func:`zak_modulate`."""
    return _grid_dft(s_t, geom, 0, False, "zak_demodulate")


def _twiddle(geom: FrameGeometry, ndim: int) -> np.ndarray:
    # Omega's diagonal, entry n*M + m = exp(-2j pi m n / (M N)), shaped to scale columns
    m = np.arange(geom.M)
    n = np.arange(geom.N)
    w = np.exp(-2j * np.pi * np.outer(n, m) / geom.n_sc).ravel()
    return w.reshape((geom.n_sc,) + (1,) * (ndim - 1))


def to_delay_doppler(y, geom: FrameGeometry) -> np.ndarray:
    """Gamma^H y = Omega^H (I_N kron F_M^H) Psi^T y: frequency-Doppler to delay-Doppler."""
    y = _check_first_axis(y, geom.n_sc, "to_delay_doppler")
    v = y.reshape((geom.M, geom.N) + y.shape[1:]).swapaxes(0, 1).reshape(y.shape)
    return _grid_dft(v, geom, 1, True, "to_delay_doppler") * np.conj(_twiddle(geom, y.ndim))


# ---------------------------------------------------------------------------
# Dense oracle. Every operator is materialized from its defining formula,
# independently of the fast kernels above, so tests can compare the two.
# ---------------------------------------------------------------------------

def _oracle_psi(geom: FrameGeometry) -> np.ndarray:
    # Stack of circularly shifted copies of (I_N kron [1, 0, ..., 0]^T).
    psi = np.zeros((geom.M, 1))
    psi[0, 0] = 1.0
    base = np.kron(np.eye(geom.N), psi)  # MN x N, column n selects row n*M
    blocks = [np.roll(base, m, axis=0).T for m in range(geom.M)]
    return np.vstack(blocks)


def _oracle_shifted_filter(bank, i: int) -> np.ndarray:
    k = np.arange(bank.filter_len)
    alpha = (i + 0.5) * bank.n_sc_rb - 0.5
    return bank.prototype * np.exp(2j * np.pi * alpha * k / bank.n_sc)


def _oracle_t0(bank) -> np.ndarray:
    n_sc, width = bank.n_sc, bank.n_sc_rb
    f_full = dft_matrix(n_sc)
    t0 = np.zeros((n_sc + bank.filter_len - 1, n_sc), dtype=complex)
    for i in range(bank.n_rb):
        synth_cols = np.conj(f_full[:, i * width:(i + 1) * width])
        conv = convolution_matrix(_oracle_shifted_filter(bank, i), n_sc, mode="full")
        t0[:, i * width:(i + 1) * width] = conv @ synth_cols
    return t0


def _oracle_ru(n_sc: int, filter_len: int) -> np.ndarray:
    k = n_sc + filter_len - 1
    if k > 2 * n_sc:
        raise DimensionError(f"filter_len={filter_len} too long for zero-padding to 2*n_sc")
    z = np.vstack([np.eye(k), np.zeros((2 * n_sc - k, k))])
    keep_even = np.eye(2 * n_sc)[0::2, :]
    return keep_even @ dft_matrix(2 * n_sc) @ z


def oracle_matrix(operator_id: str, geom: FrameGeometry, bank=None,
                  cp_len: int | None = None) -> np.ndarray:
    """Dense materialization of a named operator, for small-instance verification.

    ``A_cp`` and ``B_cp`` need the CP length ``cp_len``; ``T_0``, ``T_u``
    and ``R_u`` need a filter bank spec with ``prototype``,
    ``filter_len``, ``n_sc``, ``n_sc_rb`` and ``n_rb`` fields.
    """
    if operator_id == "F_MN":
        return dft_matrix(geom.n_sc)
    if operator_id == "Psi":
        return _oracle_psi(geom)
    if operator_id == "Omega":
        m = np.arange(geom.M)
        n = np.arange(geom.N)
        return np.diag(np.exp(-2j * np.pi * np.outer(n, m).ravel() / geom.n_sc))
    if operator_id == "I_N_kron_F_M":
        return np.kron(np.eye(geom.N), dft_matrix(geom.M))
    if operator_id == "Gamma":
        return (oracle_matrix("Psi", geom)
                @ oracle_matrix("I_N_kron_F_M", geom)
                @ oracle_matrix("Omega", geom))
    if operator_id in ("A_cp", "B_cp") and cp_len is None:
        raise DimensionError(f"oracle_matrix({operator_id!r}) requires cp_len")
    if operator_id == "A_cp":
        eye = np.eye(geom.n_sc)
        return np.vstack([eye[geom.n_sc - cp_len:], eye]) if cp_len else eye.copy()
    if operator_id == "B_cp":
        return np.hstack([np.zeros((geom.n_sc, cp_len)), np.eye(geom.n_sc)])
    if operator_id in ("T_0", "T_u", "R_u"):
        if bank is None:
            raise DimensionError(f"oracle_matrix({operator_id!r}) requires a filter bank")
        if operator_id == "R_u":
            return _oracle_ru(bank.n_sc, bank.filter_len)
        t0 = _oracle_t0(bank)
        if operator_id == "T_0":
            return t0
        ref = t0 @ np.ones(bank.n_sc)
        gain = np.sqrt(np.mean(np.abs(ref) ** 2))
        # T_u: diagonal predistortion of the normalized modulator.
        s_f0 = _oracle_ru(bank.n_sc, bank.filter_len) @ ref
        p = np.mean(np.abs(s_f0)) / s_f0
        return (t0 / gain) * p[None, :]
    raise DimensionError(f"unknown operator id {operator_id!r}")
