"""Frame geometry and the DFT / permutation / twiddle kernels shared by every modem.

``FrameGeometry(M, N, bandwidth_hz)`` describes the grid only; each modem
takes its own scheme parameters, so all schemes on one grid share one
geometry. The grid has M delay bins and N Doppler bins. A data vector d of
length M*N is ordered Doppler-block-major: d[n*M + m] holds the symbol at
delay m, Doppler n. Three kernels connect that vector to the
frequency-Doppler domain:

* a block-diagonal twiddle (diagonal phase ramp per Doppler block),
* per-block M-point DFTs,
* a stride interleaver that makes the N Doppler bins of each frequency
  index contiguous.

Composed, they give the unitary map ``Gamma`` such that the full MN-point DFT
factors as F_MN = Psi (I_N kron F_M) Omega (F_N kron I_M). Fast paths here are
O(MN log M); dense materializations live in :func:`oracle_matrix` and are only
meant for small-instance verification.
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


def twiddle_diag(geom: FrameGeometry) -> np.ndarray:
    """Diagonal of the block twiddle: entry n*M + m equals exp(-2j pi m n / (M N))."""
    m = np.arange(geom.M)
    n = np.arange(geom.N)
    return np.exp(-2j * np.pi * np.outer(n, m) / geom.n_sc).ravel()


def apply_twiddle(x, geom: FrameGeometry, conjugate: bool = False) -> np.ndarray:
    """Multiply by the twiddle diagonal (or its conjugate). Works columnwise on matrices."""
    x = _check_first_axis(x, geom.n_sc, "apply_twiddle")
    w = twiddle_diag(geom)
    if conjugate:
        w = np.conj(w)
    return x * w.reshape((geom.n_sc,) + (1,) * (x.ndim - 1))


def interleave(x, geom: FrameGeometry) -> np.ndarray:
    """Stride permutation y[m*N + n] = x[n*M + m].

    Moves the N Doppler bins of frequency index m into N contiguous
    positions. Works columnwise on matrices (leading axis is permuted).
    """
    x = _check_first_axis(x, geom.n_sc, "interleave")
    rest = x.shape[1:]
    return x.reshape((geom.N, geom.M) + rest).swapaxes(0, 1).reshape(x.shape)


def deinterleave(y, geom: FrameGeometry) -> np.ndarray:
    """Inverse of :func:`interleave`: x[n*M + m] = y[m*N + n]."""
    y = _check_first_axis(y, geom.n_sc, "deinterleave")
    rest = y.shape[1:]
    return y.reshape((geom.M, geom.N) + rest).swapaxes(0, 1).reshape(y.shape)


def blockwise_dft(x, geom: FrameGeometry, inverse: bool = False) -> np.ndarray:
    """Apply the unitary M-point DFT (or inverse) to each of the N contiguous blocks."""
    x = _check_first_axis(x, geom.n_sc, "blockwise_dft")
    rest = x.shape[1:]
    v = x.reshape((geom.N, geom.M) + rest)
    if inverse:
        out = np.fft.ifft(v, axis=1) * np.sqrt(geom.M)
    else:
        out = np.fft.fft(v, axis=1) / np.sqrt(geom.M)
    return out.reshape((geom.n_sc,) + rest)


def full_dft(x, inverse: bool = False) -> np.ndarray:
    """Unitary DFT along the leading axis (full length)."""
    x = np.asarray(x)
    n = x.shape[0]
    if inverse:
        return np.fft.ifft(x, axis=0) * np.sqrt(n)
    return np.fft.fft(x, axis=0) / np.sqrt(n)


def to_frequency_doppler(d, geom: FrameGeometry) -> np.ndarray:
    """Gamma d = interleave(blockwise_dft(twiddle * d)): delay-Doppler to frequency-Doppler."""
    return interleave(blockwise_dft(apply_twiddle(d, geom), geom), geom)


def to_delay_doppler(y, geom: FrameGeometry) -> np.ndarray:
    """Gamma^H y: inverse of :func:`to_frequency_doppler`."""
    return apply_twiddle(blockwise_dft(deinterleave(y, geom), geom, inverse=True),
                         geom, conjugate=True)


def add_cp(s, cp_len: int) -> np.ndarray:
    """Prepend the last cp_len samples (columnwise on matrices)."""
    s = np.asarray(s)
    if cp_len < 0:
        raise DimensionError(f"cp_len must be nonnegative, got {cp_len}")
    if cp_len == 0:
        return s.copy()
    if cp_len > s.shape[0]:
        raise DimensionError(f"cp_len={cp_len} exceeds signal length {s.shape[0]}")
    return np.concatenate([s[-cp_len:], s], axis=0)


def remove_cp(r, cp_len: int, n: int) -> np.ndarray:
    """Drop the first cp_len samples, keeping exactly n."""
    r = _check_first_axis(r, n + cp_len, "remove_cp")
    return r[cp_len:]


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
