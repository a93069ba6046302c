"""Subband filter bank: prototype design, synthesis, analysis, and predistortion.

A bank groups n_sc subcarriers into n_rb subbands of n_sc_rb each. Synthesis
transforms each subband to the time domain with the matching columns of the
inverse DFT, convolves with a frequency-shifted copy of the prototype filter,
and sums the subbands; the output is n_sc + filter_len - 1 samples long.
Analysis zero-pads the received block to 2 n_sc, applies the normalized
2 n_sc-point DFT and keeps the even bins. With filter_len = 1 the pair
reduces to a plain (I)DFT modem up to a global 1/sqrt(2).
"""

from __future__ import annotations

import numpy as np
from scipy.fft import next_fast_len
from scipy.signal.windows import chebwin

from .transforms import DimensionError


class SingularPredistortionError(ValueError):
    """The through-modem response has a zero bin; predistortion is undefined."""


def design_chebyshev_prototype(filter_len: int, atten_db: float) -> np.ndarray:
    """Dolph-Chebyshev window of the given length, scaled to unit L2 norm.

    ``atten_db`` is the equiripple sidelobe attenuation of the window's
    frequency response. The overall modulator gain is fixed later by power
    normalization, so only the shape matters here.
    """
    if filter_len < 1:
        raise DimensionError(f"filter_len must be >= 1, got {filter_len}")
    if atten_db <= 0:
        raise ValueError(f"atten_db must be positive, got {atten_db}")
    w = chebwin(filter_len, at=atten_db)
    return w / np.linalg.norm(w)


class FilterBankSpec:
    """Prototype filter plus the per-subband frequency shifts derived from it.

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
                f"filter_len={prototype.size} too long: analysis zero-pads to 2*n_sc")
        self.n_sc = n_sc
        self.n_sc_rb = n_sc_rb
        self.n_rb = n_sc // n_sc_rb
        self.prototype = prototype
        self.filter_len = prototype.size
        self.alpha = (np.arange(self.n_rb) + 0.5) * n_sc_rb - 0.5
        k = np.arange(self.filter_len)
        self.shifted_filters = prototype[None, :] * np.exp(
            2j * np.pi * np.outer(self.alpha, k) / n_sc)

    @classmethod
    def chebyshev(cls, n_sc: int, n_sc_rb: int, filter_len: int,
                  atten_db: float = 60.0) -> "FilterBankSpec":
        """Bank on :func:`design_chebyshev_prototype`; both filtered modems build theirs here."""
        return cls(n_sc, n_sc_rb, design_chebyshev_prototype(filter_len, atten_db))

    @property
    def out_len(self) -> int:
        return self.n_sc + self.filter_len - 1


def synthesis_matrix(bank: FilterBankSpec) -> np.ndarray:
    """Dense unnormalized modulator: column q is the synthesized response of bin q."""
    idx = np.arange(bank.n_sc)
    # Columns of the conjugated normalized DFT = per-bin time-domain basis.
    basis = np.exp(2j * np.pi * np.outer(idx, idx) / bank.n_sc) / np.sqrt(bank.n_sc)
    n_fft = next_fast_len(bank.out_len)
    spec = np.fft.fft(basis, n=n_fft, axis=0)
    spec *= np.fft.fft(bank.shifted_filters, n=n_fft, axis=1).T[:, idx // bank.n_sc_rb]
    return np.fft.ifft(spec, axis=0)[:bank.out_len]


def ufmc_analyze(r: np.ndarray, bank: FilterBankSpec) -> np.ndarray:
    """Zero-pad the first n_sc + filter_len - 1 samples to 2 n_sc, DFT, keep even bins.

    Trailing samples beyond the synthesis length (channel tail) are discarded.
    Works columnwise on matrices.
    """
    r = np.asarray(r)
    if r.shape[0] < bank.out_len:
        raise DimensionError(
            f"analysis needs at least {bank.out_len} samples, got {r.shape[0]}")
    padded = np.zeros((2 * bank.n_sc,) + r.shape[1:], dtype=complex)
    padded[:bank.out_len] = r[:bank.out_len]
    spectrum = np.fft.fft(padded, axis=0) / np.sqrt(2 * bank.n_sc)
    return spectrum[0::2]


class UfmcOperators:
    """The predistorted, power-normalized modulator of one bank.

    With ``t0 = synthesis_matrix(bank)`` the raw modulator and ``ref`` its
    all-ones response, ``tu = (t0 / synth_norm_gain) @ diag(predistortion)``
    is the modem used for transmission: the gain is the RMS of ``ref`` and
    the predistortion flattens the analysed ``ref``. Only ``tu`` is kept.
    """

    def __init__(self, bank: FilterBankSpec):
        self.bank = bank
        t0 = synthesis_matrix(bank)
        ref = t0 @ np.ones(bank.n_sc)
        s_f0 = ufmc_analyze(ref, bank)
        mags = np.abs(s_f0)
        if np.any(mags < 1e-300):  # also an all-zero ref, i.e. a zero gain
            raise SingularPredistortionError("through-modem response has a zero bin")
        self.predistortion = np.mean(mags) / s_f0
        if not np.all(np.isfinite(self.predistortion)):
            raise SingularPredistortionError("non-finite predistortion entries")
        self.synth_norm_gain = float(np.sqrt(np.mean(np.abs(ref) ** 2)))
        self.tu = (t0 / self.synth_norm_gain) * self.predistortion[None, :]
