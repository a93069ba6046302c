"""Linear time-varying tapped-delay-line channel, AWGN, and delay-time matrices.

A realization holds per-tap integer delays and complex gain sequences g_l[i]
over the sample index i. The sparse banded delay-time matrix H with
H[i, j] = h[i - j, i] is the one definition of the channel: applying it to a
signal computes y[i] = sum_l g_l[i] * x[i - tau_l], and every scheme's
detector multiplies the same matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse

SPEED_OF_LIGHT = 2.998e8  # m/s

# 3GPP TR 38.901 TDL-C cluster profile: delays normalized to the rms delay
# spread, powers in dB.
TDL_C_DELAYS_NORM = np.array([
    0.0000, 0.2099, 0.2219, 0.2329, 0.2176, 0.6366, 0.6448, 0.6560, 0.6584,
    0.7935, 0.8213, 0.9336, 1.2285, 1.3083, 2.1704, 2.7105, 4.2589, 4.6003,
    5.4902, 5.6077, 6.3065, 6.6374, 7.0427, 8.6523,
])
TDL_C_POWERS_DB = np.array([
    -4.4, -1.2, -3.5, -5.2, -2.5, 0.0, -2.2, -3.9, -7.4, -7.1, -10.7, -11.1,
    -5.1, -6.8, -8.7, -13.2, -13.9, -13.9, -15.8, -17.1, -16.0, -15.7, -21.6,
    -22.8,
])

PROFILES = ("tdl_c", "single_path")
DOPPLER_MODELS = ("single_shift_per_tap", "jakes_sum_of_sinusoids")
JAKES_N_SINUSOIDS = 16


@dataclass(frozen=True)
class ChannelConfig:
    """Profile, mobility and Doppler-model parameters for channel generation."""

    profile: str = "tdl_c"
    carrier_hz: float = 5.9e9
    speed_mps: float = 500.0 / 3.6
    bandwidth_hz: float = 1.92e6
    delay_spread_s: float = 300e-9
    n_taps: int = 5
    doppler_model: str = "single_shift_per_tap"
    fractional_doppler_override: float | None = None

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}, expected one of {PROFILES}")
        if self.doppler_model not in DOPPLER_MODELS:
            raise ValueError(f"unknown doppler_model {self.doppler_model!r}")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.n_taps < 1:
            raise ValueError("n_taps must be >= 1")

    @property
    def nu_max_hz(self) -> float:
        return self.carrier_hz * self.speed_mps / SPEED_OF_LIGHT


@dataclass(frozen=True)
class LtvChannelRealization:
    """Per-tap delays and gain sequences over the frame span."""

    tap_delays: np.ndarray            # int, strictly increasing
    gains: np.ndarray                 # (n_taps, span) complex

    def __post_init__(self):
        if self.gains.shape[0] != self.tap_delays.shape[0]:
            raise ValueError("gains and tap_delays disagree on the number of taps")
        if np.any(np.diff(self.tap_delays) <= 0):
            raise ValueError("tap_delays must be strictly increasing")

    @property
    def channel_len(self) -> int:
        return int(self.tap_delays[-1]) + 1

    @property
    def span(self) -> int:
        return self.gains.shape[1]


def quantized_profile(config: ChannelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Tap sample delays and unit-sum powers for the configured profile."""
    if config.profile == "single_path":
        return np.array([0]), np.array([1.0])
    # TDL-C: scale by the delay spread, quantize to the sample grid, merge
    # clusters landing on the same sample, keep the strongest n_taps.
    delays_s = TDL_C_DELAYS_NORM * config.delay_spread_s
    samples = np.round(delays_s * config.bandwidth_hz).astype(int)
    powers_lin = 10.0 ** (TDL_C_POWERS_DB / 10.0)
    uniq = np.unique(samples)
    merged = np.array([powers_lin[samples == s].sum() for s in uniq])
    if config.n_taps > uniq.size:
        raise ValueError(
            f"n_taps={config.n_taps} exceeds the {uniq.size} distinct quantized delays")
    keep = np.sort(np.argsort(merged)[::-1][:config.n_taps])
    delays, powers = uniq[keep], merged[keep]
    return delays, powers / powers.sum()


def generate_channel(config: ChannelConfig, span_samples: int, seed,
                     delta_nu_hz: float | None = None) -> LtvChannelRealization:
    """Draw a channel realization covering ``span_samples`` samples.

    Deterministic under (config, seed). With ``fractional_doppler_override``
    set, every tap gets the shift override * delta_nu_hz instead of a random
    cosine-distributed one; the single_path profile then stays fully
    deterministic (unit gain, zero phase).
    """
    delays, powers = quantized_profile(config)
    if span_samples < int(delays[-1]) + 1:
        raise ValueError(f"span_samples={span_samples} shorter than the channel memory")
    rng = np.random.default_rng(seed)
    amps = np.sqrt(powers)
    n_taps = delays.size
    dt = 1.0 / config.bandwidth_hz
    i = np.arange(span_samples)

    if config.fractional_doppler_override is not None:
        if delta_nu_hz is None:
            raise ValueError("fractional_doppler_override requires delta_nu_hz")
        shifts = np.full(n_taps, config.fractional_doppler_override * delta_nu_hz)
    else:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n_taps)
        shifts = config.nu_max_hz * np.cos(theta)

    deterministic = config.profile == "single_path"
    if config.doppler_model == "single_shift_per_tap":
        phases = np.zeros(n_taps) if deterministic else rng.uniform(0.0, 2.0 * np.pi, n_taps)
        gains = amps[:, None] * np.exp(
            1j * (2.0 * np.pi * shifts[:, None] * i[None, :] * dt + phases[:, None]))
    else:
        theta_s = rng.uniform(0.0, 2.0 * np.pi, size=(n_taps, JAKES_N_SINUSOIDS))
        phi_s = rng.uniform(0.0, 2.0 * np.pi, size=(n_taps, JAKES_N_SINUSOIDS))
        freqs = config.nu_max_hz * np.cos(theta_s)
        if config.fractional_doppler_override is not None:
            freqs = np.broadcast_to(shifts[:, None], theta_s.shape)
        # tone s at i = 64 q + r is exp(j (w 64 q + phi)) exp(j w r), w = 2 pi f dt: span / 64 + 64
        # exps a tone, not span, and sample i still does not depend on the span
        w = 2.0 * np.pi * freqs[:, :, None]
        coarse = np.exp(1j * (w * np.arange(0, span_samples, 64) * dt + phi_s[:, :, None]))
        fine = np.exp(1j * (w * np.arange(64) * dt))[:, :, None]
        sinusoids = ((coarse[:, s, :, None] * fine[:, s]).reshape(n_taps, -1)[:, :span_samples]
                     for s in range(JAKES_N_SINUSOIDS))  # each (n_taps, span), in index order
        gains = amps[:, None] * functools.reduce(np.add, sinusoids) / np.sqrt(JAKES_N_SINUSOIDS)

    return LtvChannelRealization(tap_delays=delays, gains=gains)


def apply_channel(x: np.ndarray, ch: LtvChannelRealization, out_len: int) -> np.ndarray:
    """y[i] = sum_l g_l[i] x[i - tau_l] for i < out_len.

    The gain of each tap is sampled at the output index. Works columnwise on
    matrices.
    """
    x = np.asarray(x)
    return delay_time_matrix(ch, out_len, x.shape[0]) @ x


def delay_time_matrix(ch: LtvChannelRealization, k: int,
                      n: int | None = None) -> scipy.sparse.csr_array:
    """Sparse k x n (default k x k) banded matrix H[i, j] = h[i - j, i], built from the taps.

    Row i holds g_l[i] at column i - tau_l for every tap with
    0 <= i - tau_l < n, so ``H @ x`` is the channel output of a length-n x
    cut to k samples. Rows past n + L - 1 are empty and read no gains.
    """
    n = k if n is None else n
    rows = min(k, n + ch.channel_len - 1)
    if ch.span < rows:
        raise ValueError(f"realization spans {ch.span} samples, need {rows}")
    # the taps from the longest delay down: each row's columns ascend, as in canonical CSR
    i, tau = np.arange(rows), ch.tap_delays[::-1, None]
    hit = ((i >= tau) & (i - tau < n)).T
    indptr = np.cumsum(np.pad(hit.sum(axis=1), (1, k - rows)))
    return scipy.sparse.csr_array((ch.gains[::-1, :rows].T[hit], (i - tau).T[hit], indptr),
                                  shape=(k, n))


def complex_noise(rng, n: int) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussian vector.

    Drawn sample-interleaved so that a shorter vector from the same generator
    state is a prefix of a longer one; the Monte Carlo harness relies on this
    to keep a scheme's noise independent of which other schemes run.
    """
    z = rng.standard_normal((n, 2)) * np.sqrt(0.5)
    return z[:, 0] + 1j * z[:, 1]
