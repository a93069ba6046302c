"""Experiment configuration: strict JSON parsing, defaults, and validation.

Unknown keys are rejected with the offending key named; omitted and null
fields get the documented defaults (frame 64 x 8, carrier 5.9 GHz, bandwidth
1.92 MHz for link-level experiments and 10 MHz for the PSD study, TDL-C with
5 taps at 500 km/h, subbands of 4, filter lengths MN/4 + 1 and 20), filled
once by config_from_dict, so a parsed config holds concrete values. The
command line's overrides enter the JSON object, so a run's config is checked
once: every field against its annotated type before the defaults are filled
and the range checks run, so a bad value raises ConfigError naming the
field. The configuration is echoed into every report.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import DOPPLER_MODELS, PROFILES, ChannelConfig, quantized_profile
from .detect import QAM_ORDERS
from .metrics import band_has_welch_bin, centered_band_mask
from .ufmc import FilterBankSpec, SingularPredistortionError, predistortion

EXPERIMENTS = ("loopback", "impulse_leakage", "sidelobes", "psd", "ber_sweep", "oracle_suite")
SCHEMES = ("otfs", "gf_otfs", "rw_otfs", "dr_ufmc")


# The largest |predistortion| a filtered scheme's bank may need.
MAX_PREDISTORTION = 10.0


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass(frozen=True)
class ChannelSection:
    """Channel fields; config_from_dict replaces None by the experiment's default."""

    profile: str | None = None            # tdl_c, except impulse_leakage: single_path
    carrier_hz: float = 5.9e9
    speed_mps: float = 500.0 / 3.6
    delay_spread_s: float = 300e-9
    n_taps: int | None = None             # 5 for tdl_c, 1 for single_path
    doppler_model: str | None = None      # jakes for ber_sweep, single shift otherwise
    fractional_doppler_override: float | None = None   # None: random Doppler per tap


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "ber_sweep"
    schemes: tuple[str, ...] = SCHEMES
    m: int = 64
    n: int = 8
    bandwidth_hz: float | None = None     # 1.92 MHz, or 10 MHz for the psd experiment
    qam_order: int = 16
    cp_len: int | None = None             # None: channel length - 1 (psd, sidelobes: n_taps - 1)
    n_sc_rb: int = 4
    gf_filter_len: int | None = None      # None: M*N/4 + 1
    gf_atten_db: float = 60.0
    rw_cp_len: int | None = None          # None: M*N/4
    rw_window_param: float = 50.0         # Dolph-Chebyshev attenuation in dB
    rw_tx_window: bool | None = None      # None: on for sidelobes/psd, off otherwise
    du_filter_len: int = 20
    du_atten_db: float = 60.0
    channel: ChannelSection = field(default_factory=ChannelSection)
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    n_frames: int = 200
    seed: int = 0
    output_dir: str = "ddwave-out"
    # experiment-specific knobs
    leakage_center: tuple[int, int] | None = None   # None: grid center
    leakage_half_widths: tuple[int, int] = (1, 1)
    occupied_fraction: float = 0.5
    psd_segment_len: int = 1024
    sidelobe_oversample: int = 8

    @property
    def n_sc(self) -> int:
        return self.m * self.n

    # perfbench/replay.py reads these two fields through methods
    def resolved_bandwidth_hz(self) -> float:
        return self.bandwidth_hz

    def n_taps_effective(self) -> int:
        return self.channel.n_taps

    def config_hash(self) -> str:
        """Hash of every field but ``output_dir``, which does not change any result."""
        fields = dataclasses.asdict(self)
        del fields["output_dir"]
        return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:16]


def channel_config(cfg: ExperimentConfig) -> ChannelConfig:
    return ChannelConfig(bandwidth_hz=cfg.bandwidth_hz, **dataclasses.asdict(cfg.channel))


def psd_bands(cfg: ExperimentConfig) -> tuple[tuple[float, float], tuple[float, float]]:
    """|f| bands of the psd study in Hz: occupied [0, 0.45] and offset [0.55, 0.75] x occupied."""
    occupied_hz = cfg.occupied_fraction * cfg.bandwidth_hz
    return (0.0, 0.45 * occupied_hz), (0.55 * occupied_hz, 0.75 * occupied_hz)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_int(v) -> bool:
    return type(v) is int and abs(v) < 2 ** 53


def _is_number(v) -> bool:
    return (type(v) is float or _is_int(v)) and math.isfinite(v)


_TYPE_CHECKS = {
    "int": _is_int,
    "float": _is_number,
    "str": lambda v: type(v) is str,
    "bool": lambda v: type(v) is bool,
    "ChannelSection": lambda v: isinstance(v, ChannelSection),
}


def _has_type(value, annotation: str) -> bool:
    """Whether ``value`` fits a field annotation of the config dataclasses.

    A bool is not an int, a float must be finite, ints stay below 2**53 so
    float arithmetic on them is exact, and ``tuple[X, ...]`` is nonempty.
    """
    if annotation.endswith(" | None"):
        return value is None or _has_type(value, annotation[:-len(" | None")])
    if not annotation.startswith("tuple["):
        return _TYPE_CHECKS[annotation](value)
    if not isinstance(value, tuple):
        return False
    items = annotation[len("tuple["):-1].split(", ")
    if items[-1] == "...":
        items = items[:1] * max(len(value), 1)
    return len(value) == len(items) and all(_TYPE_CHECKS[t](v) for t, v in zip(items, value))


_MAX_SNR_POINTS = 1000


def _parse_snr_grid(value):
    """Expand the 'start:step:stop' form; make list entries floats."""
    if isinstance(value, str):
        parts = value.split(":")
        _expect(len(parts) == 3, f"snr_grid_db string must be 'start:step:stop', got {value!r}")
        try:
            start, step, stop = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"snr_grid_db: non-numeric component in {value!r}") from exc
        _expect(all(math.isfinite(v) for v in (start, step, stop)),
                f"snr_grid_db: non-finite component in {value!r}")
        _expect(step > 0, "snr_grid_db: step must be positive")
        _expect(stop >= start, "snr_grid_db: stop must be >= start")
        _expect((stop - start) / step < _MAX_SNR_POINTS,
                f"snr_grid_db: {value!r} has more than {_MAX_SNR_POINTS} points")
        grid = []
        x = start
        while x <= stop + 1e-9:
            grid.append(round(x, 9))
            x, last = x + step, x
            _expect(x > last, f"snr_grid_db: step {step!r} does not move the grid past {last!r}")
        return tuple(grid)
    if isinstance(value, tuple):
        return tuple(float(v) if _is_number(v) else v for v in value)
    return value


_CHANNEL_KEYS = {f.name for f in dataclasses.fields(ChannelSection)}
_TOP_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def config_from_dict(raw: dict, **overrides) -> ExperimentConfig:
    """Build a config from a parsed JSON object and ``overrides`` of its values; fill, check."""
    _expect(isinstance(raw, dict), "top-level config must be a JSON object")
    raw = raw | overrides
    unknown = set(raw) - _TOP_KEYS
    _expect(not unknown, f"unknown config key(s): {', '.join(sorted(unknown))}")

    # JSON arrays become tuples, the form the frozen config holds.
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
    if "channel" in kwargs:
        chraw = kwargs["channel"]
        _expect(isinstance(chraw, dict), "channel section must be a JSON object")
        ch_unknown = set(chraw) - _CHANNEL_KEYS
        _expect(not ch_unknown, f"unknown channel key(s): {', '.join(sorted(ch_unknown))}")
        kwargs["channel"] = ChannelSection(**chraw)
    if "snr_grid_db" in kwargs:
        kwargs["snr_grid_db"] = _parse_snr_grid(kwargs["snr_grid_db"])

    cfg = ExperimentConfig(**kwargs)
    _check_types(cfg)
    cfg = _with_defaults(cfg)
    _validate(cfg)
    return cfg


def _with_defaults(cfg: ExperimentConfig) -> ExperimentConfig:
    """Replace every None field by the experiment's documented default.

    The impulse study defaults to a single zero-delay path whose Doppler is
    pinned to half the Doppler spacing; everything else defaults to the
    5-tap TDL-C profile at 500 km/h. The BER sweep defaults to fading (Jakes)
    taps so high-SNR error counts stay statistically meaningful; the other
    experiments use one deterministic shift per tap. The CP covers the
    channel memory, the largest quantized tap delay, except in the spectral
    studies, which keep n_taps - 1.
    """
    def fill(value, default):
        return default if value is None else value

    ch, exp = cfg.channel, cfg.experiment
    profile = fill(ch.profile, "single_path" if exp == "impulse_leakage" else "tdl_c")
    n_taps = fill(ch.n_taps, 1 if profile == "single_path" else 5)
    channel = dataclasses.replace(
        ch, profile=profile, n_taps=n_taps,
        doppler_model=fill(ch.doppler_model, "jakes_sum_of_sinusoids" if exp == "ber_sweep"
                           else "single_shift_per_tap"),
        fractional_doppler_override=fill(
            ch.fractional_doppler_override,
            0.5 if exp == "impulse_leakage" else None))
    cfg = dataclasses.replace(cfg, channel=channel, bandwidth_hz=fill(
        cfg.bandwidth_hz, 10e6 if exp == "psd" else 1.92e6))
    cp_len = max(n_taps - 1, 0)  # kept by psd and sidelobes: they send no frame through a channel
    if cfg.cp_len is None and exp not in ("psd", "sidelobes"):
        # a channel that _validate rejects keeps n_taps - 1: its error names the channel
        with np.errstate(all="ignore"), contextlib.suppress(ValueError):
            memory = int(quantized_profile(channel_config(cfg))[0][-1])
            cp_len = memory if 0 <= memory < cfg.n_sc else cp_len
    return dataclasses.replace(
        cfg, cp_len=fill(cfg.cp_len, cp_len),
        gf_filter_len=fill(cfg.gf_filter_len, cfg.n_sc // 4 + 1),
        rw_cp_len=fill(cfg.rw_cp_len, cfg.n_sc // 4),
        rw_tx_window=fill(cfg.rw_tx_window, exp in ("sidelobes", "psd")),
        leakage_center=fill(cfg.leakage_center, (cfg.m // 2, cfg.n // 2)))


def _check_types(cfg: ExperimentConfig) -> None:
    for section, prefix in ((cfg, ""), (cfg.channel, "channel.")):
        for f in dataclasses.fields(section):
            value = getattr(section, f.name)
            _expect(_has_type(value, f.type), f"{prefix}{f.name}: expected {f.type}, got "
                    f"{value!r} (ints must be below 2**53 in magnitude, floats finite, "
                    "and a bool is not an int)")


def _validate(cfg: ExperimentConfig) -> None:
    """Range checks of a typed, filled config; a grid fit is checked only where it is read."""
    _expect(cfg.experiment in EXPERIMENTS,
            f"experiment: unknown value {cfg.experiment!r}, expected one of {EXPERIMENTS}")
    for s in cfg.schemes:
        _expect(s in SCHEMES, f"schemes: unknown scheme {s!r}, expected one of {SCHEMES}")
    _expect(len(set(cfg.schemes)) == len(cfg.schemes),
            f"schemes: each scheme may appear once, got {list(cfg.schemes)}")
    _expect(cfg.qam_order in QAM_ORDERS, f"qam_order: {cfg.qam_order} not in {QAM_ORDERS}")
    # the string form is checked before it expands; both forms hold at most as many points
    _expect(len(cfg.snr_grid_db) <= _MAX_SNR_POINTS,
            f"snr_grid_db: {len(cfg.snr_grid_db)} points, more than {_MAX_SNR_POINTS}")
    inf, snr_max = math.inf, -10.0 * math.log10(max(cfg.n_sc, 1) * np.finfo(float).eps)
    for key, value, lo, hi in (
            ("m", cfg.m, 1, inf), ("n", cfg.n, 1, inf), ("n_sc_rb", cfg.n_sc_rb, 1, inf),
            # every modem's operators are sparse; the filtered schemes are capped below
            ("m * n", cfg.n_sc, 1, 2 ** 14),
            ("seed", cfg.seed, 0, inf), ("n_frames", cfg.n_frames, 1, inf),
            ("channel.n_taps", cfg.channel.n_taps, 1, inf),
            ("channel.carrier_hz", cfg.channel.carrier_hz, 0, inf),
            ("channel.speed_mps", cfg.channel.speed_mps, 0, inf),
            ("channel.delay_spread_s", cfg.channel.delay_spread_s, 0, inf)):
        _expect(lo <= value <= hi, f"{key}: {value!r} outside [{lo}, {hi}]")
    _expect(cfg.bandwidth_hz > 0, "bandwidth_hz must be positive")
    _expect(cfg.channel.profile in PROFILES,
            f"channel.profile: unknown value {cfg.channel.profile!r}")
    _expect(cfg.channel.doppler_model in DOPPLER_MODELS,
            f"channel.doppler_model: unknown value {cfg.channel.doppler_model!r}")
    # past half the sample rate the sampled tap gains alias: m*n/2 in Doppler bins
    nu_max, nyquist = channel_config(cfg).nu_max_hz, cfg.bandwidth_hz / 2
    _expect(nu_max <= nyquist,
            f"channel.speed_mps: {cfg.channel.speed_mps!r} m/s at carrier_hz="
            f"{cfg.channel.carrier_hz!r} gives a Doppler shift of {nu_max:.6g} Hz, above "
            f"bandwidth_hz / 2 = {nyquist:.6g} Hz")
    override = cfg.channel.fractional_doppler_override
    _expect(override is None or abs(override) <= cfg.n_sc / 2,
            f"channel.fractional_doppler_override: {override!r} outside "
            f"[{-cfg.n_sc / 2:g}, {cfg.n_sc / 2:g}] (m*n/2 bins, half the sample rate)")
    # The profile must have n_taps distinct delays, all inside the frame. Checked before
    # cp_len, whose default follows the channel, so that the channel's own error names it.
    delay_spread = cfg.channel.delay_spread_s
    _expect(delay_spread * cfg.bandwidth_hz <= cfg.n_sc,
            f"channel.delay_spread_s: {delay_spread!r} s is longer than the "
            f"{cfg.n_sc}-sample frame")
    try:
        delays, _ = quantized_profile(channel_config(cfg))
    except ValueError as exc:
        raise ConfigError(f"channel.n_taps: {exc} at delay_spread_s={delay_spread!r}") from exc
    _expect(delays[-1] < cfg.n_sc,
            f"channel.delay_spread_s: {delay_spread!r} s gives a channel memory of "
            f"{delays[-1] + 1} samples, longer than the {cfg.n_sc}-sample frame")
    for key, value, lo, hi in (
            ("cp_len", cfg.cp_len, 0, cfg.n_sc),
            ("rw_cp_len", cfg.rw_cp_len, 0, cfg.n_sc),
            ("gf_filter_len", cfg.gf_filter_len, 1, cfg.n_sc + 1),
            ("du_filter_len", cfg.du_filter_len, 1, inf),
            ("psd_segment_len", cfg.psd_segment_len, 64, inf),
            ("sidelobe_oversample", cfg.sidelobe_oversample, 2, inf),
            ("leakage_half_widths", min(cfg.leakage_half_widths), 0, inf),
            ("leakage_center", min(cfg.leakage_center), 0, inf),
            # 10^(-snr/10) overflows far below -300 dB; above -10 log10(m*n*eps) dB the
            # noise variance is lost in the rounding of the detectors' Gram
            ("snr_grid_db", min(cfg.snr_grid_db), -300, snr_max),
            ("snr_grid_db", max(cfg.snr_grid_db), -300, snr_max)):
        _expect(lo <= value <= hi, f"{key}: {value!r} outside [{lo}, {hi}]")
    filtered = [s for s in cfg.schemes if s in ("gf_otfs", "dr_ufmc")]
    # guards the memory of dr_ufmc's detector band, 2 x 16 B x rows x m*n with up to
    # m*n - 1 rows (0.5 GB at 2048 x 2), until a bound on that band replaces the m*n cap
    _expect(not filtered or cfg.n_sc <= 2 ** 12,
            f"m * n: {cfg.n_sc} outside [1, {2 ** 12}] with {', '.join(filtered)}, the filtered "
            "schemes: a cap on dr_ufmc's detector band memory")
    if "gf_otfs" in cfg.schemes:
        _expect(cfg.n_sc % cfg.n_sc_rb == 0,
                f"n_sc_rb: {cfg.n_sc_rb} does not divide m*n = {cfg.n_sc} (gf_otfs subbands)")
    if "dr_ufmc" in cfg.schemes:
        _expect(cfg.du_filter_len <= cfg.m + 1,
                f"du_filter_len: {cfg.du_filter_len} outside [1, {cfg.m + 1}] (dr_ufmc block)")
        _expect(cfg.m % cfg.n_sc_rb == 0,
                f"n_sc_rb: {cfg.n_sc_rb} does not divide m = {cfg.m} (dr_ufmc block constraint)")
    # the window overflows above about 6165 dB; doubles resolve no more than about 320 dB
    for key in ("gf_atten_db", "du_atten_db", "rw_window_param"):
        value = getattr(cfg, key)
        _expect(0 < value <= 1000,
                f"{key}: Dolph-Chebyshev attenuation {value!r} dB outside (0, 1000]")
    # Wide subbands put their edge bins far down the prototype's response, and the
    # predistortion that flattens them grows without bound: 1.04 to 1.51 on the
    # default-shaped banks, 12.3 at (16 bins, n_sc_rb 8, length 9), 589 at (16, 16, 9).
    banks = {"gf_otfs": (cfg.n_sc, cfg.gf_filter_len, cfg.gf_atten_db),
             "dr_ufmc": (cfg.m, cfg.du_filter_len, cfg.du_atten_db)}
    for name in filtered:
        bank = FilterBankSpec.chebyshev(banks[name][0], cfg.n_sc_rb, *banks[name][1:])
        try:
            gain = float(np.max(np.abs(predistortion(bank))))
        except SingularPredistortionError:
            gain = math.inf
        _expect(gain <= MAX_PREDISTORTION,
                f"n_sc_rb: {cfg.n_sc_rb}-bin subbands need a {name} predistortion gain of "
                f"{gain:.3g}, above {MAX_PREDISTORTION:g} (20 dB)")
    if "rw_otfs" in cfg.schemes:
        # up to -20 log10(2*m*n*eps) dB every sample of rw_otfs's window is positive
        # (checked in 0.5 dB steps for lengths 2 to 300 and 11 more up to 2^14)
        rw_max = -20.0 * math.log10(2 * cfg.n_sc * np.finfo(float).eps)
        _expect(cfg.rw_window_param <= rw_max,
                f"rw_window_param: {cfg.rw_window_param!r} dB above {rw_max:.1f} dB, where the "
                f"{cfg.n_sc}-sample Dolph-Chebyshev window may round to non-positive samples")
    _expect(0.0 < cfg.occupied_fraction <= 2.0 / 3.0,
            "occupied_fraction must be in (0, 2/3] so the offset band stays below Nyquist")
    if cfg.experiment == "impulse_leakage":
        (w_m, w_n), (m0, n0) = cfg.leakage_half_widths, cfg.leakage_center
        _expect(2 * w_m + 1 <= cfg.m and 2 * w_n + 1 <= cfg.n,
                f"leakage_half_widths: window {2*w_m+1}x{2*w_n+1} does not fit grid "
                f"{cfg.m}x{cfg.n}")
        _expect(m0 < cfg.m and n0 < cfg.n,
                f"leakage_center: ({m0}, {n0}) outside grid {cfg.m}x{cfg.n}")
    if cfg.experiment in ("sidelobes", "psd"):
        # the spectral studies hold every frame's active-bin symbols and one scheme's frames
        # at once: at most 2^27 complex values (2 GiB), 149,796 frames at the 64 x 8 default
        tails = {"otfs": cfg.cp_len, "gf_otfs": cfg.gf_filter_len - 1,
                 "rw_otfs": cfg.rw_cp_len, "dr_ufmc": cfg.du_filter_len - 1}
        n_active = (cfg.n_sc // 2 if cfg.experiment == "sidelobes" else
                    np.count_nonzero(centered_band_mask(cfg.n_sc, cfg.occupied_fraction)))
        per_frame = n_active + cfg.n_sc + max(tails[s] for s in cfg.schemes)
        _expect(cfg.n_frames * per_frame <= 2 ** 27,
                f"n_frames: {cfg.n_frames} frames of {per_frame} complex values (active bins "
                f"and the longest frame) hold more than {2 ** 27} (2 GiB)")
    if cfg.experiment == "sidelobes":
        # run_sidelobes averages bins b = k / os with n_sc/2 + n_sc_rb < b < n_sc - n_sc_rb
        os_factor, rb = cfg.sidelobe_oversample, cfg.n_sc_rb
        _expect(os_factor * cfg.n_sc // 2 + os_factor * rb + 1 < os_factor * (cfg.n_sc - rb),
                f"n_sc_rb: a {rb}-bin guard on each side of the stopband leaves no bin "
                f"of the {cfg.n_sc}-bin sidelobe spectrum to average")
        # it holds os * m*n bins and their axis in memory: 2^17 at most at the default os of 8
        _expect(os_factor * cfg.n_sc <= 2 ** 20, f"sidelobe_oversample: {os_factor} x m*n = "
                f"{os_factor * cfg.n_sc} spectrum bins, above {2 ** 20}")
    if cfg.experiment == "psd":
        # the m-bin grid carries dr_ufmc's blocks, the M*N-bin grid every other scheme
        grids = (cfg.n_sc, cfg.m) if "dr_ufmc" in cfg.schemes else (cfg.n_sc,)
        for n_bins in grids:
            n_active = np.count_nonzero(centered_band_mask(n_bins, cfg.occupied_fraction))
            _expect(n_active > 0 and n_active % cfg.n_sc_rb == 0,
                    f"occupied_fraction: {cfg.occupied_fraction} must activate whole subbands "
                    f"symmetrically on the {n_bins}-bin grid")
        stream = cfg.n_frames * (cfg.n_sc + min(tails[s] for s in cfg.schemes))
        _expect(cfg.psd_segment_len <= stream,
                f"psd_segment_len: {cfg.psd_segment_len} is longer than the {stream}-sample "
                f"transmit stream of {cfg.n_frames} frame(s)")
        for lo, hi in psd_bands(cfg):
            _expect(band_has_welch_bin(lo, hi, cfg.bandwidth_hz, cfg.psd_segment_len),
                    f"psd_segment_len: {cfg.psd_segment_len} leaves no Welch bin in [{lo}, {hi}] Hz")


def parse_config(path, **overrides) -> ExperimentConfig:
    """Read a JSON config file with config_from_dict's ``overrides``; empty means all defaults."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text()
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {p}: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read {p}: {type(exc).__name__}: {exc}") from exc
    return config_from_dict(raw, **overrides)
