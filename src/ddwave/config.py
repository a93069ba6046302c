"""Experiment configuration: strict JSON parsing, defaults, and validation.

Unknown keys are rejected with the offending key named; omitted fields get
the documented defaults (frame 64 x 8, carrier 5.9 GHz, bandwidth 1.92 MHz
for link-level experiments and 10 MHz for the PSD study, TDL-C with 5 taps
at 500 km/h, subbands of 4, filter lengths MN/4 + 1 and 20). The resolved
configuration is echoed into every report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .baselines import WINDOW_KINDS
from .channel import DOPPLER_MODELS, PROFILES

EXPERIMENTS = ("loopback", "impulse_leakage", "sidelobes", "psd", "ber_sweep", "oracle_suite")
SCHEMES = ("otfs", "gf_otfs", "rw_otfs", "dr_ufmc")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass(frozen=True)
class ChannelSection:
    """Channel fields; None means "use the experiment's documented default"."""

    profile: str | None = None            # tdl_c, except impulse_leakage: single_path
    carrier_hz: float = 5.9e9
    speed_mps: float = 500.0 / 3.6
    delay_spread_s: float = 300e-9
    n_taps: int | None = None             # 5 for tdl_c, 1 for single_path
    doppler_model: str | None = None      # jakes for ber_sweep, single shift otherwise
    fractional_doppler_override: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "ber_sweep"
    schemes: tuple[str, ...] = SCHEMES
    m: int = 64
    n: int = 8
    bandwidth_hz: float | None = None     # 1.92 MHz, or 10 MHz for the psd experiment
    qam_order: int = 16
    cp_len: int | None = None             # None: channel length - 1
    n_sc_rb: int = 4
    gf_filter_len: int | None = None      # None: M*N/4 + 1
    gf_atten_db: float = 60.0
    rw_cp_len: int | None = None          # None: M*N/4
    rw_window_kind: str = "dolph_chebyshev"
    rw_window_param: float = 50.0
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
    leakage_fractional_doppler: float = 0.5
    occupied_fraction: float = 0.5
    psd_segment_len: int = 1024
    sidelobe_oversample: int = 8

    # ---- derived values -------------------------------------------------
    @property
    def n_sc(self) -> int:
        return self.m * self.n

    def resolved_bandwidth_hz(self) -> float:
        if self.bandwidth_hz is not None:
            return self.bandwidth_hz
        return 10e6 if self.experiment == "psd" else 1.92e6

    def resolved_gf_filter_len(self) -> int:
        return self.gf_filter_len if self.gf_filter_len is not None else self.n_sc // 4 + 1

    def resolved_rw_cp_len(self) -> int:
        return self.rw_cp_len if self.rw_cp_len is not None else self.n_sc // 4

    def resolved_cp_len(self) -> int:
        if self.cp_len is not None:
            return self.cp_len
        return max(self.n_taps_effective() - 1, 0)

    def resolved_channel(self) -> dict:
        """Channel section with experiment-specific defaults filled in.

        The impulse study defaults to a single zero-delay path whose Doppler
        is pinned to leakage_fractional_doppler times the Doppler spacing;
        everything else defaults to the 5-tap TDL-C profile at 500 km/h. The
        BER sweep defaults to fading (Jakes) taps so high-SNR error counts
        stay statistically meaningful; the impulse study uses one
        deterministic shift per tap.
        """
        ch = self.channel
        profile = ch.profile
        if profile is None:
            profile = "single_path" if self.experiment == "impulse_leakage" else "tdl_c"
        n_taps = ch.n_taps
        if n_taps is None:
            n_taps = 1 if profile == "single_path" else 5
        doppler_model = ch.doppler_model
        if doppler_model is None:
            doppler_model = ("jakes_sum_of_sinusoids" if self.experiment == "ber_sweep"
                             else "single_shift_per_tap")
        frac = ch.fractional_doppler_override
        if frac is None and self.experiment == "impulse_leakage":
            frac = self.leakage_fractional_doppler
        return {
            "profile": profile,
            "carrier_hz": ch.carrier_hz,
            "speed_mps": ch.speed_mps,
            "delay_spread_s": ch.delay_spread_s,
            "n_taps": n_taps,
            "doppler_model": doppler_model,
            "fractional_doppler_override": frac,
        }

    def n_taps_effective(self) -> int:
        return int(self.resolved_channel()["n_taps"])

    def resolved_rw_tx_window(self) -> bool:
        if self.rw_tx_window is not None:
            return self.rw_tx_window
        return self.experiment in ("sidelobes", "psd")

    def resolved(self) -> dict:
        """Fully resolved configuration as a plain dict (echoed into reports)."""
        out = dataclasses.asdict(self)
        out["channel"] = self.resolved_channel()
        out["bandwidth_hz"] = self.resolved_bandwidth_hz()
        out["gf_filter_len"] = self.resolved_gf_filter_len()
        out["rw_cp_len"] = self.resolved_rw_cp_len()
        out["cp_len"] = self.resolved_cp_len()
        out["rw_tx_window"] = self.resolved_rw_tx_window()
        if out["leakage_center"] is None:
            out["leakage_center"] = [self.m // 2, self.n // 2]
        return out

    def config_hash(self) -> str:
        canon = json.dumps(self.resolved(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_snr_grid(value) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = value.split(":")
        _expect(len(parts) == 3, f"snr_grid_db string must be 'start:step:stop', got {value!r}")
        try:
            start, step, stop = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"snr_grid_db: non-numeric component in {value!r}") from exc
        _expect(step > 0, "snr_grid_db: step must be positive")
        _expect(stop >= start, "snr_grid_db: stop must be >= start")
        grid = []
        x = start
        while x <= stop + 1e-9:
            grid.append(round(x, 9))
            x += step
        return tuple(grid)
    if isinstance(value, (list, tuple)):
        _expect(len(value) > 0, "snr_grid_db must be nonempty")
        try:
            return tuple(float(v) for v in value)
        except (TypeError, ValueError) as exc:
            raise ConfigError("snr_grid_db: entries must be numbers") from exc
    raise ConfigError(f"snr_grid_db: expected list or 'start:step:stop' string, got {type(value).__name__}")


_CHANNEL_KEYS = {f.name for f in dataclasses.fields(ChannelSection)}
_TOP_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config from a parsed JSON object."""
    _expect(isinstance(raw, dict), "top-level config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    _expect(not unknown, f"unknown config key(s): {', '.join(sorted(unknown))}")

    kwargs = dict(raw)
    if "channel" in kwargs:
        chraw = kwargs["channel"]
        _expect(isinstance(chraw, dict), "channel section must be a JSON object")
        ch_unknown = set(chraw) - _CHANNEL_KEYS
        _expect(not ch_unknown, f"unknown channel key(s): {', '.join(sorted(ch_unknown))}")
        kwargs["channel"] = ChannelSection(**chraw)
    if "snr_grid_db" in kwargs:
        kwargs["snr_grid_db"] = _parse_snr_grid(kwargs["snr_grid_db"])
    if "schemes" in kwargs:
        _expect(isinstance(kwargs["schemes"], (list, tuple)) and kwargs["schemes"],
                "schemes must be a nonempty list")
        kwargs["schemes"] = tuple(kwargs["schemes"])
    for key in ("leakage_half_widths", "leakage_center"):
        if key in kwargs and kwargs[key] is not None:
            _expect(isinstance(kwargs[key], (list, tuple)) and len(kwargs[key]) == 2,
                    f"{key} must be a pair")
            kwargs[key] = tuple(int(v) for v in kwargs[key])

    cfg = ExperimentConfig(**kwargs)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    _expect(cfg.experiment in EXPERIMENTS,
            f"experiment: unknown value {cfg.experiment!r}, expected one of {EXPERIMENTS}")
    for s in cfg.schemes:
        _expect(s in SCHEMES, f"schemes: unknown scheme {s!r}, expected one of {SCHEMES}")
    _expect(cfg.m >= 1 and cfg.n >= 1, "m and n must be positive integers")
    _expect(cfg.qam_order in (4, 16, 64), f"qam_order: {cfg.qam_order} not in (4, 16, 64)")
    _expect(cfg.n_sc_rb >= 1, "n_sc_rb must be >= 1")
    _expect(cfg.n_sc % cfg.n_sc_rb == 0,
            f"n_sc_rb: {cfg.n_sc_rb} does not divide m*n = {cfg.n_sc} (m={cfg.m}, n={cfg.n})")
    _expect(cfg.m % cfg.n_sc_rb == 0,
            f"n_sc_rb: {cfg.n_sc_rb} does not divide m = {cfg.m} (dr_ufmc block constraint)")
    _expect(cfg.resolved_bandwidth_hz() > 0, "bandwidth_hz must be positive")
    _expect(cfg.resolved_gf_filter_len() >= 1, "gf_filter_len must be >= 1")
    _expect(cfg.resolved_gf_filter_len() - 1 <= cfg.n_sc,
            f"gf_filter_len: {cfg.resolved_gf_filter_len()} too long for n_sc={cfg.n_sc}")
    _expect(cfg.du_filter_len >= 1, "du_filter_len must be >= 1")
    _expect(cfg.du_filter_len - 1 <= cfg.m,
            f"du_filter_len: {cfg.du_filter_len} too long for m={cfg.m}")
    for key in ("gf_atten_db", "du_atten_db"):
        value = getattr(cfg, key)
        _expect(_is_number(value) and value > 0, f"{key}: must be positive, got {value!r}")
    _expect(cfg.n_frames >= 1, "n_frames must be >= 1")
    _expect(type(cfg.seed) is int and cfg.seed >= 0, f"seed: must be an int >= 0, got {cfg.seed!r}")
    _expect(len(cfg.snr_grid_db) > 0, "snr_grid_db must be nonempty")
    _expect(cfg.rw_window_kind in WINDOW_KINDS,
            f"rw_window_kind: unknown value {cfg.rw_window_kind!r}")
    if cfg.rw_window_kind == "raised_cosine":
        param = cfg.rw_window_param
        _expect(_is_number(param) and 0.0 < param <= 1.0,
                f"rw_window_param: raised_cosine roll-off must be in (0, 1], got {param!r}")
    if cfg.channel.profile is not None:
        _expect(cfg.channel.profile in PROFILES,
                f"channel.profile: unknown value {cfg.channel.profile!r}")
        _expect(cfg.channel.profile != "custom",
                "channel.profile: custom profiles are built programmatically, "
                "not from config files")
    if cfg.channel.doppler_model is not None:
        _expect(cfg.channel.doppler_model in DOPPLER_MODELS,
                f"channel.doppler_model: unknown value {cfg.channel.doppler_model!r}")
    if cfg.channel.n_taps is not None:
        _expect(cfg.channel.n_taps >= 1, "channel.n_taps must be >= 1")
    _expect(0.0 < cfg.occupied_fraction <= 2.0 / 3.0,
            "occupied_fraction must be in (0, 2/3] so the offset band stays below Nyquist")
    n_active = 2 * int(round(cfg.n_sc * cfg.occupied_fraction / 2.0))
    n_active_block = 2 * int(round(cfg.m * cfg.occupied_fraction / 2.0))
    _expect(n_active > 0 and n_active % cfg.n_sc_rb == 0
            and n_active_block > 0 and n_active_block % cfg.n_sc_rb == 0,
            f"occupied_fraction: {cfg.occupied_fraction} must activate whole subbands "
            f"symmetrically on both the {cfg.n_sc}-bin and the {cfg.m}-bin grids")
    _expect(cfg.psd_segment_len >= 64, "psd_segment_len must be >= 64")
    _expect(cfg.sidelobe_oversample >= 2, "sidelobe_oversample must be >= 2")
    w_m, w_n = cfg.leakage_half_widths
    _expect(2 * w_m + 1 <= cfg.m and 2 * w_n + 1 <= cfg.n,
            f"leakage_half_widths: window {2*w_m+1}x{2*w_n+1} exceeds grid {cfg.m}x{cfg.n}")
    if cfg.leakage_center is not None:
        m0, n0 = cfg.leakage_center
        _expect(0 <= m0 < cfg.m and 0 <= n0 < cfg.n,
                f"leakage_center: ({m0}, {n0}) outside grid {cfg.m}x{cfg.n}")


def parse_config(path) -> ExperimentConfig:
    """Read a JSON config file; an empty file means all defaults."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    text = p.read_text()
    if not text.strip():
        raw: dict = {}
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {p}: line {exc.lineno}: {exc.msg}") from exc
    return config_from_dict(raw)
