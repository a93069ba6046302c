"""Experiment implementations and the deterministic Monte Carlo runner.

Every random draw derives from (seed, purpose, frame index) through a
SeedSequence spawn key, so results are bit-identical across runs and across
worker counts. For a fixed frame index all schemes see the same payload
bits, the same channel realization, and the same unit noise vector (common
random numbers); per-SNR noise is the unit vector scaled by sigma.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import json
import multiprocessing
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import channel as chan
from .baselines import DrUfmcModem
from .config import ExperimentConfig, channel_config, psd_bands
from .detect import MmseEqualizer, qam_demap, qam_map
from .gfotfs import GfOtfsModem
from .metrics import doppler_leakage, oob_metric, psd_welch, wilson_interval
from .scfdma import CpOtfsModem, zak_modulate
from .transforms import FrameGeometry, oracle_matrix, to_delay_doppler, dft_matrix
from .ufmc import FilterBankSpec, synthesis_matrix, ufmc_analyze


class NumericalFailure(RuntimeError):
    """A non-finite value reached an experiment output."""


def rng_for(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(purpose, index)))


def seedseq_for(seed: int, purpose: int, index: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(purpose, index))


# purposes for spawn keys
_P_BITS, _P_CHANNEL, _P_NOISE = 0, 1, 2


def build_modems(cfg: ExperimentConfig) -> dict:
    """Instantiate the configured schemes, all on one geometry."""
    geom = FrameGeometry(M=cfg.m, N=cfg.n, bandwidth_hz=cfg.bandwidth_hz)
    builders = {
        "otfs": lambda: CpOtfsModem(geom, cfg.cp_len),
        "gf_otfs": lambda: GfOtfsModem(geom, cfg.n_sc_rb, cfg.gf_filter_len, cfg.gf_atten_db),
        "rw_otfs": lambda: CpOtfsModem(geom, cfg.rw_cp_len, cfg.rw_window_param,
                                       tx_window=cfg.rw_tx_window),
        "dr_ufmc": lambda: DrUfmcModem(geom, cfg.n_sc_rb, cfg.du_filter_len, cfg.du_atten_db),
    }
    return {name: builders[name]() for name in cfg.schemes}


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def write_csv(path: Path, schema: str, header: list[str], rows: list[list]) -> None:
    lines = [f"# schema={schema}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


@dataclasses.dataclass
class ExperimentReport:
    experiment: str
    config: dict
    config_hash: str
    seed: int
    summary: dict
    csv_paths: dict
    wall_clock_s: float
    environment: dict
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def _check_finite(name: str, arr) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalFailure(f"non-finite values in {name}")


# ---------------------------------------------------------------------------
# Active-band frame construction for the spectral experiments
# ---------------------------------------------------------------------------

def centered_band_mask(n_bins: int, fraction: float) -> np.ndarray:
    """Unshifted-DFT bins whose centered frequency lies inside the central fraction."""
    n_half = int(round(n_bins * fraction / 2.0))
    k = np.arange(n_bins)
    return (k < n_half) | (k >= n_bins - n_half)


_P_BLOCK_BITS = 3


def _active_band_tx(modems: dict, cfg: ExperimentConfig, frame_idx: int,
                    mask: np.ndarray, mask_block: np.ndarray) -> dict:
    """One frame per scheme with random symbols on the active bins only."""
    bits_per_sym = int(np.log2(cfg.qam_order))
    rng = rng_for(cfg.seed, _P_BITS, frame_idx)
    symbols = qam_map(rng.integers(0, 2, size=int(mask.sum()) * bits_per_sym), cfg.qam_order)
    out = {}
    for name, modem in modems.items():
        if name == "dr_ufmc":
            rng_b = rng_for(cfg.seed, _P_BLOCK_BITS, frame_idx)
            n_blk = cfg.n * int(mask_block.sum())
            blk_symbols = qam_map(rng_b.integers(0, 2, size=n_blk * bits_per_sym), cfg.qam_order)
            f_blocks = np.zeros((cfg.n, cfg.m), dtype=complex)
            f_blocks[:, mask_block] = blk_symbols.reshape(cfg.n, -1)
            out[name] = modem.tx_from_block_spectra(f_blocks)
        else:
            s_f = np.zeros(cfg.n_sc, dtype=complex)
            s_f[mask] = symbols
            out[name] = modem.modulate(to_delay_doppler(s_f, modem.geom))
    return out


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_loopback(cfg: ExperimentConfig, out_dir: Path) -> tuple[dict, dict]:
    modems = build_modems(cfg)
    k = int(np.log2(cfg.qam_order))
    span = max(m.rx_len for m in modems.values()) + 8
    ident = chan.identity_channel(span)
    equalizers = {name: MmseEqualizer(m.effective_channel(ident)) for name, m in modems.items()}
    summary, paths = {}, {}
    for name, modem in modems.items():
        rows = []
        total_err = 0
        for fi in range(cfg.n_frames):
            bits = rng_for(cfg.seed, _P_BITS, fi).integers(0, 2, size=cfg.n_sc * k)
            d = qam_map(bits, cfg.qam_order)
            r = chan.apply_channel(modem.modulate(d), ident, out_len=modem.rx_len)
            d_hat = equalizers[name].solve(modem.demodulate(r), 0.0)
            _check_finite(f"{name} loopback detect", d_hat)
            n_err = int(np.sum(qam_demap(d_hat, cfg.qam_order) != bits))
            total_err += n_err
            rows.append([fi, bits.size, n_err, n_err / bits.size])
        path = out_dir / f"loopback_{name}.csv"
        write_csv(path, "ddwave.loopback.v1", ["frame", "n_bits", "n_errors", "ber"], rows)
        summary[name] = {"total_errors": total_err}
        paths[name] = str(path)
    return summary, paths


def run_impulse_leakage(cfg: ExperimentConfig, out_dir: Path) -> tuple[dict, dict]:
    modems = build_modems(cfg)
    ch_cfg = channel_config(cfg)
    geom = next(iter(modems.values())).geom
    span = max(m.rx_len for m in modems.values()) + cfg.channel.n_taps + 8
    ch = chan.generate_channel(ch_cfg, span, seed=seedseq_for(cfg.seed, _P_CHANNEL, 0),
                               delta_nu_hz=geom.delta_nu_hz)
    m0, n0 = cfg.leakage_center
    d = np.zeros(cfg.n_sc, dtype=complex)
    d[n0 * cfg.m + m0] = 1.0
    summary, paths = {}, {}
    for name, modem in modems.items():
        r = chan.apply_channel(modem.modulate(d), ch, out_len=modem.rx_len)
        grid = modem.demodulate(r).reshape(cfg.n, cfg.m).T
        _check_finite(f"{name} leakage grid", grid)
        rep = doppler_leakage(grid, (m0, n0), cfg.leakage_half_widths)
        path = out_dir / f"impulse_leakage_{name}.csv"
        write_csv(path, "ddwave.leakage.v1",
                  ["half_width_delay", "half_width_doppler", "total_energy",
                   "in_window_energy", "leakage_ratio_db"],
                  [[rep.half_width_delay, rep.half_width_doppler, rep.total_energy,
                    rep.in_window_energy, rep.leakage_ratio_db]])
        summary[name] = {"leakage_ratio_db": rep.leakage_ratio_db}
        paths[name] = str(path)
    return summary, paths


def run_sidelobes(cfg: ExperimentConfig, out_dir: Path) -> tuple[dict, dict]:
    """Half the subbands active (low half of the bin axis), averaged spectra."""
    modems = build_modems(cfg)
    mask = np.arange(cfg.n_sc) < cfg.n_sc // 2
    mask_block = np.arange(cfg.m) < cfg.m // 2
    os_factor = cfg.sidelobe_oversample
    acc = {name: np.zeros(os_factor * cfg.n_sc) for name in modems}
    for fi in range(cfg.n_frames):
        tx = _active_band_tx(modems, cfg, fi, mask, mask_block)
        for name, x in tx.items():
            spec = np.abs(np.fft.fft(x, n=os_factor * cfg.n_sc)) ** 2
            acc[name] += spec
    summary, paths = {}, {}
    bin_axis = np.arange(os_factor * cfg.n_sc) / os_factor
    for name, spec in acc.items():
        mag_db = 10.0 * np.log10(np.maximum(spec / spec.max(), 1e-30))
        _check_finite(f"{name} sidelobe spectrum", mag_db)
        path = out_dir / f"sidelobes_{name}.csv"
        write_csv(path, "ddwave.sidelobes.v1", ["fd_bin", "mag_db"],
                  [[b, v] for b, v in zip(bin_axis, mag_db)])
        # stopband level: bins beyond the active half plus a one-subband guard
        guard = (bin_axis > cfg.n_sc / 2 + cfg.n_sc_rb) & (bin_axis < cfg.n_sc - cfg.n_sc_rb)
        summary[name] = {"stopband_mean_db": float(np.mean(mag_db[guard]))}
        paths[name] = str(path)
    return summary, paths


def run_psd(cfg: ExperimentConfig, out_dir: Path) -> tuple[dict, dict]:
    """Welch PSD with the central `occupied_fraction` of the band active.

    The out-of-band metric band is [0.55, 0.75] of the occupied bandwidth
    from the center; streams are normalized to unit mean power so levels
    compare shape, not bookkeeping.
    """
    modems = build_modems(cfg)
    mask = centered_band_mask(cfg.n_sc, cfg.occupied_fraction)
    mask_block = centered_band_mask(cfg.m, cfg.occupied_fraction)
    streams = {name: [] for name in modems}
    for fi in range(cfg.n_frames):
        tx = _active_band_tx(modems, cfg, fi, mask, mask_block)
        for name, x in tx.items():
            streams[name].append(x)
    occ_band, off_band = psd_bands(cfg)
    summary, paths = {}, {}
    for name, parts in streams.items():
        x = np.concatenate(parts)
        x = x / np.sqrt(np.mean(np.abs(x) ** 2))
        est = psd_welch(x, cfg.bandwidth_hz, segment_len=cfg.psd_segment_len)
        _check_finite(f"{name} psd", est.psd_db)
        path = out_dir / f"psd_{name}.csv"
        write_csv(path, "ddwave.psd.v1", ["freq_hz", "psd_db"],
                  [[f, p] for f, p in zip(est.freq_hz, est.psd_db)])
        summary[name] = {
            "occupied_mean_db": est.band_mean_db(*occ_band),
            "offset_mean_db": est.band_mean_db(*off_band),
            "oob_metric_db": oob_metric(est, occ_band, off_band),
        }
        paths[name] = str(path)
    summary["bands"] = {"occupied_hz": list(occ_band), "offset_hz": list(off_band)}
    return summary, paths


# ---- BER sweep ------------------------------------------------------------

# The Gram product and h^H y run in numpy's bundled OpenBLAS, the Cholesky in scipy's.
_OPENBLAS = ((np, "numpy.libs/libscipy_openblas64_*.so", "64_"),
             (scipy, "scipy.libs/libscipy_openblas-*.so", ""))


@contextlib.contextmanager
def _one_blas_thread(record: dict):
    """Pin both OpenBLAS copies to one thread, which fork workers inherit, and restore them.

    One thread is faster for the sweep's 512-point products even alone, and a
    thread per core in each worker oversubscribes the cores. An explicit
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, or a missing library or symbol,
    pins nothing. ``record`` gets each library's file and threads, and why not pinned.
    """
    libs, why = {}, [f"explicit env {k}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if os.environ.get(k)]
    for module, pattern, suffix in _OPENBLAS:
        found = sorted(Path(module.__file__).parents[1].glob(pattern))
        record[module.__name__] = {"file": found[0].name if found else None}
        try:
            lib = ctypes.CDLL(str(found[0]))
            get, put = (getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}")
                        for op in ("get", "set"))
        except (IndexError, OSError, AttributeError) as exc:
            why.append(f"{module.__name__}: {exc if found else 'no ' + pattern}")
            continue
        get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
        libs[module.__name__] = (get, put, get())
    pinned = {} if why else libs
    for _, put, _ in pinned.values():
        put(1)
    for name, (get, _, _) in libs.items():
        record[name]["threads"] = get()
    record["not_pinned"] = "; ".join(why) or None
    try:
        yield
    finally:
        for _, put, before in pinned.values():
            put(before)


_WORKER: dict = {}


def _ber_frame(frame_idx: int):
    cfg: ExperimentConfig = _WORKER["cfg"]
    modems = _WORKER["modems"]
    ch_cfg = _WORKER["ch_cfg"]
    k = int(np.log2(cfg.qam_order))
    geom = next(iter(modems.values())).geom
    max_rx = max(m.rx_len for m in modems.values())

    bits = rng_for(cfg.seed, _P_BITS, frame_idx).integers(0, 2, size=cfg.n_sc * k)
    d = qam_map(bits, cfg.qam_order)
    ch = chan.generate_channel(ch_cfg, max_rx + cfg.channel.n_taps + 8,
                               seed=seedseq_for(cfg.seed, _P_CHANNEL, frame_idx),
                               delta_nu_hz=geom.delta_nu_hz)
    eta = chan.complex_noise(rng_for(cfg.seed, _P_NOISE, frame_idx), max_rx)

    errors = {}
    for name, modem in modems.items():
        x = modem.modulate(d)
        y0 = modem.demodulate(chan.apply_channel(x, ch, out_len=modem.rx_len))
        y_eta = modem.demodulate(eta[:modem.rx_len])
        eq = MmseEqualizer(modem.effective_channel(ch))
        per_snr = np.zeros(len(cfg.snr_grid_db), dtype=np.int64)
        for si, snr_db in enumerate(cfg.snr_grid_db):
            var = 10.0 ** (-snr_db / 10.0)
            d_hat = eq.solve(y0 + np.sqrt(var) * y_eta, var)
            _check_finite(f"{name} MMSE output, frame {frame_idx}", d_hat)
            per_snr[si] = np.sum(qam_demap(d_hat, cfg.qam_order) != bits)
        errors[name] = per_snr
    return errors


def run_ber_sweep(cfg: ExperimentConfig, out_dir: Path, workers: int = 1,
                  blas: dict | None = None) -> tuple[dict, dict]:
    """Monte Carlo BER of every scheme; ``blas`` receives the BLAS thread record."""
    k = int(np.log2(cfg.qam_order))
    bits_per_frame = cfg.n_sc * k
    totals = {name: np.zeros(len(cfg.snr_grid_db), dtype=np.int64) for name in cfg.schemes}

    # Built here, before any pool exists, so that a bad scheme parameter
    # raises in the caller; forked workers inherit the modems. A worker that
    # raises or dies ends the loop, and the frames not yet started are cancelled.
    _WORKER.update(cfg=cfg, modems=build_modems(cfg), ch_cfg=channel_config(cfg))
    pool = None
    with _one_blas_thread({} if blas is None else blas):
        try:
            if workers > 1:
                pool = ProcessPoolExecutor(min(workers, cfg.n_frames),
                                           mp_context=multiprocessing.get_context("fork"))
            for errors in (pool.map if pool else map)(_ber_frame, range(cfg.n_frames)):
                for name, per_snr in errors.items():
                    totals[name] += per_snr
        finally:
            if pool:
                pool.shutdown(cancel_futures=True)
            _WORKER.clear()

    n_bits = cfg.n_frames * bits_per_frame
    summary, paths = {}, {}
    for name in cfg.schemes:
        rows = []
        for si, snr_db in enumerate(cfg.snr_grid_db):
            n_err = int(totals[name][si])
            lo, hi = wilson_interval(n_err, n_bits)
            rows.append([snr_db, n_err / n_bits, n_bits, n_err, lo, hi])
        path = out_dir / f"ber_{name}.csv"
        write_csv(path, "ddwave.ber.v1",
                  ["snr_db", "ber", "n_bits", "n_errors", "ci95_lo", "ci95_hi"], rows)
        summary[name] = {"ber": [r[1] for r in rows], "snr_db": list(cfg.snr_grid_db)}
        paths[name] = str(path)
    return summary, paths


# ---- oracle suite ----------------------------------------------------------

def oracle_checks() -> list[tuple[str, float, float]]:
    """Small-instance dense-matrix verification rows: (name, max_err, tolerance)."""
    rows = []
    for m_dim, n_dim in ((2, 2), (3, 2), (4, 3), (8, 3), (8, 4), (4, 4)):
        g = FrameGeometry(M=m_dim, N=n_dim)
        lhs = oracle_matrix("F_MN", g)
        rhs = (oracle_matrix("Psi", g) @ oracle_matrix("I_N_kron_F_M", g)
               @ oracle_matrix("Omega", g) @ np.kron(dft_matrix(n_dim), np.eye(m_dim)))
        rows.append((f"cooley_tukey_{m_dim}x{n_dim}", float(np.max(np.abs(lhs - rhs))), 1e-12))
    g = FrameGeometry(M=8, N=4)
    gamma = oracle_matrix("Gamma", g)
    rows.append(("gamma_unitary_8x4",
                 float(np.max(np.abs(gamma @ gamma.conj().T - np.eye(32)))), 1e-12))
    rng = np.random.default_rng(0)
    d = rng.normal(size=32) + 1j * rng.normal(size=32)
    s_t = zak_modulate(d, g)
    dense_path = np.linalg.multi_dot([dft_matrix(32).conj().T, gamma, d.reshape(-1, 1)]).ravel()
    rows.append(("zak_vs_scfdma_8x4", float(np.max(np.abs(s_t - dense_path))), 1e-12))
    a_cp = oracle_matrix("A_cp", g, cp_len=3)
    b_cp = oracle_matrix("B_cp", g, cp_len=3)
    rows.append(("cp_identity", float(np.max(np.abs(b_cp @ a_cp - np.eye(32)))), 0.0))
    x_t = a_cp @ s_t
    d_rt = CpOtfsModem(g, cp_len=3).demodulate(x_t)
    rows.append(("loopback_8x4", float(np.max(np.abs(d_rt - d))), 1e-10))
    bank = FilterBankSpec.chebyshev(32, 4, filter_len=9)
    t0_fast = synthesis_matrix(bank)
    t0_dense = oracle_matrix("T_0", g, bank)
    rows.append(("ufmc_t0_fast_vs_oracle", float(np.max(np.abs(t0_fast - t0_dense))), 1e-10))
    r = rng.normal(size=40) + 1j * rng.normal(size=40)
    ru = oracle_matrix("R_u", g, bank)
    rows.append(("ufmc_ru_fast_vs_oracle",
                 float(np.max(np.abs(ufmc_analyze(r, bank) - ru @ r))), 1e-10))
    bank1 = FilterBankSpec.chebyshev(32, 4, filter_len=1)
    red = oracle_matrix("R_u", g, bank1) @ oracle_matrix("T_0", g, bank1)
    rows.append(("ofdm_reduction_lf1",
                 float(np.max(np.abs(red - np.eye(32) / np.sqrt(2.0)))), 1e-12))
    return rows


def run_oracle_suite(cfg: ExperimentConfig, out_dir: Path) -> tuple[dict, dict]:
    rows = oracle_checks()
    table = [[name, err, tol, int(err <= tol)] for name, err, tol in rows]
    path = out_dir / "oracle_suite.csv"
    write_csv(path, "ddwave.oracle.v1", ["check", "max_err", "tolerance", "passed"], table)
    n_fail = sum(1 for _, err, tol in rows if err > tol)
    summary = {"n_checks": len(rows), "n_failed": n_fail}
    return summary, {"oracle_suite": str(path)}


# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Dispatch the configured experiment, write CSVs and report.json."""
    t_start = time.time()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pooled = cfg.experiment == "ber_sweep" and workers > 1
    environment = {"python": platform.python_version(), "numpy": np.__version__,
                   "scipy": scipy.__version__, "blas": {}, "workers": workers,
                   "pool_start_method": "fork" if pooled else None,
                   "cores": len(os.sched_getaffinity(0))}
    runners = {
        "loopback": run_loopback,
        "impulse_leakage": run_impulse_leakage,
        "sidelobes": run_sidelobes,
        "psd": run_psd,
        "ber_sweep": functools.partial(run_ber_sweep, workers=workers, blas=environment["blas"]),
        "oracle_suite": run_oracle_suite,
    }
    summary, paths = runners[cfg.experiment](cfg, out_dir)
    report = ExperimentReport(
        experiment=cfg.experiment,
        config=dataclasses.asdict(cfg),
        config_hash=cfg.config_hash(),
        seed=cfg.seed,
        summary=summary,
        csv_paths=paths,
        wall_clock_s=time.time() - t_start,
        environment=environment,
    )
    (out_dir / "report.json").write_text(report.to_json())
    return report
