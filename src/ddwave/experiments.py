"""Experiment implementations and the deterministic Monte Carlo runner.

Every random draw derives from (seed, purpose, frame index) through a
SeedSequence spawn key, so results are bit-identical across runs and across
worker counts. For a fixed frame index all schemes see the same payload
bits, the same channel realization, and the same unit noise vector (common
random numbers); per-SNR noise is the unit vector scaled by sigma. The BER
sweep and the loopback run one frame loop, ``_frame_errors``; the loopback
is its frames at +inf dB (noise variance 0) on a still single path. The
spectral studies hold one scheme's stream at a time: its frames are the
columns of one matrix, modulated into it a chunk of frames a call, bit for
bit the frames one at a time.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import json
import math
import multiprocessing
import os
import platform
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import channel as chan
from .config import ExperimentConfig, channel_config, psd_bands
from .detect import qam_demap, qam_map
from .metrics import (centered_band_mask, doppler_leakage, oob_metric, psd_welch,
                      wilson_interval)
from .scfdma import CpOtfsModem, FilteredModem
from .transforms import (FrameGeometry, dft_matrix, full_dft, oracle_matrix, to_delay_doppler,
                         zak_modulate)
from .ufmc import FilterBankSpec, UfmcOperators, analysis_fold


class NumericalFailure(RuntimeError):
    """A non-finite value reached an experiment output."""


def seedseq_for(seed: int, purpose: int, index: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(purpose, index))


def rng_for(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(seedseq_for(seed, purpose, index))


# purposes for spawn keys
_P_BITS, _P_CHANNEL, _P_NOISE = 0, 1, 2


def build_modems(cfg: ExperimentConfig) -> dict:
    """Instantiate the configured schemes, all on one geometry."""
    geom = FrameGeometry(M=cfg.m, N=cfg.n, bandwidth_hz=cfg.bandwidth_hz)
    builders = {
        "otfs": lambda: CpOtfsModem(geom, cfg.cp_len),
        "gf_otfs": lambda: FilteredModem(geom, 1, cfg.n_sc_rb, cfg.gf_filter_len, cfg.gf_atten_db),
        "rw_otfs": lambda: CpOtfsModem(geom, cfg.rw_cp_len, cfg.rw_window_param,
                                       tx_window=cfg.rw_tx_window),
        "dr_ufmc": lambda: FilteredModem(geom, cfg.n, cfg.n_sc_rb, cfg.du_filter_len,
                                         cfg.du_atten_db),
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
    peak_rss_mb: float  # the process's peak RSS so far, or its largest pool worker's
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

_P_BLOCK_BITS = 3
SPECTRAL_CHUNK = 64  # frames a transmit call: bounds the chain's copies, not n_frames


def _active_band_frames(modems: dict, cfg: ExperimentConfig, mask: np.ndarray,
                        mask_block: np.ndarray):
    """Yield (name, tx) per scheme: frame fi in column fi, random symbols on the active bins.

    Frame fi's symbols come from spawn key (_P_BITS, fi), dr_ufmc's per-block
    ones from (_P_BLOCK_BITS, fi). ``tx`` is one Fortran-ordered
    (rx_len, n_frames) array, so the frames back to back are its ravel in F
    order, a view; each scheme's frames are modulated ``SPECTRAL_CHUNK`` at a
    time straight into it, which every map's columnwise work makes bit for bit
    the frames one at a time. The generator keeps no reference to a yielded
    ``tx``: a consumer that drops it frees it before the next scheme's.
    """
    bits_per_sym = int(np.log2(cfg.qam_order))
    chunks = [(lo, min(lo + SPECTRAL_CHUNK, cfg.n_frames))
              for lo in range(0, cfg.n_frames, SPECTRAL_CHUNK)]

    def payload(purpose: int, n_sym: int, lo: int, hi: int) -> np.ndarray:  # (n_sym, hi - lo)
        bits = [rng_for(cfg.seed, purpose, fi).integers(0, 2, size=n_sym * bits_per_sym)
                for fi in range(lo, hi)]
        return qam_map(np.concatenate(bits), cfg.qam_order).reshape(hi - lo, n_sym).T

    # the symbols that the schemes other than dr_ufmc share, drawn once, a chunk at a time
    symbols = np.empty((int(mask.sum()), cfg.n_frames), dtype=complex)
    for lo, hi in chunks if any(name != "dr_ufmc" for name in modems) else ():
        symbols[:, lo:hi] = payload(_P_BITS, len(symbols), lo, hi)

    def chunk(name: str, modem, lo: int, hi: int) -> np.ndarray:
        if name == "dr_ufmc":
            k = int(mask_block.sum())  # active bins a block
            f_blocks = np.zeros((cfg.n, cfg.m, hi - lo), dtype=complex)
            symbols_b = payload(_P_BLOCK_BITS, cfg.n * k, lo, hi)  # (n * k, hi - lo)
            f_blocks[:, mask_block] = symbols_b.reshape(cfg.n, k, -1)
            return modem.tx_from_block_spectra(f_blocks)
        s_f = np.zeros((cfg.n_sc, hi - lo), dtype=complex)
        s_f[mask] = symbols[:, lo:hi]
        return modem.modulate(to_delay_doppler(s_f, modem.geom))

    def stream(name: str, modem) -> np.ndarray:
        tx = np.empty((modem.rx_len, cfg.n_frames), dtype=complex, order="F")
        for lo, hi in chunks:
            tx[:, lo:hi] = chunk(name, modem, lo, hi)
        return tx

    for name, modem in modems.items():
        yield name, stream(name, modem)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_impulse_leakage(cfg: ExperimentConfig, out_dir: Path) -> tuple[dict, dict]:
    modems = build_modems(cfg)
    ch_cfg = channel_config(cfg)
    geom = next(iter(modems.values())).geom
    span = max(m.rx_len for m in modems.values())
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


def _frame_power_sum(tx: np.ndarray, n_fft: int) -> np.ndarray:
    """The sum over tx's columns of |n_fft-point FFT|^2, a block of columns an FFT.

    A block holds as many samples as ``SPECTRAL_CHUNK`` frames of tx, so the
    oversampled FFT adds no more memory than a transmit chunk. The FFT of an
    F-ordered block is F-ordered, so the reduction over its columns adds one
    frame after another, with the running sum in first: bit for bit
    ``sum(abs(fft(x, n_fft)) ** 2 for x in tx.T)``.
    """
    acc, step = 0.0, max(1, SPECTRAL_CHUNK * tx.shape[0] // n_fft)
    for lo in range(0, tx.shape[1], step):
        p = np.abs(np.fft.fft(tx[:, lo:lo + step], n=n_fft, axis=0)) ** 2
        p[:, 0] += acc
        acc = np.add.reduce(p, axis=1)
    return acc


def run_sidelobes(cfg: ExperimentConfig, out_dir: Path) -> tuple[dict, dict]:
    """Half the subbands active (low half of the bin axis), averaged spectra."""
    modems = build_modems(cfg)
    mask = np.arange(cfg.n_sc) < cfg.n_sc // 2
    mask_block = np.arange(cfg.m) < cfg.m // 2
    n_fft = cfg.sidelobe_oversample * cfg.n_sc
    bin_axis = np.arange(n_fft) / cfg.sidelobe_oversample
    summary, paths = {}, {}
    for name, tx in _active_band_frames(modems, cfg, mask, mask_block):
        spec = _frame_power_sum(tx, n_fft)
        del tx  # this scheme's frames are freed before the next scheme's are built
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
    occ_band, off_band = psd_bands(cfg)
    summary, paths = {}, {}
    for name, tx in _active_band_frames(modems, cfg, mask, mask_block):
        x = tx.ravel(order="F")  # the frames back to back, a view
        del tx  # one scheme's stream at a time, as in run_sidelobes
        x /= np.sqrt(np.mean(np.abs(x) ** 2))
        est = psd_welch(x, cfg.bandwidth_hz, segment_len=cfg.psd_segment_len)
        del x
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


# ---- BER sweep and loopback: one frame loop --------------------------------

# The frame loop's BLAS/LAPACK work is the banded Cholesky and its solves, in scipy's
# bundled OpenBLAS, the one copy pinned. Nothing in the loop calls numpy's copy (the QAM
# maps multiply int64 arrays, which numpy does without BLAS), so it keeps its threads.
_OPENBLAS = "scipy.libs/libscipy_openblas-*.so"


@contextlib.contextmanager
def _one_blas_thread(record: dict):
    """Pin scipy's OpenBLAS to one thread, which fork workers inherit, and restore it.

    Left at its default, it keeps a second core busy for no gain even at one
    worker, and a thread per core in each worker oversubscribes the cores.
    An explicit OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, or a missing
    library or symbol, pins nothing. ``record`` gets the library's file and
    threads, and why not pinned.
    """
    why = [f"explicit env {k}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
           if os.environ.get(k)]
    found = sorted(Path(scipy.__file__).parents[1].glob(_OPENBLAS))
    record["scipy"] = {"file": found[0].name if found else None}
    before = None
    try:
        lib = ctypes.CDLL(str(found[0]))
        get, put = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except (IndexError, OSError, AttributeError) as exc:
        why.append(f"scipy: {exc if found else 'no ' + _OPENBLAS}")
    else:
        get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
        if not why:
            before = get()
            put(1)
        record["scipy"]["threads"] = get()
    record["not_pinned"] = "; ".join(why) or None
    try:
        yield
    finally:
        if before is not None:
            put(before)


# glibc's mallopt parameters, the ceilings its dynamic rule reaches on 64-bit
# (DEFAULT_MMAP_THRESHOLD_MAX, and twice that for trimming), and its defaults.
_MALLOPT = (("mmap_threshold", -3, 32 << 20), ("trim_threshold", -1, 64 << 20))
_MALLOPT_DEFAULT = 128 << 10
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
               "GLIBC_TUNABLES")


@contextlib.contextmanager
def _keep_freed_heap(record: dict):
    """Keep the memory a frame frees in the heap, which fork workers inherit; then restore glibc's.

    A frame's detectors allocate and free about 4 MB of arrays. Above glibc's
    default 128 KiB thresholds each is mmapped or trimmed back to the kernel
    and faulted in again by the next frame, about 900 minor faults a frame
    at 64x8. An explicit ``_MALLOC_ENV`` variable, a libc without
    ``mallopt`` or a ``mallopt`` that returns 0 sets nothing. ``record``
    gets each threshold as set, and why not set.
    """
    why = [f"explicit env {k}" for k in _MALLOC_ENV if os.environ.get(k)]
    done = []
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError) as exc:
        why.append(f"no mallopt: {exc}")
    else:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for key, param, value in () if why else _MALLOPT:
        if not mallopt(param, value):
            why.append(f"mallopt({key}, {value}) returned 0")
            break
        done.append(param)
    if why:
        for param in done:
            mallopt(param, _MALLOPT_DEFAULT)
        done = []
    record.update({key: value if done else None for key, _, value in _MALLOPT})
    record["not_set"] = "; ".join(why) or None
    try:
        yield
    finally:
        for param in done:
            mallopt(param, _MALLOPT_DEFAULT)


_WORKER: dict = {}


def _ber_frame(frame_idx: int):
    cfg: ExperimentConfig = _WORKER["cfg"]
    modems = _WORKER["modems"]
    ch_cfg = _WORKER["ch_cfg"]
    k = int(np.log2(cfg.qam_order))
    geom = next(iter(modems.values())).geom
    max_rx = max(m.rx_len for m in modems.values())

    bits = rng_for(cfg.seed, _P_BITS, frame_idx).integers(0, 2, size=cfg.n_sc * k)
    z = zak_modulate(qam_map(bits, cfg.qam_order), geom)  # every modem's delay-time symbols
    ch = chan.generate_channel(ch_cfg, max_rx, seed=seedseq_for(cfg.seed, _P_CHANNEL, frame_idx),
                               delta_nu_hz=geom.delta_nu_hz)
    # a grid of +inf dB only (the loopback) adds no noise: none is drawn or applied
    noisy = any(math.isfinite(snr_db) for snr_db in cfg.snr_grid_db)
    eta = chan.complex_noise(rng_for(cfg.seed, _P_NOISE, frame_idx), max_rx) if noisy else None

    errors = {}
    for name, modem in modems.items():
        try:
            d_hat = modem.detect(ch, z, eta, cfg.snr_grid_db)  # (n_sc, SNR points)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"{name} detector failed: frame {frame_idx}, {exc}") from exc
        _check_finite(f"{name} MMSE output, frame {frame_idx}", d_hat)
        bits_hat = qam_demap(d_hat.T, cfg.qam_order).reshape(len(cfg.snr_grid_db), -1)
        errors[name] = np.sum(bits_hat != bits, axis=1)
    return errors


def _frame_errors(cfg: ExperimentConfig, ch_cfg: chan.ChannelConfig, workers: int,
                  environment: dict | None) -> dict:
    """Run ``_ber_frame`` on every frame: {scheme: bit errors, n_frames x SNR points}.

    ``environment`` receives the BLAS thread record as ``blas`` and the
    malloc threshold record as ``heap``, and, when a pool runs, its size as
    ``workers`` and ``pool_start_method``. The modems are built here, before
    any pool exists, so that a bad scheme parameter raises in the caller;
    forked workers inherit them. A worker that raises or dies ends the loop,
    and the frames not yet started are cancelled.
    """
    env = {} if environment is None else environment
    _WORKER.update(cfg=cfg, modems=build_modems(cfg), ch_cfg=ch_cfg)
    pool = None
    with (_one_blas_thread(env.setdefault("blas", {})),
          _keep_freed_heap(env.setdefault("heap", {}))):
        try:
            if workers > 1:
                # detection imports scipy.linalg at its first call; imported here, once,
                # the forked workers inherit it rather than each importing it again
                import scipy.linalg  # noqa: F401
                env.update(workers=min(workers, cfg.n_frames), pool_start_method="fork")
                pool = ProcessPoolExecutor(env["workers"],
                                           mp_context=multiprocessing.get_context("fork"))
            frames = list((pool.map if pool else map)(_ber_frame, range(cfg.n_frames)))
        finally:
            if pool:
                pool.shutdown(cancel_futures=True)
            _WORKER.clear()
    return {name: np.array([errors[name] for errors in frames]) for name in cfg.schemes}


def run_ber_sweep(cfg: ExperimentConfig, out_dir: Path, workers: int = 1,
                  environment: dict | None = None) -> tuple[dict, dict]:
    """Monte Carlo BER of every scheme; ``environment`` receives the frame loop's records."""
    errors = _frame_errors(cfg, channel_config(cfg), workers, environment)
    n_bits = cfg.n_frames * cfg.n_sc * int(np.log2(cfg.qam_order))
    summary, paths = {}, {}
    for name in cfg.schemes:
        rows = []
        for snr_db, n_err in zip(cfg.snr_grid_db, errors[name].sum(axis=0).tolist()):
            lo, hi = wilson_interval(n_err, n_bits)
            rows.append([snr_db, n_err / n_bits, n_bits, n_err, lo, hi])
        path = out_dir / f"ber_{name}.csv"
        write_csv(path, "ddwave.ber.v1",
                  ["snr_db", "ber", "n_bits", "n_errors", "ci95_lo", "ci95_hi"], rows)
        summary[name] = {"ber": [r[1] for r in rows], "snr_db": list(cfg.snr_grid_db)}
        paths[name] = str(path)
    return summary, paths


def run_loopback(cfg: ExperimentConfig, out_dir: Path, workers: int = 1,
                 environment: dict | None = None) -> tuple[dict, dict]:
    """The BER sweep's frames at +inf dB on a still single path: one error count a frame."""
    still = chan.ChannelConfig(profile="single_path", speed_mps=0.0, bandwidth_hz=cfg.bandwidth_hz)
    errors = _frame_errors(dataclasses.replace(cfg, snr_grid_db=(math.inf,)), still, workers,
                           environment)
    n_bits = cfg.n_sc * int(np.log2(cfg.qam_order))
    summary, paths = {}, {}
    for name, per_frame in errors.items():
        rows = [[fi, n_bits, n_err, n_err / n_bits]
                for fi, n_err in enumerate(per_frame[:, 0].tolist())]
        path = out_dir / f"loopback_{name}.csv"
        write_csv(path, "ddwave.loopback.v1", ["frame", "n_bits", "n_errors", "ber"], rows)
        summary[name] = {"total_errors": int(per_frame.sum())}
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
    tu_dense = oracle_matrix("T_u", g, bank) @ dft_matrix(32)
    rows.append(("ufmc_tu_fast_vs_oracle",
                 float(np.max(np.abs(UfmcOperators(bank).tx - tu_dense))), 1e-10))
    r = rng.normal(size=40) + 1j * rng.normal(size=40)
    ru = oracle_matrix("R_u", g, bank)
    rows.append(("ufmc_ru_fast_vs_oracle",
                 float(np.max(np.abs(full_dft(analysis_fold(bank) @ r) - ru @ r))), 1e-10))
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
    environment = {"python": platform.python_version(), "numpy": np.__version__,
                   "scipy": scipy.__version__, "blas": {}, "heap": {}, "workers": 1,
                   "pool_start_method": None, "cores": len(os.sched_getaffinity(0))}
    frame_loop = {"workers": workers, "environment": environment}
    runners = {
        "loopback": functools.partial(run_loopback, **frame_loop),
        "impulse_leakage": run_impulse_leakage,
        "sidelobes": run_sidelobes,
        "psd": run_psd,
        "ber_sweep": functools.partial(run_ber_sweep, **frame_loop),
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
        peak_rss_mb=max(resource.getrusage(who).ru_maxrss
                        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0,
        environment=environment,
    )
    (out_dir / "report.json").write_text(report.to_json())
    return report
