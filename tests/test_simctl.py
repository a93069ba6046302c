"""Config parsing, experiment dispatch, CSV output, CLI, determinism."""

import ctypes
import dataclasses
import functools
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import tracemalloc
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import ddwave
from ddwave.cli import main as cli_main
from ddwave.config import (
    EXPERIMENTS,
    SCHEMES,
    ChannelSection,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    parse_config,
)
from ddwave.experiments import (
    SPECTRAL_CHUNK,
    NumericalFailure,
    _active_band_frames,
    _frame_power_sum,
    build_modems,
    centered_band_mask,
    run_ber_sweep,
    run_experiment,
    run_psd,
    run_sidelobes,
)


class TestConfigParsing:
    def test_empty_file_gives_full_defaults(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        cfg = parse_config(p)
        assert cfg.experiment == "ber_sweep"
        assert cfg.m == 64 and cfg.n == 8
        assert cfg.bandwidth_hz == 1.92e6
        assert cfg.gf_filter_len == 129
        assert cfg.rw_cp_len == 128
        assert cfg.qam_order == 16
        assert cfg.channel.carrier_hz == 5.9e9
        assert cfg.channel.speed_mps == pytest.approx(500 / 3.6)
        assert cfg.schemes == ("otfs", "gf_otfs", "rw_otfs", "dr_ufmc")

    def test_psd_bandwidth_default(self):
        cfg = config_from_dict({"experiment": "psd"})
        assert cfg.bandwidth_hz == 10e6

    def test_parse_fills_every_default(self):
        for raw in [{}] + [{"experiment": e} for e in EXPERIMENTS]:
            cfg = config_from_dict(raw)
            ch = cfg.channel
            for value in (cfg.cp_len, cfg.gf_filter_len, cfg.rw_cp_len, cfg.rw_tx_window,
                          cfg.bandwidth_hz, cfg.leakage_center,
                          ch.profile, ch.n_taps, ch.doppler_model):
                assert value is not None, raw
            # a null override is a value: a random Doppler shift per tap
            assert (ch.fractional_doppler_override is None) == (
                cfg.experiment != "impulse_leakage")
        assert config_from_dict({"experiment": "impulse_leakage"}).channel == ChannelSection(
            profile="single_path", n_taps=1, doppler_model="single_shift_per_tap",
            fractional_doppler_override=0.5)
        cfg = config_from_dict({})
        assert (cfg.cp_len, cfg.leakage_center, cfg.rw_tx_window) == (4, (32, 4), False)
        assert (cfg.channel.profile, cfg.channel.n_taps, cfg.channel.doppler_model) == (
            "tdl_c", 5, "jakes_sum_of_sinusoids")

    def test_cp_default_covers_the_channel_memory(self):
        # quantized TDL-C delays [0 1 2 3 5]: the CP covers 5 samples, not n_taps - 1 = 4
        cfg = config_from_dict({"channel": {"delay_spread_s": 2e-6}})
        assert cfg.cp_len == 5
        assert config_from_dict({"experiment": "loopback"}).cp_len == 4
        assert config_from_dict({"cp_len": 2, "channel": {"delay_spread_s": 2e-6}}).cp_len == 2
        # the spectral studies send no frame through the channel and keep n_taps - 1
        assert config_from_dict({"experiment": "psd"}).cp_len == 4

    def test_snr_string_expansion(self):
        cfg = config_from_dict({"snr_grid_db": "0:5:40"})
        assert len(cfg.snr_grid_db) == 9
        assert cfg.snr_grid_db[0] == 0.0 and cfg.snr_grid_db[-1] == 40.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="not_a_key"):
            config_from_dict({"not_a_key": 1})

    def test_unknown_channel_key_rejected(self):
        with pytest.raises(ConfigError, match="wat"):
            config_from_dict({"channel": {"wat": 1}})

    def test_divisibility_error_names_fields(self):
        with pytest.raises(ConfigError, match="n_sc_rb"):
            config_from_dict({"m": 64, "n_sc_rb": 7})

    def test_zero_frames_rejected(self):
        with pytest.raises(ConfigError, match="n_frames"):
            config_from_dict({"n_frames": 0})

    def test_empty_snr_grid_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"snr_grid_db": []})

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{ nope }")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(p)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/config.json")

    @pytest.mark.parametrize("raw", [
        # occupied_fraction does not fit the 6-bin blocks, but only psd reads it
        {"m": 6, "n_sc_rb": 3, "gf_filter_len": 9, "du_filter_len": 5},
        # the 3x3 leakage window does not fit n = 2, but only impulse_leakage reads it
        {"m": 8, "n": 2, "n_sc_rb": 4, "gf_filter_len": 5, "du_filter_len": 5},
        # du_filter_len 20 does not fit m = 8, but dr_ufmc does not run
        {"schemes": ["otfs"], "m": 8, "n": 4, "gf_filter_len": 9},
    ])
    def test_grid_fit_checked_only_where_read(self, tmp_path, raw):
        cfg = config_from_dict(raw | {"experiment": "ber_sweep", "n_frames": 1,
                                      "output_dir": str(tmp_path / "out")})
        run_experiment(cfg)
        assert (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("raw,field", [
        ({"experiment": "psd", "m": 6, "n_sc_rb": 3}, "occupied_fraction"),
        ({"experiment": "psd", "schemes": ["otfs"], "m": 8, "n": 4, "n_sc_rb": 3},
         "occupied_fraction"),
        ({"experiment": "impulse_leakage", "m": 8, "n": 2}, "leakage_half_widths"),
        ({"experiment": "impulse_leakage", "m": 8, "n": 4, "leakage_center": [8, 0]},
         "leakage_center"),
        ({"schemes": ["dr_ufmc"], "m": 8, "n": 4, "du_filter_len": 20}, "du_filter_len"),
        ({"schemes": ["dr_ufmc"], "m": 6, "n": 2, "n_sc_rb": 4}, "does not divide m = 6"),
        ({"schemes": ["gf_otfs"], "m": 6, "n": 3, "n_sc_rb": 4}, "does not divide m\\*n = 18"),
        ({"schemes": ["dr_ufmc"], "m": 16, "n": 4, "n_sc_rb": 16, "du_filter_len": 9},
         "n_sc_rb: 16-bin subbands need a dr_ufmc predistortion gain of 589"),
    ])
    def test_grid_fit_checked_for_its_reader(self, raw, field):
        with pytest.raises(ConfigError, match=field):
            config_from_dict({"gf_filter_len": 3, "du_filter_len": 5} | raw)

    def test_hash_stable_and_sensitive(self):
        a = config_from_dict({"seed": 1})
        b = config_from_dict({"seed": 1})
        c = config_from_dict({"seed": 2})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_hash_ignores_output_dir(self):
        a = config_from_dict({"seed": 1, "output_dir": "run-a"})
        b = config_from_dict({"seed": 1, "output_dir": "run-b"})
        c = config_from_dict({"seed": 2, "output_dir": "run-a"})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestMasks:
    def test_centered_half(self):
        mask = centered_band_mask(512, 0.5)
        assert mask.sum() == 256
        assert mask[0] and mask[127] and not mask[128]
        assert mask[384] and not mask[383]

    def test_counts_the_two_symmetric_halves(self):
        # validate_config's psd check counts this mask's bins; on every grid and allowed
        # fraction that count is two halves of round(n_bins * fraction / 2) bins
        for fraction in (0.01, 0.1, 0.25, 1 / 3, 0.375, 0.5, 0.6, 2 / 3):
            for n_bins in range(1, 65):
                assert (np.count_nonzero(centered_band_mask(n_bins, fraction))
                        == 2 * int(round(n_bins * fraction / 2.0))), (n_bins, fraction)


class TestExperiments:
    def small_common(self, tmp_path, **over):
        base = {
            "m": 8, "n": 4, "output_dir": str(tmp_path / "out"),
            "gf_filter_len": 9, "du_filter_len": 5, "rw_cp_len": 8,
        }
        base.update(over)
        return config_from_dict(base)

    def test_loopback_all_schemes_zero_errors(self, tmp_path):
        cfg = self.small_common(
            tmp_path, experiment="loopback", n_frames=3,
            channel={"profile": "single_path", "speed_mps": 0.0})
        rep = run_experiment(cfg)
        for scheme, vals in rep.summary.items():
            assert vals["total_errors"] == 0
        body = (tmp_path / "out" / "loopback_otfs.csv").read_text()
        assert body.splitlines()[0] == "# schema=ddwave.loopback.v1"
        assert body.splitlines()[1] == "frame,n_bits,n_errors,ber"

    def test_report_json_written(self, tmp_path):
        cfg = self.small_common(
            tmp_path, experiment="loopback", n_frames=1,
            channel={"profile": "single_path", "speed_mps": 0.0})
        rep = run_experiment(cfg)
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["config_hash"] == rep.config_hash
        assert data["seed"] == cfg.seed
        assert data["config"]["gf_filter_len"] == 9
        assert "wall_clock_s" in data
        assert data["peak_rss_mb"] > 0

    def test_impulse_leakage_runs(self, tmp_path):
        cfg = self.small_common(
            tmp_path, experiment="impulse_leakage",
            channel={"profile": "single_path", "fractional_doppler_override": 0.5,
                     "n_taps": 1})
        rep = run_experiment(cfg)
        for scheme, vals in rep.summary.items():
            assert np.isfinite(vals["leakage_ratio_db"])

    def test_ber_sweep_determinism_across_runs_and_workers(self, tmp_path):
        schemes = ("otfs", "gf_otfs", "rw_otfs", "dr_ufmc")
        outs = {}
        for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
            cfg = self.small_common(
                tmp_path, experiment="ber_sweep", n_frames=6,
                snr_grid_db=[10.0, 25.0], seed=7,
                output_dir=str(tmp_path / tag))
            run_experiment(cfg, workers=workers)
            outs[tag] = {s: (tmp_path / tag / f"ber_{s}.csv").read_bytes()
                         for s in schemes}
        assert outs["a"] == outs["b"]
        assert outs["a"] == outs["c"]

    def test_ber_csv_schema(self, tmp_path):
        cfg = self.small_common(tmp_path, experiment="ber_sweep", n_frames=2,
                                snr_grid_db=[15.0], schemes=["otfs"])
        run_experiment(cfg)
        lines = (tmp_path / "out" / "ber_otfs.csv").read_text().splitlines()
        assert lines[0] == "# schema=ddwave.ber.v1"
        assert lines[1] == "snr_db,ber,n_bits,n_errors,ci95_lo,ci95_hi"
        fields = lines[2].split(",")
        assert len(fields) == 6
        assert int(fields[2]) == 2 * 32 * 4

    def test_psd_experiment_bands(self, tmp_path):
        cfg = self.small_common(tmp_path, experiment="psd", n_frames=8,
                                psd_segment_len=64)
        rep = run_experiment(cfg)
        assert "bands" in rep.summary
        for scheme in cfg.schemes:
            assert np.isfinite(rep.summary[scheme]["oob_metric_db"])

    def test_plain_otfs_oob_regression_value(self, tmp_path):
        # frozen from the first full-size run; guards the whole PSD pipeline
        cfg = config_from_dict({"experiment": "psd", "n_frames": 40, "seed": 0,
                                "schemes": ["otfs"],
                                "output_dir": str(tmp_path / "out")})
        rep = run_experiment(cfg)
        assert rep.summary["otfs"]["oob_metric_db"] == pytest.approx(-27.01, abs=0.5)

    def test_frame_draws_independent_of_scheme_set(self, tmp_path):
        # common random numbers: a scheme's results cannot depend on which
        # other schemes run alongside it
        base = {"experiment": "ber_sweep", "m": 8, "n": 4, "n_frames": 6,
                "gf_filter_len": 9, "du_filter_len": 5, "rw_cp_len": 8,
                "snr_grid_db": [12.0], "seed": 3}
        cfg_solo = config_from_dict(base | {"schemes": ["otfs"],
                                            "output_dir": str(tmp_path / "solo")})
        cfg_all = config_from_dict(base | {"output_dir": str(tmp_path / "all")})
        run_experiment(cfg_solo)
        run_experiment(cfg_all)
        solo = (tmp_path / "solo" / "ber_otfs.csv").read_bytes()
        together = (tmp_path / "all" / "ber_otfs.csv").read_bytes()
        assert solo == together

    def test_sidelobes_experiment(self, tmp_path):
        cfg = self.small_common(tmp_path, experiment="sidelobes", n_frames=3,
                                schemes=["otfs", "gf_otfs"])
        rep = run_experiment(cfg)
        assert rep.summary["gf_otfs"]["stopband_mean_db"] < \
            rep.summary["otfs"]["stopband_mean_db"]

    def test_oracle_suite_experiment(self, tmp_path):
        cfg = self.small_common(tmp_path, experiment="oracle_suite")
        rep = run_experiment(cfg)
        assert rep.summary["n_failed"] == 0

    @pytest.mark.parametrize("study", [run_psd, run_sidelobes])
    def test_spectral_memory_grows_by_one_stream_a_frame(self, tmp_path, study):
        # each study holds one scheme's (rx_len, n_frames) stream and the shared payload
        # symbols: under 2.5 streams a frame, where a copy per map would add about five
        peaks = []
        for n_frames in (2000, 4000):
            cfg = self.small_common(tmp_path, experiment="psd", n_frames=n_frames,
                                    psd_segment_len=64)
            tracemalloc.start()
            try:
                study(cfg, tmp_path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        stream_bytes = max(m.rx_len for m in build_modems(cfg).values()) * 16
        assert (peaks[1] - peaks[0]) / 2000 < 2.5 * stream_bytes, peaks

    def test_spectral_frames_are_one_f_ordered_stream(self, tmp_path):
        # 150 frames: two full transmit chunks and a short one, each frame its column, so
        # that the frames back to back are a view (tests/test_replay.py pins the values)
        cfg = self.small_common(tmp_path, experiment="psd", n_frames=150)
        assert cfg.n_frames % SPECTRAL_CHUNK and cfg.n_frames > 2 * SPECTRAL_CHUNK
        modems = build_modems(cfg)
        mask = centered_band_mask(cfg.n_sc, cfg.occupied_fraction)
        mask_block = centered_band_mask(cfg.m, cfg.occupied_fraction)
        for name, tx in _active_band_frames(modems, cfg, mask, mask_block):
            assert tx.shape == (modems[name].rx_len, cfg.n_frames) and tx.flags.f_contiguous
            assert np.shares_memory(tx.ravel(order="F"), tx)

    def test_sidelobe_spectrum_is_the_frame_by_frame_sum_bit_for_bit(self, tmp_path):
        # one FFT a block of frames, the running sum added in first: the frames still add
        # one after another, so the sidelobe CSVs keep their bytes
        cfg = self.small_common(tmp_path, experiment="sidelobes",
                                n_frames=2 * SPECTRAL_CHUNK + 3)
        modems = build_modems(cfg)
        mask = np.arange(cfg.n_sc) < cfg.n_sc // 2
        mask_block = np.arange(cfg.m) < cfg.m // 2
        n_fft = cfg.sidelobe_oversample * cfg.n_sc
        for name, tx in _active_band_frames(modems, cfg, mask, mask_block):
            frame_by_frame = sum(np.abs(np.fft.fft(x, n=n_fft)) ** 2 for x in tx.T)
            assert np.array_equal(_frame_power_sum(tx, n_fft), frame_by_frame), name

    def test_loopback_draws_no_noise(self, tmp_path, monkeypatch):
        import ddwave.experiments as exp_mod
        from ddwave.scfdma import Modem

        def no_noise(*args):
            raise AssertionError("noise drawn at +inf dB")
        monkeypatch.setattr(exp_mod.chan, "complex_noise", no_noise)
        real_detect, etas = Modem.detect, []

        def recording_detect(self, ch, z, eta, snr_grid_db):
            etas.append(eta)
            return real_detect(self, ch, z, eta, snr_grid_db)
        monkeypatch.setattr(Modem, "detect", recording_detect)
        cfg = self.small_common(tmp_path, experiment="loopback", n_frames=2)
        assert all(v["total_errors"] == 0 for v in run_experiment(cfg).summary.values())
        # and applies none: every detector solves the noiseless signal
        assert etas and all(eta is None for eta in etas)


_DYING_FRAME = """
import os
import sys
from pathlib import Path

import ddwave.experiments as exp
from ddwave.cli import main
from ddwave.config import config_from_dict

real_frame = exp._ber_frame


def dying_frame(frame_idx):
    if frame_idx == 1:
        os._exit(1)
    return real_frame(frame_idx)


exp._ber_frame = dying_frame
"""
_SMALL_SWEEP = {"m": 8, "n": 4, "gf_filter_len": 9, "du_filter_len": 5, "n_frames": 4,
                "snr_grid_db": [10.0]}


def _run_in_own_session(script: str, *args: str, env: dict | None = None):
    """Run ``script`` with ddwave and the tests on its path, in a session of its own
    so that a hang is killed together with any pool workers."""
    path = [str(Path(ddwave.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    cmd = [sys.executable, "-c", script, *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=(env or os.environ) | {"PYTHONPATH": os.pathsep.join(path)},
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("subprocess still running after 60 s")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def test_import_leaves_out_scipy_signal_and_stats():
    # scipy.signal brings scipy.stats: about 0.8 s and 40 MB on every start
    proc = _run_in_own_session(
        "import sys, ddwave.cli, ddwave.config, ddwave.experiments\n"
        "print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])")
    assert proc.stdout.strip() == "[]", proc.stderr


class TestBerWorkers:
    def test_dying_worker_ends_the_run(self, tmp_path):
        # a pool that waits for the lost frame would hang the sweep
        proc = _run_in_own_session(_DYING_FRAME + f"""
cfg = config_from_dict({_SMALL_SWEEP!r})
try:
    exp.run_ber_sweep(cfg, Path(sys.argv[1]), workers=2)
except Exception as exc:
    print(type(exc).__name__)
""", str(tmp_path))
        assert proc.stdout.strip() == "BrokenProcessPool", proc.stderr

    def test_dying_worker_exits_four(self, tmp_path):
        # exit 1 is reserved for oracle failures
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(_SMALL_SWEEP | {"output_dir": str(tmp_path / "out")}))
        proc = _run_in_own_session(
            _DYING_FRAME + "sys.exit(main(['run', sys.argv[1], '--workers', '2']))",
            str(cfgfile))
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("worker failure:")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_pool_no_larger_than_the_frame_count(self, tmp_path, monkeypatch):
        # the fork pool starts all its processes at the first submit
        import ddwave.experiments as exp_mod
        sizes = []

        def recording_pool(max_workers, **kwargs):
            sizes.append(max_workers)
            return ProcessPoolExecutor(max_workers, **kwargs)
        monkeypatch.setattr(exp_mod, "ProcessPoolExecutor", recording_pool)
        cfg = config_from_dict(_SMALL_SWEEP | {"n_frames": 2, "schemes": ["otfs"]})
        env = {}
        run_ber_sweep(cfg, tmp_path, workers=8, environment=env)
        assert sizes == [2]
        # the frame loop records the pool it started, a direct call as much as run_experiment
        assert (env["workers"], env["pool_start_method"]) == (2, "fork")

    @pytest.mark.parametrize("experiment", ["ber_sweep", "loopback", "psd"])
    def test_report_records_the_processes_that_ran(self, tmp_path, experiment):
        # both link-level studies run the one frame loop, pooled and pinned alike; psd
        # runs in one process whatever --workers asks for
        frame_loop, csvs = experiment != "psd", {}
        frames = {"n_frames": 2} if frame_loop else {"n_frames": 8, "psd_segment_len": 64}
        for workers in (1, 2, 8) if frame_loop else (2,):
            out = tmp_path / str(workers)
            cfg = config_from_dict(_SMALL_SWEEP | frames | {"experiment": experiment,
                                                            "schemes": ["otfs"],
                                                            "output_dir": str(out)})
            env = run_experiment(cfg, workers=workers).environment
            assert (env["workers"], env["pool_start_method"]) == (
                (2, "fork") if frame_loop and workers > 1 else (1, None))
            assert ("scipy" in env["blas"], "not_set" in env["heap"]) == (frame_loop,) * 2
            csvs[workers] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        if frame_loop:
            assert len(csvs[1]) == 1
            assert csvs[1] == csvs[2] == csvs[8]

    def test_scheme_error_raises_before_any_pool(self, tmp_path, monkeypatch):
        # a pool initializer that raises makes the pool respawn workers
        # forever, so the modems must fail in the caller first
        import ddwave.experiments as exp_mod

        def no_pool(method):
            raise AssertionError("a worker pool was started")
        monkeypatch.setattr(exp_mod.multiprocessing, "get_context", no_pool)
        cfg = config_from_dict({"m": 8, "n": 4, "gf_filter_len": 9, "du_filter_len": 5,
                                "n_frames": 2, "snr_grid_db": [10.0]})
        cfg = dataclasses.replace(cfg, gf_atten_db=-5.0)  # bypasses config_from_dict's checks
        with pytest.raises(ValueError):
            run_ber_sweep(cfg, tmp_path, workers=2)


@functools.cache
def _openblas_calls(op: str) -> dict:
    """numpy's and scipy's bundled OpenBLAS ``scipy_openblas_{op}_num_threads``.

    Looked up once, so a test may move ``numpy.__file__`` and still read both.
    """
    calls = {}
    for module, pattern, suffix in ((np, "numpy.libs/libscipy_openblas64_*.so", "64_"),
                                    (scipy, "scipy.libs/libscipy_openblas-*.so", "")):
        found = sorted(Path(module.__file__).parents[1].glob(pattern))
        if not found:
            pytest.skip(f"{module.__name__} bundles no OpenBLAS")
        fn = getattr(ctypes.CDLL(str(found[0])), f"scipy_openblas_{op}_num_threads{suffix}")
        fn.argtypes, fn.restype = ([], ctypes.c_int) if op == "get" else ([ctypes.c_int], None)
        calls[module.__name__] = fn
    return calls


def _blas_threads() -> dict:
    return {name: get() for name, get in _openblas_calls("get").items()}


_FORK_WORKER_THREADS = """
import json
import os
import sys
from pathlib import Path

import numpy as np
import ddwave.experiments as exp
from ddwave.config import config_from_dict
from test_simctl import _blas_threads, _openblas_calls

for put in _openblas_calls("set").values():
    put(2)
out = Path(sys.argv[1])


def reporting_frame(frame_idx):
    (out / f"frame{frame_idx}.json").write_text(json.dumps([os.getpid(), _blas_threads()]))
    return {"otfs": np.zeros(1, dtype=np.int64)}


exp._ber_frame = reporting_frame
cfg = config_from_dict(json.loads(sys.argv[2]))
exp.run_ber_sweep(cfg, out, workers=2)
print(json.dumps([os.getpid(), _blas_threads()]))
"""


class TestBlasThreads:
    """The frame loop runs scipy's bundled OpenBLAS, the one it calls, on one thread and
    restores it; numpy's keeps its thread count."""

    @pytest.fixture
    def two_threads(self, monkeypatch):
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(key, raising=False)
        before = _blas_threads()
        puts = _openblas_calls("set")
        for put in puts.values():
            put(2)
        yield
        for name, put in puts.items():
            put(before[name])

    def sweep(self, tmp_path):
        return config_from_dict(_SMALL_SWEEP | {"n_frames": 2,
                                                "output_dir": str(tmp_path / "out")})

    def recorded_sweep(self, tmp_path, monkeypatch, environment):
        """Run the sweep in process: the BLAS threads each frame ran with."""
        import ddwave.experiments as exp_mod
        real_frame, seen = exp_mod._ber_frame, []

        def recording_frame(frame_idx):
            seen.append(_blas_threads())
            return real_frame(frame_idx)
        monkeypatch.setattr(exp_mod, "_ber_frame", recording_frame)
        run_ber_sweep(self.sweep(tmp_path), tmp_path, environment=environment)
        return seen

    def test_pinned_during_the_sweep_and_restored_after(self, tmp_path, monkeypatch,
                                                        two_threads):
        import ddwave.experiments as exp_mod
        real_frame, seen = exp_mod._ber_frame, []

        def recording_frame(frame_idx):
            seen.append(_blas_threads())
            return real_frame(frame_idx)
        monkeypatch.setattr(exp_mod, "_ber_frame", recording_frame)
        report = run_experiment(self.sweep(tmp_path))
        # nothing in the frame loop calls numpy's copy: it keeps its count
        assert seen == [{"numpy": 2, "scipy": 1}] * 2
        assert _blas_threads() == {"numpy": 2, "scipy": 2}
        blas = report.environment["blas"]
        assert blas["not_pinned"] is None
        assert blas["scipy"]["threads"] == 1
        assert set(blas) == {"scipy", "not_pinned"}

    def test_a_numpy_without_openblas_still_pins_scipy(self, tmp_path, monkeypatch,
                                                        two_threads):
        # a numpy built against another BLAS, or none: scipy's pin does not depend on it
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        env = {}
        assert self.recorded_sweep(tmp_path, monkeypatch, env) == [{"numpy": 2, "scipy": 1}] * 2
        assert env["blas"]["not_pinned"] is None
        assert _blas_threads() == {"numpy": 2, "scipy": 2}

    def test_restored_after_a_failing_frame(self, tmp_path, monkeypatch, two_threads):
        import ddwave.experiments as exp_mod

        def failing_frame(frame_idx):
            raise NumericalFailure("synthetic")
        monkeypatch.setattr(exp_mod, "_ber_frame", failing_frame)
        with pytest.raises(NumericalFailure):
            run_ber_sweep(self.sweep(tmp_path), tmp_path)
        assert _blas_threads() == {"numpy": 2, "scipy": 2}

    def test_fork_workers_inherit_one_thread(self, tmp_path):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        raw = json.dumps(_SMALL_SWEEP | {"schemes": ["otfs"]})
        proc = _run_in_own_session(_FORK_WORKER_THREADS, str(tmp_path), raw, env=env)
        assert proc.returncode == 0, proc.stderr
        parent_pid, after = json.loads(proc.stdout.strip().splitlines()[-1])
        frames = [json.loads((tmp_path / f"frame{i}.json").read_text()) for i in range(4)]
        assert all(pid != parent_pid for pid, _ in frames)
        assert [threads for _, threads in frames] == [{"numpy": 2, "scipy": 1}] * 4
        assert after == {"numpy": 2, "scipy": 2}

    def test_explicit_env_is_honoured(self, tmp_path):
        script = """
import json, sys
from ddwave.config import config_from_dict
from ddwave.experiments import run_experiment
from test_simctl import _blas_threads
before = _blas_threads()
report = run_experiment(config_from_dict(json.loads(sys.argv[1])))
print(json.dumps([before, report.environment]))
"""
        raw = json.dumps(_SMALL_SWEEP | {"n_frames": 1, "output_dir": str(tmp_path / "out")})
        proc = _run_in_own_session(script, raw, env=os.environ | {"OPENBLAS_NUM_THREADS": "2"})
        assert proc.returncode == 0, proc.stderr
        before, env = json.loads(proc.stdout.strip().splitlines()[-1])
        assert env["blas"]["not_pinned"] == "explicit env OPENBLAS_NUM_THREADS"
        assert env["blas"]["scipy"]["threads"] == before["scipy"]
        assert (env["workers"], env["pool_start_method"]) == (1, None)
        assert env["cores"] == len(os.sched_getaffinity(0))

    def test_missing_library_or_symbol_pins_nothing(self, tmp_path, monkeypatch, two_threads):
        real_file, real_cdll = scipy.__file__, ctypes.CDLL
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
        env = {}
        assert self.recorded_sweep(tmp_path, monkeypatch, env) == [{"numpy": 2, "scipy": 2}] * 2
        assert env["blas"] == {"scipy": {"file": None},
                               "not_pinned": "scipy: no scipy.libs/libscipy_openblas-*.so"}
        # an OpenBLAS without scipy_openblas's thread calls
        monkeypatch.setattr(scipy, "__file__", real_file)
        monkeypatch.setattr(ctypes, "CDLL", lambda name, *args, **kwargs: (
            types.SimpleNamespace() if "libscipy_openblas-" in str(name)
            else real_cdll(name, *args, **kwargs)))
        env = {}
        assert self.recorded_sweep(tmp_path, monkeypatch, env) == [{"numpy": 2, "scipy": 2}] * 2
        assert env["blas"]["scipy"]["file"].startswith("libscipy_openblas-")
        assert "scipy_openblas_get_num_threads" in env["blas"]["not_pinned"]

    def test_psd_leaves_the_threads_alone(self, tmp_path, monkeypatch, two_threads):
        import ddwave.experiments as exp_mod
        real_welch, seen = exp_mod.psd_welch, []

        def recording_welch(*args, **kwargs):
            seen.append(_blas_threads())
            return real_welch(*args, **kwargs)
        monkeypatch.setattr(exp_mod, "psd_welch", recording_welch)
        cfg = config_from_dict({"experiment": "psd", "m": 8, "n": 4, "n_frames": 8,
                                "psd_segment_len": 64, "gf_filter_len": 9,
                                "du_filter_len": 5, "output_dir": str(tmp_path / "out")})
        report = run_experiment(cfg)
        assert seen and all(threads == {"numpy": 2, "scipy": 2} for threads in seen)
        assert report.environment["blas"] == {}


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
               "GLIBC_TUNABLES")
_HEAP_SET = {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20, "not_set": None}
_MALLOPT_SET = [(_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20)]
_MALLOPT_RESTORED = [(_M_MMAP_THRESHOLD, 128 << 10), (_M_TRIM_THRESHOLD, 128 << 10)]


class TestHeapThresholds:
    """The frame loop keeps the memory it frees in the heap, and restores glibc's thresholds."""

    class FakeLibc:
        """``ctypes.CDLL(None)``: a ``mallopt`` that records its calls and returns ``returns``."""

        def __init__(self, returns=()):
            self.calls, returns = [], list(returns)

            def mallopt(param, value):
                self.calls.append((param, value))
                return returns.pop(0) if returns else 1
            self.mallopt = mallopt

    @pytest.fixture
    def libc(self, monkeypatch):
        for key in _MALLOC_ENV:
            monkeypatch.delenv(key, raising=False)
        fake, real_cdll = self.FakeLibc(), ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda name, *args, **kwargs: (
            fake if name is None else real_cdll(name, *args, **kwargs)))
        return fake

    def sweep(self, tmp_path, **fields):
        return config_from_dict(_SMALL_SWEEP | {"n_frames": 2,
                                                "output_dir": str(tmp_path / "out")} | fields)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
    def test_a_warm_64x8_frame_takes_no_page_faults(self, tmp_path, monkeypatch):
        # about 900 minor faults a frame with glibc's default thresholds
        import ddwave.experiments as exp_mod
        for key in _MALLOC_ENV:
            monkeypatch.delenv(key, raising=False)
        real_frame, faults = exp_mod._ber_frame, []

        def counting_frame(frame_idx):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            errors = real_frame(frame_idx)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            return errors
        monkeypatch.setattr(exp_mod, "_ber_frame", counting_frame)
        cfg = config_from_dict({"n_frames": 12, "snr_grid_db": [20.0, 30.0, 40.0],
                                "output_dir": str(tmp_path / "out")})
        report = run_experiment(cfg)
        assert report.environment["heap"] == _HEAP_SET
        warm = faults[2:]
        assert sum(warm) / len(warm) < 50, faults

    @pytest.mark.parametrize("experiment", ["ber_sweep", "loopback"])
    def test_set_during_the_frames_and_restored_after(self, tmp_path, monkeypatch, libc,
                                                      experiment):
        import ddwave.experiments as exp_mod
        real_frame, seen = exp_mod._ber_frame, []

        def recording_frame(frame_idx):
            seen.append(list(libc.calls))
            return real_frame(frame_idx)
        monkeypatch.setattr(exp_mod, "_ber_frame", recording_frame)
        report = run_experiment(self.sweep(tmp_path, experiment=experiment))
        assert seen == [_MALLOPT_SET] * 2
        assert libc.calls == _MALLOPT_SET + _MALLOPT_RESTORED
        assert report.environment["heap"] == _HEAP_SET

    def test_restored_after_a_failing_frame(self, tmp_path, capsys, monkeypatch, libc):
        import ddwave.experiments as exp_mod

        def failing_frame(frame_idx):
            raise NumericalFailure("synthetic")
        monkeypatch.setattr(exp_mod, "_ber_frame", failing_frame)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(_SMALL_SWEEP | {"output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", str(cfgfile)]) == 3
        assert "synthetic" in capsys.readouterr().err
        assert libc.calls == _MALLOPT_SET + _MALLOPT_RESTORED

    @pytest.mark.parametrize("key", _MALLOC_ENV)
    def test_explicit_env_sets_nothing(self, tmp_path, monkeypatch, libc, key):
        monkeypatch.setenv(key, "glibc.malloc.trim_threshold=0" if key == "GLIBC_TUNABLES"
                           else "0")
        env = {}
        run_ber_sweep(self.sweep(tmp_path), tmp_path, environment=env)
        heap = env["heap"]
        assert libc.calls == []
        assert heap == {"mmap_threshold": None, "trim_threshold": None,
                        "not_set": f"explicit env {key}"}

    def test_a_libc_without_mallopt_sets_nothing(self, tmp_path, libc):
        del libc.mallopt
        env = {}
        run_ber_sweep(self.sweep(tmp_path), tmp_path, environment=env)
        heap = env["heap"]
        assert heap["mmap_threshold"] is heap["trim_threshold"] is None
        assert heap["not_set"].startswith("no mallopt: ")

    def test_a_refused_threshold_sets_nothing(self, tmp_path, libc):
        # the first threshold took, the second did not: the first is put back at once
        libc.__init__(returns=[1, 0])
        env = {}
        run_ber_sweep(self.sweep(tmp_path), tmp_path, environment=env)
        heap = env["heap"]
        assert libc.calls == _MALLOPT_SET + _MALLOPT_RESTORED[:1]
        assert heap == {"mmap_threshold": None, "trim_threshold": None,
                        "not_set": f"mallopt(trim_threshold, {64 << 20}) returned 0"}

    def test_psd_leaves_the_heap_alone(self, tmp_path, libc):
        cfg = config_from_dict({"experiment": "psd", "m": 8, "n": 4, "n_frames": 8,
                                "psd_segment_len": 64, "gf_filter_len": 9,
                                "du_filter_len": 5, "output_dir": str(tmp_path / "out")})
        assert run_experiment(cfg).environment["heap"] == {}
        assert libc.calls == []


class TestBuildModems:
    def test_registry_covers_all_schemes(self):
        cfg = config_from_dict({"m": 8, "n": 4, "gf_filter_len": 9,
                                "du_filter_len": 5})
        modems = build_modems(cfg)
        assert set(modems) == {"otfs", "gf_otfs", "rw_otfs", "dr_ufmc"}
        assert modems["otfs"].rx_len == 32 + 4
        assert modems["rw_otfs"].rx_len == 32 + 8
        assert modems["gf_otfs"].rx_len == 32 + 8
        assert modems["dr_ufmc"].rx_len == 32 + 4

    def test_all_schemes_share_one_geometry(self):
        cfg = config_from_dict({"m": 8, "n": 4, "gf_filter_len": 9,
                                "du_filter_len": 5})
        geoms = [m.geom for m in build_modems(cfg).values()]
        assert len(geoms) == 4
        assert all(g is geoms[0] for g in geoms)


class TestCli:
    def test_run_and_exit_zero(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "experiment": "loopback", "m": 8, "n": 4, "n_frames": 1,
            "gf_filter_len": 9, "du_filter_len": 5,
            "channel": {"profile": "single_path", "speed_mps": 0.0},
            "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", str(cfgfile)]) == 0
        out = capsys.readouterr().out
        assert "loopback" in out

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({"m": 64, "n_sc_rb": 7}))
        assert cli_main(["run", str(cfgfile)]) == 2
        assert "n_sc_rb" in capsys.readouterr().err

    @pytest.mark.parametrize("override,field", [
        ({"gf_atten_db": -5}, "gf_atten_db"),
        ({"du_atten_db": 0}, "du_atten_db"),
        ({"seed": -1}, "seed"),
        ({"rw_window_param": -5}, "rw_window_param"),
        ({"seed": True}, "seed"),
        ({"m": "64"}, "m:"),
        ({"leakage_half_widths": ["a", 1]}, "leakage_half_widths"),
        ({"leakage_half_widths": [-1, 0]}, "leakage_half_widths"),
        ({"channel": {"n_taps": True}}, "channel.n_taps"),
        ({"output_dir": 5}, "output_dir"),
        ({"rw_tx_window": "yes"}, "rw_tx_window"),
        ({"snr_grid_db": [float("nan")]}, "snr_grid_db"),
        ({"snr_grid_db": [10.0, float("inf")]}, "snr_grid_db"),
        ({"snr_grid_db": "0:inf:5"}, "snr_grid_db"),
        ({"channel": {"delay_spread_s": 1e-3}}, "channel.delay_spread_s"),
        ({"channel": {"n_taps": 30}}, "channel.n_taps"),
        ({"schemes": ["otfs", "otfs"]}, "schemes"),
        ({"channel": {"carrier_hz": -1.0}}, "channel.carrier_hz"),
        ({"cp_len": -1}, "cp_len"),
        ({"rw_cp_len": 33}, "rw_cp_len"),
        ({"experiment": "sidelobes", "m": 8, "n": 1, "n_sc_rb": 4, "n_frames": 2,
          "du_filter_len": 5, "gf_filter_len": 3, "rw_cp_len": 2,
          "leakage_half_widths": [0, 0]}, "n_sc_rb"),
        ({"experiment": "psd", "m": 8, "n": 4, "n_frames": 1, "du_filter_len": 5,
          "gf_filter_len": 9}, "psd_segment_len"),
        ({"experiment": "psd", "m": 128, "n": 4, "occupied_fraction": 0.03125,
          "psd_segment_len": 64, "n_frames": 4}, "psd_segment_len"),
        ({"leakage_fractional_doppler": 0.5}, "leakage_fractional_doppler"),
        ({"rw_window_kind": "raised_cosine"}, "rw_window_kind"),
        ({"gf_atten_db": 1e6}, "gf_atten_db"),
        ({"du_atten_db": 1e6}, "du_atten_db"),
        ({"rw_window_param": 1e6}, "rw_window_param"),
        ({"snr_grid_db": [-5000]}, "snr_grid_db"),
        ({"experiment": "loopback", "m": 64, "n": 8, "rw_window_param": 1000, "n_frames": 3,
          "schemes": ["rw_otfs"]}, "rw_window_param"),
        ({"n": 75140865}, "m * n"),
        ({"snr_grid_db": [180.0]}, "snr_grid_db"),
        ({"m": 64, "n": 128}, "m * n"),
        # gf_otfs's 16-bin bank in subbands of 8 needs a predistortion gain of 12.3
        ({"n": 2, "n_sc_rb": 8}, "n_sc_rb: 8-bin subbands need a gf_otfs predistortion gain"),
        # a defaulted cp_len follows the channel, so the channel's own error is the one named:
        # 30 taps on an 8x2 grid (cp_len would default to 29), and the default 5-sample
        # channel memory on a 2x1 grid (cp_len would default to 4)
        ({"m": 8, "n": 2, "n_sc_rb": 2, "gf_filter_len": 5, "du_filter_len": 3,
          "channel": {"n_taps": 30}}, "channel.n_taps: n_taps=30 exceeds"),
        ({"m": 2, "n": 1, "n_sc_rb": 1, "gf_filter_len": 1, "du_filter_len": 1},
         "channel.delay_spread_s: 3e-07 s gives a channel memory of 5 samples"),
        # Doppler shifts past half the sample rate, where the sampled tap gains alias
        ({"channel": {"speed_mps": 1e308}}, "channel.speed_mps"),
        ({"channel": {"carrier_hz": 1e308, "speed_mps": 10}}, "channel.speed_mps"),
        ({"experiment": "impulse_leakage", "channel": {"fractional_doppler_override": 1e308}},
         "channel.fractional_doppler_override"),
        ({"channel": {"speed_mps": -100}}, "channel.speed_mps"),
        # a step below half an ulp of the grid never moves it
        ({"snr_grid_db": "1e16:1:1e16"}, "snr_grid_db"),
        # 2^45 spectrum bins, past the 2^20 bound; allocating their axis used to fail
        ({"experiment": "sidelobes", "m": 8, "n": 4, "gf_filter_len": 9, "du_filter_len": 5,
          "n_frames": 2, "sidelobe_oversample": 2 ** 40}, "sidelobe_oversample"),
    ])
    def test_out_of_range_config_exit_two(self, tmp_path, capsys, override, field):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({
            "experiment": "ber_sweep", "m": 8, "n": 4, "n_frames": 1,
            "gf_filter_len": 9, "du_filter_len": 5, "snr_grid_db": [10.0],
            "output_dir": str(tmp_path / "out")} | override))
        assert cli_main(["run", str(cfgfile)]) == 2
        assert field in capsys.readouterr().err

    def test_cp_schemes_run_at_m_times_n_2_to_the_14(self, tmp_path):
        # the 2^12 cap binds only with gf_otfs or dr_ufmc: dr_ufmc's detector band grows to
        # about 2m rows by m*n columns, while the CP schemes' stays 2 tau_max rows
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "experiment": "ber_sweep", "m": 128, "n": 128, "n_frames": 1, "schemes": ["otfs"],
            "snr_grid_db": [20.0], "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", str(cfgfile)]) == 0

    def test_largest_accepted_window_decodes_the_loopback(self, tmp_path):
        # the largest accepted attenuation is -20 log10(2 * 512 * eps) = 252.9 dB; scan down to it
        raw = {"experiment": "loopback", "n_frames": 3, "schemes": ["rw_otfs"], "seed": 5,
               "output_dir": str(tmp_path)}

        def accepted(at):
            try:
                return config_from_dict(raw | {"rw_window_param": float(at)})
            except ConfigError:
                return None
        cfg = next(c for c in map(accepted, np.arange(1000.0, 0.0, -0.5)) if c is not None)
        assert cfg.rw_window_param == np.floor(-40 * np.log10(2 * 512 * np.finfo(float).eps)) / 2
        assert run_experiment(cfg).summary["rw_otfs"]["total_errors"] == 0

    @pytest.mark.parametrize("content", [
        pytest.param(None, id="directory"),
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(b"[" * 200_000, id="nested-too-deep"),
    ])
    def test_unreadable_config_exit_two(self, tmp_path, capsys, content):
        cfgfile = tmp_path / "cfg.json"
        if content is None:
            cfgfile.mkdir()
        else:
            cfgfile.write_bytes(content)
        assert cli_main(["run", str(cfgfile)]) == 2
        assert str(cfgfile) in capsys.readouterr().err

    def test_out_onto_a_regular_file_exit_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("{}")
        (tmp_path / "taken").write_text("")
        assert cli_main(["run", str(cfgfile), "--out", str(tmp_path / "taken")]) == 2
        assert "output_dir" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_two(self, tmp_path, capsys, workers):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(_SMALL_SWEEP | {"output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", str(cfgfile), "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_snr_string_with_too_many_points_rejected(self):
        with pytest.raises(ConfigError, match="snr_grid_db"):
            config_from_dict({"snr_grid_db": "0:1e-6:1"})

    def test_numerical_failure_exit_three(self, tmp_path, capsys, monkeypatch):
        import ddwave.cli as cli_mod
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"output_dir": str(tmp_path / "out")}))

        def boom(cfg, workers=1):
            raise NumericalFailure("synthetic NaN")
        monkeypatch.setattr(cli_mod, "run_experiment", boom)
        assert cli_main(["run", str(cfgfile)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,snr", [("ber_sweep", "12.5"), ("loopback", "inf")],
                             ids=["ber_sweep", "loopback"])
    def test_a_failed_ber_solve_exits_three(self, tmp_path, capsys, monkeypatch, experiment,
                                            snr):
        # the loopback is the sweep's frame loop at +inf dB; the factorization under
        # Modem.detect fails, so the SNR point in the message is the one it failed at
        import scipy.linalg

        def failed_factor(*args, **kwargs):
            raise np.linalg.LinAlgError("leading minor not positive definite")
        monkeypatch.setattr(scipy.linalg, "cholesky_banded", failed_factor)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(_SMALL_SWEEP | {"experiment": experiment,
                                                      "schemes": ["rw_otfs"],
                                                      "snr_grid_db": [12.5],
                                                      "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", str(cfgfile)]) == 3
        assert f"rw_otfs detector failed: frame 0, {snr} dB" in capsys.readouterr().err

    def test_gf_otfs_at_1024_bins_converges(self, tmp_path):
        # 16 x 64 frames at 40 dB, with gf_otfs's band of 35 rows in its residue order
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "m": 16, "n": 64, "gf_filter_len": 9, "snr_grid_db": [40.0], "n_frames": 2,
            "schemes": ["gf_otfs"], "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", str(cfgfile)]) == 0

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_nan_in_a_ber_solve_exits_three(self, tmp_path, capsys, monkeypatch, workers):
        # every scheme detects through Modem.detect
        from ddwave.scfdma import Modem

        def nan_detect(self, ch, z, eta, snr_grid_db):
            return np.full((len(z), len(snr_grid_db)), np.nan, dtype=complex)
        monkeypatch.setattr(Modem, "detect", nan_detect)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "m": 8, "n": 4, "n_frames": 3, "gf_filter_len": 9, "du_filter_len": 5,
            "snr_grid_db": [10.0], "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", str(cfgfile), "--workers", workers]) == 3
        assert "non-finite values in otfs MMSE output, frame 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("experiment,what", [
        ("psd", "gf_otfs psd"), ("sidelobes", "gf_otfs sidelobe spectrum")])
    def test_nan_in_a_spectral_transmit_exits_three(self, tmp_path, capsys, monkeypatch,
                                                    experiment, what):
        import ddwave.experiments as exp_mod
        real_frames = exp_mod._active_band_frames

        def nan_frames(*args):
            for name, tx in real_frames(*args):
                if name == "gf_otfs":
                    tx[0] = np.nan  # the first sample of every frame
                yield name, tx
        monkeypatch.setattr(exp_mod, "_active_band_frames", nan_frames)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "experiment": experiment, "m": 8, "n": 4, "n_frames": 4, "psd_segment_len": 64,
            "gf_filter_len": 9, "du_filter_len": 5, "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", str(cfgfile)]) == 3
        assert f"non-finite values in {what}" in capsys.readouterr().err

    def test_failing_oracle_suite_exits_one(self, tmp_path, capsys, monkeypatch):
        import ddwave.experiments as exp_mod
        monkeypatch.setattr(exp_mod, "oracle_checks",
                            lambda: [("exact", 0.0, 0.0), ("off", 1.0, 1e-12)])
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"experiment": "oracle_suite",
                                       "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", str(cfgfile)]) == 1
        assert "oracle_suite: 1 check(s) failed" in capsys.readouterr().err
        rows = (tmp_path / "out" / "oracle_suite.csv").read_text().splitlines()
        assert rows[-2:] == ["exact,0,0,1", "off,1,1e-12,0"]

    def test_oracle_command_with_a_failing_check_exits_one(self, capsys, monkeypatch):
        import ddwave.cli as cli_mod
        monkeypatch.setattr(cli_mod, "oracle_checks",
                            lambda: [("exact", 0.0, 0.0), ("off", 1.0, 1e-12)])
        assert cli_main(["oracle"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  off" in out and "PASS  exact" in out
        assert "1/2 oracle checks passed" in out

    def test_seed_and_out_overrides(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "experiment": "loopback", "m": 8, "n": 4, "n_frames": 1,
            "gf_filter_len": 9, "du_filter_len": 5,
            "channel": {"profile": "single_path", "speed_mps": 0.0},
            "output_dir": str(tmp_path / "ignored")}))
        assert cli_main(["run", str(cfgfile), "--seed", "99",
                         "--out", str(tmp_path / "chosen")]) == 0
        rep = json.loads((tmp_path / "chosen" / "report.json").read_text())
        assert rep["seed"] == 99

    @pytest.mark.parametrize("bad,flag", [({"seed": -5}, "--seed"), ({"output_dir": 5}, "--out")],
                             ids=["seed", "out"])
    def test_override_replaces_the_file_value_before_the_check(self, tmp_path, bad, flag):
        # the file's own value, out of range or of the wrong type, is never checked
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "experiment": "loopback", "m": 8, "n": 4, "n_frames": 1, "gf_filter_len": 9,
            "du_filter_len": 5, "channel": {"profile": "single_path", "speed_mps": 0.0},
            "seed": 0, "output_dir": str(tmp_path / "out")} | bad))
        out = tmp_path / ("chosen" if flag == "--out" else "out")
        assert cli_main(["run", str(cfgfile), flag, str(out) if flag == "--out" else "3"]) == 0
        assert json.loads((out / "report.json").read_text())["seed"] == (
            3 if flag == "--seed" else 0)

    def test_seed_override_is_validated(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("{}")
        assert cli_main(["run", str(cfgfile), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_oracle_command(self, capsys):
        assert cli_main(["oracle"]) == 0
        out = capsys.readouterr().out
        assert "13/13" in out or "oracle checks passed" in out

    def test_list_schemes(self, capsys):
        assert cli_main(["list-schemes"]) == 0
        assert "gf_otfs" in capsys.readouterr().out


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
                 | st.sampled_from(SCHEMES + EXPERIMENTS + ("tdl_c", "single_path",
                                                          "rectangular", "0:5:40")))
_JSON_LIKE = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8)
_FIELD_VALUES = _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3)
_CHANNELS = st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(ChannelSection)]), _FIELD_VALUES,
    max_size=4)
_CONFIGS = st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)]),
    _FIELD_VALUES | _CHANNELS, max_size=6)


@given(raw=_CONFIGS | _JSON_LIKE)
@settings(max_examples=300, deadline=1000)
def test_any_json_value_gives_a_config_or_a_config_error(raw):
    # every rejection of a parsed JSON value is a ConfigError, which the CLI
    # turns into exit 2; any other exception would surface as exit 1
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


def test_gf_otfs_solves_at_126_db_on_a_short_filter_grid(tmp_path):
    # 16 x 64 with 9-tap filters, 0.4 dB under the snr_grid_db bound: one banded
    # Cholesky a frame and SNR, with no iteration that could stop short
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "m": 16, "n": 64, "gf_filter_len": 9, "du_filter_len": 9, "n_frames": 8,
        "snr_grid_db": [126.0], "output_dir": str(tmp_path / "out")}))
    assert cli_main(["run", str(cfgfile)]) == 0
