"""Acceptance gate: one test (or clause test) per criterion, with a printed
PASS/FAIL line each. Run with `pytest -rA tests/test_acceptance.py` to see
every line.

Two clauses are unattainable under the pinned parameters and are marked xfail
rather than weakened; the analysis lives in the repo notes:

* criterion 8, dr_ufmc clause: a 20-tap full-rate prototype has a transition
  band of about 0.12 of the sampling rate, which covers the whole measured
  offset band, so its mean there cannot sit 20 dB under plain OTFS.
* criterion 9, gf_otfs clause: the pinned MN/4+1-tap prototype has a spectral
  mainlobe of about 2.5 * MN / filter_len = 10 grid bins, wider than the
  3x3 leakage window, so near-in Doppler leakage is not suppressed (far-out
  leakage is, by 10-20 dB).

The top-SNR BER orderings of criterion 10 are dominated by a handful of
deep-fade frames; they hold at the pinned seed, with the caveat recorded in
the notes that bit-level binomial intervals understate burst-error variance.
"""

import time

import numpy as np
import pytest

from ddwave import channel as chan
from ddwave.config import config_from_dict
from ddwave.detect import qam_map
from ddwave.experiments import run_experiment
from ddwave.metrics import wilson_interval
from ddwave.scfdma import CpOtfsModem, FilteredModem
from ddwave.transforms import FrameGeometry, dft_matrix, full_dft, oracle_matrix, zak_modulate
from ddwave.ufmc import FilterBankSpec, UfmcOperators, analysis_fold

SCHEMES = ("otfs", "gf_otfs", "rw_otfs", "dr_ufmc")


def report(line: str) -> None:
    print(line)


def report_time(criterion: int, elapsed: float, bound_s: float) -> None:
    """Wall-clock seconds on a line of their own, so that criterion lines
    compare equal between runs and trees."""
    print(f"  time of criterion {criterion}: {elapsed:.2f} s (< {bound_s:g} s)")


def report_detail(criterion: int, detail: str) -> None:
    """Measured rounding-level errors on a line of their own, for the same reason."""
    print(f"  detail of criterion {criterion}: {detail}")


def random_symbols(rng, n_sc: int, qam_order: int) -> np.ndarray:
    """One frame of QAM symbols on uniformly random bits."""
    return qam_map(rng.integers(0, 2, size=n_sc * int(np.log2(qam_order))), qam_order)


# ---------------------------------------------------------------------------

def test_criterion_1_cooley_tukey_identity():
    t0 = time.time()
    worst = 0.0
    for m_dim in (4, 8):
        for n_dim in (3, 4):
            g = FrameGeometry(M=m_dim, N=n_dim)
            lhs = oracle_matrix("F_MN", g)
            rhs = (oracle_matrix("Psi", g) @ oracle_matrix("I_N_kron_F_M", g)
                   @ oracle_matrix("Omega", g) @ np.kron(dft_matrix(n_dim), np.eye(m_dim)))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(f"criterion 1 {'PASS' if ok else 'FAIL'}: DFT factorization max err "
           f"{worst:.2e} (< 1e-12)")
    report_time(1, elapsed, 1.0)
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_2_gamma_unitarity():
    g = FrameGeometry(M=8, N=4)
    gamma = oracle_matrix("Gamma", g)
    err = float(np.max(np.abs(gamma @ gamma.conj().T - np.eye(32))))
    report(f"criterion 2 {'PASS' if err < 1e-12 else 'FAIL'}: "
           f"||Gamma Gamma^H - I||_max = {err:.2e} (< 1e-12)")
    assert err < 1e-12


def test_criterion_3_modulator_path_equivalence():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(1234)
    for m_dim, n_dim in ((8, 4), (64, 8)):
        g = FrameGeometry(M=m_dim, N=n_dim)
        modem = CpOtfsModem(g)  # no CP: modulate returns the delay-time frame
        for _ in range(100):
            d = random_symbols(rng, g.n_sc, 16)
            s_t = modem.modulate(d)
            worst = max(worst, float(np.max(np.abs(s_t - zak_modulate(d, g)))))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 5.0
    report(f"criterion 3 {'PASS' if ok else 'FAIL'}: direct vs factorized modulation, "
           f"100 frames x 2 sizes, max err < 1e-12")
    report_detail(3, f"max err {worst:.2e}")
    report_time(3, elapsed, 5.0)
    assert worst < 1e-12
    assert elapsed < 5.0


def test_criterion_4_loopback_zero_ber(tmp_path):
    cfg = config_from_dict({
        "experiment": "loopback", "n_frames": 20, "qam_order": 16,
        "output_dir": str(tmp_path / "loopback"), "seed": 0})
    rep = run_experiment(cfg)
    errors = {s: rep.summary[s]["total_errors"] for s in SCHEMES}
    ok = all(v == 0 for v in errors.values())
    report(f"criterion 4 {'PASS' if ok else 'FAIL'}: noise-free identity-channel "
           f"loopback errors by scheme {errors} (all must be 0)")
    assert all(v == 0 for v in errors.values())


def test_criterion_5_ofdm_reduction():
    g = FrameGeometry(M=8, N=4)
    bank = FilterBankSpec.chebyshev(g.n_sc, 4, filter_len=1)
    prod = oracle_matrix("R_u", g, bank) @ oracle_matrix("T_0", g, bank)
    err = float(np.max(np.abs(prod - np.eye(32) / np.sqrt(2))))
    report(f"criterion 5 {'PASS' if err < 1e-12 else 'FAIL'}: unit-filter bank reduces "
           f"to scaled DFT modem, ||R_u T_0 - I/sqrt(2)||_max = {err:.2e} (< 1e-12)")
    assert err < 1e-12


def test_criterion_6_fast_paths_equal_dense_oracle():
    g = FrameGeometry(M=8, N=4)
    bank = FilterBankSpec.chebyshev(g.n_sc, 4, filter_len=9)
    gamma = oracle_matrix("Gamma", g)
    f_full = oracle_matrix("F_MN", g)
    a_cp, b_cp = oracle_matrix("A_cp", g, cp_len=4), oracle_matrix("B_cp", g, cp_len=4)
    t_u = oracle_matrix("T_u", g, bank)
    r_u = oracle_matrix("R_u", g, bank)

    rng = np.random.default_rng(7)
    d = rng.normal(size=32) + 1j * rng.normal(size=32)
    errs = {}

    d_frame = random_symbols(np.random.default_rng(8), g.n_sc, 16)
    otfs = CpOtfsModem(g, cp_len=4)
    errs["modulate"] = np.max(np.abs(
        otfs.modulate(d_frame) - a_cp @ f_full.conj().T @ gamma @ d_frame))

    cfg = chan.ChannelConfig(profile="tdl_c", bandwidth_hz=1.92e6,
                             doppler_model="jakes_sum_of_sinusoids")
    ch = chan.generate_channel(cfg, otfs.rx_len + 8, seed=3, delta_nu_hz=g.delta_nu_hz)
    h = chan.delay_time_matrix(ch, otfs.rx_len).toarray()
    r = chan.apply_channel(otfs.modulate(d), ch, out_len=otfs.rx_len)
    errs["demodulate"] = np.max(np.abs(
        otfs.demodulate(r) - gamma.conj().T @ f_full @ b_cp @ r))
    h_dd_dense = gamma.conj().T @ f_full @ (b_cp @ h @ a_cp) @ f_full.conj().T @ gamma
    errs["effective_channel"] = np.max(np.abs(otfs.effective_channel(ch) - h_dd_dense))

    gm = FilteredModem(g, 1, n_sc_rb=4, filter_len=9)  # the same Chebyshev bank as `bank`
    errs["subband_synthesis"] = np.max(np.abs(UfmcOperators(bank).tx - t_u @ f_full))
    rr = rng.normal(size=40) + 1j * rng.normal(size=40)
    errs["subband_analysis"] = np.max(np.abs(full_dft(analysis_fold(bank) @ rr) - r_u @ rr))
    errs["gf_modulate"] = np.max(np.abs(gm.modulate(d) - t_u @ gamma @ d))
    h_bar = chan.delay_time_matrix(ch, gm.rx_len).toarray()
    r_gf = chan.apply_channel(gm.modulate(d), ch, out_len=gm.rx_len)
    errs["gf_demodulate"] = np.max(np.abs(
        gm.demodulate(r_gf) - gamma.conj().T @ r_u @ r_gf))
    errs["gf_effective_channel"] = np.max(np.abs(
        gm.effective_channel(ch) - gamma.conj().T @ r_u @ h_bar @ t_u @ gamma))

    worst = max(float(v) for v in errs.values())
    ok = worst < 1e-10
    detail = ", ".join(f"{k} {float(v):.1e}" for k, v in errs.items())
    report(f"criterion 6 {'PASS' if ok else 'FAIL'}: fast paths vs dense operators "
           f"at 8x4, worst < 1e-10")
    report_detail(6, f"{detail}; worst {worst:.2e}")
    assert worst < 1e-10


def test_criterion_7_predistortion_improvement():
    t0 = time.time()
    bank = FilterBankSpec.chebyshev(512, 4, 129, atten_db=60.0)
    ops, fold = UfmcOperators(bank), analysis_fold(bank)
    ones = np.ones(512)
    t_0 = oracle_matrix("T_0", FrameGeometry(M=512, N=1), bank)
    t_n = t_0 / np.sqrt(np.mean(np.abs(t_0 @ ones) ** 2))
    r_norm = full_dft(fold @ (t_n @ ones))
    r_pre = full_dft(fold @ (ops.tx @ full_dft(ones, inverse=True)))
    spread_norm = float(np.max(np.abs(r_norm)) / np.min(np.abs(r_norm)))
    spread_pre = float(np.max(np.abs(r_pre)) / np.min(np.abs(r_pre)))
    elapsed = time.time() - t0
    ok = spread_pre < spread_norm and elapsed < 5.0
    report(f"criterion 7 {'PASS' if ok else 'FAIL'}: through-modem spread "
           f"{spread_norm:.4f} -> {spread_pre:.6f} with predistortion "
           f"(must shrink)")
    report_time(7, elapsed, 5.0)
    assert spread_pre < spread_norm
    assert elapsed < 5.0


# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def psd_summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("psd")
    cfg = config_from_dict({
        "experiment": "psd", "n_frames": 40, "seed": 0,
        "output_dir": str(out)})
    t0 = time.time()
    rep = run_experiment(cfg)
    rep.summary["elapsed_s"] = time.time() - t0
    return rep.summary


def test_criterion_8_oob_gf_and_rw(psd_summary):
    gf_below = psd_summary["otfs"]["offset_mean_db"] - psd_summary["gf_otfs"]["offset_mean_db"]
    rw_delta = psd_summary["rw_otfs"]["offset_mean_db"] - psd_summary["otfs"]["offset_mean_db"]
    elapsed = psd_summary["elapsed_s"]
    ok = gf_below >= 30.0 and abs(rw_delta) <= 3.0 and elapsed < 30.0
    report(f"criterion 8 {'PASS' if ok else 'FAIL'} (gf_otfs, rw_otfs clauses): "
           f"offset-band mean of gf_otfs {gf_below:.1f} dB below otfs (>= 30); "
           f"tx-windowed rw_otfs {rw_delta:+.1f} dB vs otfs (|.| <= 3)")
    report_time(8, elapsed, 30.0)
    assert gf_below >= 30.0
    assert abs(rw_delta) <= 3.0
    assert elapsed < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="20-tap full-rate prototype: transition band ~0.12*fs covers the whole "
           "offset band, so the dr_ufmc mean there cannot sit 20 dB under plain"
           " OTFS; measured gap ~6 dB")
def test_criterion_8_oob_dr_ufmc(psd_summary):
    dr_below = psd_summary["otfs"]["offset_mean_db"] - psd_summary["dr_ufmc"]["offset_mean_db"]
    ok = dr_below >= 20.0
    report(f"criterion 8 {'PASS' if ok else 'FAIL'} (dr_ufmc clause): offset-band mean "
           f"of dr_ufmc {dr_below:.1f} dB below otfs (>= 20)")
    assert dr_below >= 20.0


@pytest.fixture(scope="module")
def leakage_summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("leakage")
    cfg = config_from_dict({
        "experiment": "impulse_leakage", "seed": 0, "output_dir": str(out)})
    t0 = time.time()
    rep = run_experiment(cfg)
    summary = {s: rep.summary[s]["leakage_ratio_db"] for s in SCHEMES}
    summary["elapsed_s"] = time.time() - t0
    return summary


def test_criterion_9_leakage_rw_and_dr(leakage_summary):
    rw_gain = leakage_summary["otfs"] - leakage_summary["rw_otfs"]
    dr_delta = abs(leakage_summary["dr_ufmc"] - leakage_summary["otfs"])
    elapsed = leakage_summary["elapsed_s"]
    ok = rw_gain >= 3.0 and dr_delta <= 2.0 and elapsed < 10.0
    report(f"criterion 9 {'PASS' if ok else 'FAIL'} (rw_otfs, dr_ufmc clauses): "
           f"half-bin-shift impulse leakage, rw_otfs {rw_gain:.1f} dB below otfs (>= 3); "
           f"|dr_ufmc - otfs| = {dr_delta:.2f} dB (<= 2)")
    report_time(9, elapsed, 10.0)
    assert rw_gain >= 3.0
    assert dr_delta <= 2.0
    assert elapsed < 10.0


@pytest.mark.xfail(
    strict=True,
    reason="MN/4+1-tap prototype has a ~10-bin spectral mainlobe, wider than the "
           "3x3 leakage window, so near-in Doppler leakage passes the filter; "
           "measured gain ~0.7 dB, not 3 dB (far-out columns do drop 10-20 dB)")
def test_criterion_9_leakage_gf(leakage_summary):
    gf_gain = leakage_summary["otfs"] - leakage_summary["gf_otfs"]
    ok = gf_gain >= 3.0
    report(f"criterion 9 {'PASS' if ok else 'FAIL'} (gf_otfs clause): gf_otfs "
           f"{gf_gain:.2f} dB below otfs (>= 3)")
    assert gf_gain >= 3.0


@pytest.fixture(scope="module")
def ber_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("ber")
    cfg = config_from_dict({
        "experiment": "ber_sweep", "n_frames": 200,
        "snr_grid_db": [20.0, 30.0, 40.0], "seed": 0,
        "output_dir": str(out)})
    rep = run_experiment(cfg, workers=2)
    n_bits = cfg.n_frames * cfg.n_sc * 4
    results = {}
    for s in SCHEMES:
        bers = rep.summary[s]["ber"]
        errs = [int(round(b * n_bits)) for b in bers]
        results[s] = {"ber": bers, "errors": errs,
                      "ci": [wilson_interval(e, n_bits) for e in errs]}
    results["n_bits"] = n_bits
    return results


def test_criterion_10_ber_otfs_below_dr(ber_results):
    otfs_top = ber_results["otfs"]["ber"][-1]
    dr_top = ber_results["dr_ufmc"]["ber"][-1]
    ok = otfs_top <= dr_top
    report(f"criterion 10 {'PASS' if ok else 'FAIL'} (otfs <= dr_ufmc at top SNR): "
           f"otfs {otfs_top:.3g} <= dr_ufmc {dr_top:.3g}")
    assert otfs_top <= dr_top


def test_criterion_10_outer_pair_separation(ber_results):
    gf_ci = ber_results["gf_otfs"]["ci"][-1]
    dr_ci = ber_results["dr_ufmc"]["ci"][-1]
    ok = gf_ci[1] < dr_ci[0]
    report(f"criterion 10 {'PASS' if ok else 'FAIL'} (outer-pair 95% intervals "
           f"disjoint at top SNR): gf_otfs [{gf_ci[0]:.2e}, {gf_ci[1]:.2e}] vs "
           f"dr_ufmc [{dr_ci[0]:.2e}, {dr_ci[1]:.2e}]")
    assert gf_ci[1] < dr_ci[0]


def test_criterion_10_gf_strictly_decreases(ber_results):
    bers = ber_results["gf_otfs"]["ber"]
    ok = bers[0] > bers[1] > bers[2]
    report(f"criterion 10 {'PASS' if ok else 'FAIL'} (gf_otfs has no floor on the "
           f"grid): BER 20->30->40 dB = {bers[0]:.3g} > {bers[1]:.3g} > {bers[2]:.3g}")
    assert bers[0] > bers[1] > bers[2]


def test_criterion_10_gf_not_above_otfs(ber_results):
    gf_top = ber_results["gf_otfs"]["ber"][-1]
    otfs_top = ber_results["otfs"]["ber"][-1]
    ok = gf_top <= otfs_top
    report(f"criterion 10 {'PASS' if ok else 'FAIL'} (gf_otfs <= otfs at top SNR): "
           f"gf_otfs {gf_top:.3g} vs otfs {otfs_top:.3g}")
    assert gf_top <= otfs_top


def test_criterion_11_determinism(tmp_path):
    base = {"experiment": "ber_sweep", "n_frames": 4,
            "snr_grid_db": [20.0, 40.0], "seed": 31}
    bodies = {}
    for tag, workers in (("r1", 1), ("r2", 1), ("w4", 4)):
        cfg = config_from_dict(base | {"output_dir": str(tmp_path / tag)})
        run_experiment(cfg, workers=workers)
        bodies[tag] = {s: (tmp_path / tag / f"ber_{s}.csv").read_bytes()
                       for s in SCHEMES}
    ok = bodies["r1"] == bodies["r2"] == bodies["w4"]
    report(f"criterion 11 {'PASS' if ok else 'FAIL'}: identical (config, seed) gives "
           f"byte-identical CSVs across reruns and worker counts {{1, 4}}")
    assert bodies["r1"] == bodies["r2"]
    assert bodies["r1"] == bodies["w4"]
