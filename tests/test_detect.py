"""QAM mapping and MMSE equalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddwave import channel as chan
from ddwave.config import channel_config, config_from_dict
from ddwave.detect import (
    MmseEqualizer,
    RegularizationRequiredError,
    StructuredMmse,
    qam_demap,
    qam_map,
)
from ddwave.experiments import _one_blas_thread, build_modems, run_ber_sweep


class TestQam:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_roundtrip(self, order):
        rng = np.random.default_rng(0)
        k = int(np.log2(order))
        for _ in range(20):
            bits = rng.integers(0, 2, size=500 * k)
            assert np.array_equal(qam_demap(qam_map(bits, order), order), bits)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=64)
        assert np.array_equal(qam_demap(qam_map(bits, 16), 16), bits)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_energy(self, order):
        k = int(np.log2(order))
        all_syms = qam_map(
            np.array([(v >> i) & 1 for v in range(order) for i in range(k - 1, -1, -1)]),
            order)
        assert np.mean(np.abs(all_syms) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_gray_adjacency(self):
        # neighboring constellation points differ in exactly one bit
        for order in (4, 16, 64):
            k = int(np.log2(order))
            bits_of = {}
            for v in range(order):
                bits = np.array([(v >> i) & 1 for i in range(k - 1, -1, -1)])
                sym = qam_map(bits, order)[0]
                bits_of[(round(sym.real, 9), round(sym.imag, 9))] = bits
            pts = sorted({p[0] for p in bits_of})
            step = pts[1] - pts[0]
            for (re, im), bits in bits_of.items():
                for dre, dim in ((step, 0.0), (0.0, step)):
                    nb = (round(re + dre, 9), round(im + dim, 9))
                    if nb in bits_of:
                        assert np.sum(bits != bits_of[nb]) == 1

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            qam_map(np.zeros(8), 8)

    def test_rejects_ragged_bits(self):
        with pytest.raises(ValueError):
            qam_map(np.zeros(7), 16)


class TestMmse:
    def test_identity_zero_noise(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.max(np.abs(MmseEqualizer(np.eye(8, dtype=complex)).solve(y, 0.0) - y)) < 1e-12

    def test_ridge_shrinkage(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        y = rng.normal(size=12) + 1j * rng.normal(size=12)
        norms = [np.linalg.norm(MmseEqualizer(h).solve(y, v)) for v in (0.1, 1.0, 10.0, 100.0)]
        assert norms[0] > norms[1] > norms[2] > norms[3]

    def test_solve_matches_explicit_inverse(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        y = rng.normal(size=16) + 1j * rng.normal(size=16)
        var = 0.31
        direct = np.linalg.inv(h.conj().T @ h + var * np.eye(16)) @ h.conj().T @ y
        assert np.max(np.abs(MmseEqualizer(h).solve(y, var) - direct)) < 1e-10

    def test_unitary_channel_exact_inversion(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        d = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.max(np.abs(MmseEqualizer(q).solve(q @ d, 0.0) - d)) < 1e-10

    def test_gram_is_the_upper_triangle_of_h_hermitian_h(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        gram = MmseEqualizer(h).gram
        assert np.max(np.abs(np.triu(gram) - np.triu(h.conj().T @ h))) < 1e-10
        assert not np.any(np.tril(gram, -1))

    def test_singular_zero_noise_raises(self):
        h = np.zeros((4, 4), dtype=complex)
        with pytest.raises(RegularizationRequiredError):
            MmseEqualizer(h).solve(np.ones(4, dtype=complex), 0.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            MmseEqualizer(np.eye(2, dtype=complex)).solve(np.ones(2), -0.1)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            MmseEqualizer(np.ones((3, 4), dtype=complex))

    def test_mse_improves_toward_true_variance(self):
        # detector noise estimate near the true variance does not do worse
        # than grossly wrong estimates, on average
        rng = np.random.default_rng(5)
        true_var = 0.05
        gains = {0.0005: 0.0, true_var: 0.0, 5.0: 0.0}
        for _ in range(50):
            h = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
            h /= np.sqrt(24)
            d = (rng.integers(0, 2, 24) * 2 - 1) + 1j * (rng.integers(0, 2, 24) * 2 - 1)
            d = d / np.sqrt(2)
            noise = np.sqrt(true_var / 2) * (rng.normal(size=24) + 1j * rng.normal(size=24))
            y = h @ d + noise
            eq = MmseEqualizer(h)
            for v in gains:
                gains[v] += np.mean(np.abs(eq.solve(y, v) - d) ** 2)
        assert gains[true_var] <= gains[0.0005]
        assert gains[true_var] <= gains[5.0]


class TestDetectFrame:
    def test_bits_and_evm(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, size=32 * 4)
        d = qam_map(bits, 16)
        d_hat = MmseEqualizer(np.eye(32, dtype=complex)).solve(d, 0.0)
        bits_hat = qam_demap(d_hat, 16)
        assert np.array_equal(bits_hat, bits)
        assert bits_hat.size == 32 * 4
        # distance of each equalized symbol to its hard decision
        assert np.max(np.abs(d_hat - qam_map(bits_hat, 16))) < 1e-10


_STRUCTURED = ["otfs", "gf_otfs", "rw_otfs", "dr_ufmc"]


@pytest.fixture
def one_blas_thread():
    """The BER sweep's BLAS setting, under which the oracle's Cholesky is also faster."""
    with _one_blas_thread({}):
        yield


class TestStructuredMmse:
    """Every scheme solves structured; the dense probe is their oracle."""

    @pytest.mark.parametrize("override", [
        pytest.param({}, id="tdl_c-jakes"),
        pytest.param({"channel": {"doppler_model": "single_shift_per_tap"}},
                     id="tdl_c-single-shift"),
        pytest.param({"channel": {"profile": "single_path", "fractional_doppler_override": 0.5}},
                     id="single-path-override"),
        # the channel memory (5 samples) is longer than the CP
        pytest.param({"schemes": ["otfs"], "cp_len": 0}, id="otfs-cp0"),
        pytest.param({"schemes": ["otfs"], "cp_len": 1}, id="otfs-cp1"),
        pytest.param({"schemes": ["rw_otfs"], "rw_tx_window": True}, id="rw_otfs-tx-window"),
        pytest.param({"m": 8, "n": 4, "gf_filter_len": 9, "du_filter_len": 5}, id="8x4"),
        # a 6-sample channel memory carries a transmit block two receive blocks down
        pytest.param({"m": 8, "n": 8, "gf_filter_len": 9, "du_filter_len": 5,
                      "channel": {"delay_spread_s": 5e-7}}, id="8x8-two-blocks-below"),
        # four times the default 500 km/h spreads inter-Doppler interference wider
        pytest.param({"channel": {"speed_mps": 4 * 500.0 / 3.6}}, id="high-doppler"),
    ])
    def test_matches_the_dense_oracle(self, override, one_blas_thread):
        cfg = config_from_dict({"experiment": "ber_sweep", "schemes": _STRUCTURED} | override)
        modems = build_modems(cfg)
        geom = next(iter(modems.values())).geom
        rng = np.random.default_rng(7)
        d = qam_map(rng.integers(0, 2, size=geom.n_sc * 4), 16)
        for seed in (3, 4):
            ch = chan.generate_channel(channel_config(cfg), max(m.rx_len for m in modems.values())
                                       + 8, seed=seed, delta_nu_hz=geom.delta_nu_hz)
            for name, modem in modems.items():
                y0 = modem.demodulate(chan.apply_channel(modem.modulate(d), ch,
                                                         out_len=modem.rx_len))
                y_eta = modem.demodulate(chan.complex_noise(rng, modem.rx_len))
                dense, structured = MmseEqualizer(modem.effective_channel(ch)), modem.detector(ch)
                assert isinstance(structured, StructuredMmse), name
                for snr_db in range(0, 45, 5):
                    var = 10.0 ** (-snr_db / 10.0)
                    y = y0 + np.sqrt(var) * y_eta
                    err = np.max(np.abs(structured.solve(y, var) - dense.solve(y, var)))
                    assert err <= 1e-10, (name, seed, snr_db, err)

    def test_the_ber_sweep_never_probes_them(self, tmp_path, monkeypatch):
        # dr_ufmc probes 3 colours x M = 192 columns at 64x8, gf_otfs 32, the CP schemes none
        from ddwave.baselines import DrUfmcModem
        from ddwave.gfotfs import GfOtfsModem
        from ddwave.scfdma import CpOtfsModem

        def no_probe(self, ch):
            raise AssertionError("dense probe in the BER sweep")
        for cls in (CpOtfsModem, GfOtfsModem, DrUfmcModem):
            monkeypatch.setattr(cls, "effective_channel", no_probe)
        real_apply, widths = chan.apply_channel, []

        def recording_apply(x, ch, out_len=None):
            widths.append(x.shape[1] if x.ndim == 2 else 1)
            return real_apply(x, ch, out_len)
        monkeypatch.setattr(chan, "apply_channel", recording_apply)
        cfg = config_from_dict({"experiment": "ber_sweep", "schemes": _STRUCTURED,
                                "n_frames": 2, "snr_grid_db": [0.0, 40.0]})
        summary, _ = run_ber_sweep(cfg, tmp_path)
        assert set(summary) == set(_STRUCTURED)
        assert max(widths) == 192

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_conjugate_gradients_capped_below_convergence_raise(self, monkeypatch):
        # a non-finite input is no convergence failure: it comes back non-finite, for exit 3
        from ddwave import gfotfs
        cfg = config_from_dict({"experiment": "ber_sweep", "schemes": ["gf_otfs"]})
        modem = build_modems(cfg)["gf_otfs"]
        ch = chan.generate_channel(channel_config(cfg), modem.rx_len + 8, seed=3,
                                   delta_nu_hz=modem.geom.delta_nu_hz)
        y = modem.demodulate(chan.complex_noise(np.random.default_rng(8), modem.rx_len))
        detector = modem.detector(ch)
        detector.solve(y, 1e-4)  # converges within the default cap
        monkeypatch.setattr(gfotfs, "CG_MAX_ITERATIONS", 1)
        with pytest.raises(np.linalg.LinAlgError, match="conjugate gradients"):
            detector.solve(y, 1e-4)
        assert np.all(np.isnan(detector.solve(np.full_like(y, np.nan), 1e-4)))
