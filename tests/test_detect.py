"""QAM mapping and MMSE equalization."""

import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from ddwave import channel as chan
from ddwave.config import channel_config, config_from_dict
from ddwave.detect import (
    MmseEqualizer,
    RegularizationRequiredError,
    band_factor,
    qam_demap,
    qam_map,
    residue_order,
)
from ddwave.experiments import _one_blas_thread, build_modems, run_ber_sweep
from ddwave.transforms import zak_modulate


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

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_demap_table_matches_the_gray_formula(self, order):
        # the nearest level per axis, Gray-coded and shifted out bit by bit, on random,
        # boundary (level midpoints round half to even) and out-of-range symbols
        m, scale = int(np.log2(order)) // 2, np.sqrt(3.0 / (2.0 * (order - 1)))
        q = 1 << m
        rng = np.random.default_rng(order)
        edges = np.arange(-q - 3, q + 4) * scale
        symbols = np.concatenate([2 * (rng.normal(size=3000) + 1j * rng.normal(size=3000)),
                                  edges + 1j * edges[::-1], [1e300 - 1e300j, -0.0]])
        li, lq = (np.clip(np.round((x / scale + (q - 1)) / 2), 0, q - 1).astype(np.int64)
                  for x in (symbols.real, symbols.imag))
        shifts = np.arange(m - 1, -1, -1)
        ref = np.concatenate([((li ^ (li >> 1))[:, None] >> shifts) & 1,
                              ((lq ^ (lq >> 1))[:, None] >> shifts) & 1], axis=1).ravel()
        assert np.array_equal(qam_demap(symbols, order), ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.3, np.nan)])
    def test_demap_rejects_a_non_finite_symbol(self, bad):
        # no level is nearest, and a table index on NaN would read garbage; the BER
        # frame checks its estimates for finiteness before it demaps
        with pytest.raises(ValueError, match="non-finite"):
            qam_demap(np.array([0.1 + 0.2j, bad]), 16)

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


# the configs every structured detector is checked on
_CASES = [
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
    # subbands of one bin: gf_otfs's residue order is the CP schemes' reflected one
    pytest.param({"m": 53, "n": 1, "n_sc_rb": 1}, id="53x1-one-colour-a-column"),
]


class TestStructuredMmse:
    """Every scheme's ``Modem.detect`` solves structured; the dense probe is its oracle."""

    @pytest.mark.parametrize("override", _CASES)
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
                eta = chan.complex_noise(rng, modem.rx_len)
                y_eta = modem.demodulate(eta)
                dense = MmseEqualizer(modem.effective_channel(ch))
                # every SNR point from z = Z d and eta at once, against the dense solve of
                # the received y = y0 + sqrt(var) y_eta
                swept = modem.detect(ch, zak_modulate(d, geom), eta, range(0, 45, 5))
                assert swept.shape == (geom.n_sc, 9), name
                for si, snr_db in enumerate(range(0, 45, 5)):
                    var = 10.0 ** (-snr_db / 10.0)
                    err = np.max(np.abs(swept[:, si] - dense.solve(y0 + np.sqrt(var) * y_eta, var)))
                    assert err <= 1e-10, (name, seed, snr_db, err)

    @pytest.mark.parametrize("scheme", _STRUCTURED)
    def test_an_snr_point_does_not_depend_on_the_rest_of_the_grid(self, scheme):
        # each SNR point factors and solves alone, bit for bit: a driver may run low and
        # high SNR points at different frame counts
        cfg = config_from_dict({"experiment": "ber_sweep", "schemes": [scheme]})
        modem = build_modems(cfg)[scheme]
        rng = np.random.default_rng(11)
        z = zak_modulate(qam_map(rng.integers(0, 2, size=modem.geom.n_sc * 4), 16), modem.geom)
        grid = [0.0, 20.0, 30.0, 40.0]
        for seed in (3, 4, 5):
            ch = chan.generate_channel(channel_config(cfg), modem.rx_len + 8, seed=seed,
                                       delta_nu_hz=modem.geom.delta_nu_hz)
            eta = chan.complex_noise(rng, modem.rx_len)
            swept = modem.detect(ch, z, eta, grid)
            for i, snr_db in enumerate(grid):
                assert np.array_equal(swept[:, i], modem.detect(ch, z, eta, [snr_db])[:, 0]), (
                    seed, snr_db)

    def test_the_ber_sweep_never_probes_them(self, tmp_path, monkeypatch):
        # no detector pushes probe columns through the channel, and no frame takes the
        # channel's signal path: each detector forms its observations from its own A = rx H
        from ddwave.scfdma import Modem

        def no_probe(self, ch):
            raise AssertionError("dense probe in the BER sweep")
        monkeypatch.setattr(Modem, "effective_channel", no_probe)

        def no_apply(x, ch, out_len):
            raise AssertionError("apply_channel in the BER sweep")
        monkeypatch.setattr(chan, "apply_channel", no_apply)
        cfg = config_from_dict({"experiment": "ber_sweep", "schemes": _STRUCTURED,
                                "n_frames": 2, "snr_grid_db": [0.0, 40.0]})
        summary, _ = run_ber_sweep(cfg, tmp_path)
        assert set(summary) == set(_STRUCTURED)

    @pytest.mark.parametrize("scheme", _STRUCTURED)
    def test_an_all_zero_channel_needs_regularization(self, scheme):
        # the contract: a singular channel raises at noise_var 0, and an all-zero
        # one gives exact zeros at a positive noise_var
        cfg = config_from_dict({"experiment": "ber_sweep", "schemes": [scheme], "m": 8, "n": 4,
                                "gf_filter_len": 9, "du_filter_len": 5})
        modem = build_modems(cfg)[scheme]
        ch = chan.LtvChannelRealization(np.arange(5),
                                        np.zeros((5, modem.rx_len + 8), dtype=complex))
        y = modem.demodulate(chan.complex_noise(np.random.default_rng(8), modem.rx_len))
        z, eta = zak_modulate(y, modem.geom), chan.complex_noise(np.random.default_rng(9),
                                                                  modem.rx_len)
        # named by the SNR point that failed
        with pytest.raises(RegularizationRequiredError, match="^inf dB: a singular"):
            modem.detect(ch, z, eta, [10.0, math.inf])
        d_hat = modem.detect(ch, z, eta, [-3.0, 10.0])
        assert d_hat.shape == (modem.geom.n_sc, 2)
        assert not np.any(d_hat)

    @pytest.mark.parametrize("override", _CASES)
    def test_k_k_h_is_a_band_in_the_modem_order(self, override):
        # the heights that make one banded Cholesky exact: 2 tau_max for the CP schemes,
        # (2 tau_max + 1) n_sc_rb - 1 for gf_otfs, and dr_ufmc's closed form
        cfg = config_from_dict({"experiment": "ber_sweep", "schemes": _STRUCTURED} | override)
        modems = build_modems(cfg)
        geom = next(iter(modems.values())).geom
        stride = geom.M // cfg.n_sc_rb
        for seed in (3, 4):
            ch = chan.generate_channel(channel_config(cfg), max(m.rx_len for m in modems.values())
                                       + 8, seed=seed, delta_nu_hz=geom.delta_nu_hz)
            tau = int(ch.tap_delays[-1])
            bound = {"otfs": 2 * tau, "rw_otfs": 2 * tau,
                     "gf_otfs": (2 * tau + 1) * cfg.n_sc_rb - 1,
                     "dr_ufmc": min(geom.n_sc - 1, geom.M + tau + stride
                                    * ((geom.M + cfg.du_filter_len - 2) // stride))}
            for name, modem in modems.items():
                k_mat = modem.rx @ chan.delay_time_matrix(ch, modem.rx_len) @ modem.tx
                g, pos = (k_mat @ k_mat.conj().T).tocoo(), np.argsort(modem.order)
                height = int(np.max(np.abs(pos[g.row] - pos[g.col]), initial=0))
                assert height <= bound[name], (name, seed, height, bound[name])

    def test_nan_in_gives_nan_out(self):
        # gf_otfs's direct solve raises no LinAlgError on a non-finite input: it comes
        # back non-finite, for exit 3
        cfg = config_from_dict({"experiment": "ber_sweep", "schemes": ["gf_otfs"]})
        modem = build_modems(cfg)["gf_otfs"]
        ch = chan.generate_channel(channel_config(cfg), modem.rx_len + 8, seed=3,
                                   delta_nu_hz=modem.geom.delta_nu_hz)
        z = chan.complex_noise(np.random.default_rng(8), modem.geom.n_sc)
        assert np.all(np.isfinite(modem.detect(ch, z, None, [40.0])))
        assert np.all(np.isnan(modem.detect(ch, np.full_like(z, np.nan), None, [40.0])))


@pytest.mark.parametrize("n, p", [(1, 1), (7, 7), (8, 8), (12, 3), (12, 4), (512, 128),
                                  (512, 1)])
def test_residue_order_is_a_permutation_by_class(n, p):
    order = residue_order(n, p)
    assert np.array_equal(np.sort(order), np.arange(n))
    # each residue class r, r + p, ... in turn
    classes = order.reshape(p, n // p)
    assert np.array_equal(classes, classes[:, :1] + p * np.arange(n // p))


def test_residue_order_reflects_the_residues():
    assert residue_order(6, 6).tolist() == [0, 5, 1, 4, 2, 3]
    assert residue_order(7, 7).tolist() == [0, 6, 1, 5, 2, 4, 3]
    assert residue_order(8, 4).tolist() == [0, 4, 3, 7, 1, 5, 2, 6]
    assert np.array_equal(residue_order(12, 1), np.arange(12))


@pytest.mark.parametrize("height", [0, 1, 5])
def test_band_factor_solves_the_band_it_is_given(height):
    # a Gram already in its band order, diagonally dominant: band_factor permutes nothing
    rng = np.random.default_rng(height)
    dense = np.diag(np.full(30, 3.0 * height + 1.0)).astype(complex)
    for i in range(1, height + 1):
        off = rng.uniform(-1, 1, size=30 - i) + 1j * rng.uniform(-1, 1, size=30 - i)
        dense += np.diag(off, -i) + np.diag(off.conj(), i)
    v = rng.normal(size=30) + 1j * rng.normal(size=30)
    for var in (0.0, 0.3):
        expected = np.linalg.solve(dense + var * np.eye(30), v)
        solve = band_factor(scipy.sparse.csr_array(dense))(var)
        np.testing.assert_allclose(solve(v), expected, rtol=0, atol=1e-12)
