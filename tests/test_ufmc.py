"""Filter bank design, synthesis/analysis, normalization, and predistortion."""

import warnings

import numpy as np
import pytest
import scipy.sparse
from scipy.signal.windows import chebwin

from ddwave.config import config_from_dict
from ddwave.experiments import build_modems
from ddwave.transforms import DimensionError, FrameGeometry, dft_matrix, full_dft, oracle_matrix
from ddwave.ufmc import (
    FilterBankSpec,
    SingularPredistortionError,
    UfmcOperators,
    analysis_fold,
    design_chebyshev_prototype,
    dolph_chebyshev_window,
    predistortion,
    ufmc_analyze,
)


def small_geom():
    return FrameGeometry(M=8, N=4)


def small_bank(filter_len=9):
    return FilterBankSpec.chebyshev(32, 4, filter_len)


def table_bank():
    return FilterBankSpec.chebyshev(512, 4, 129, atten_db=60.0)


def oracle_t0(bank):
    return oracle_matrix("T_0", FrameGeometry(M=bank.n_sc, N=1), bank)


def transmitted(ops, s_f):
    """T_u s_f through the builder's sparse T_u F."""
    return ops.tx @ full_dft(s_f, inverse=True)


class TestDolphChebyshevWindow:
    """The window is scipy's ``chebwin``, sample for sample."""

    @staticmethod
    def assert_equals_scipy(length, atten_db):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # scipy's below-45-dB note
            expected = chebwin(length, at=atten_db)
        assert np.array_equal(dolph_chebyshev_window(length, atten_db), expected), \
            (length, atten_db)

    def test_every_length_to_600(self):
        for length in [*range(601), 640, 1024, 2048]:
            for atten_db in (0.5, 13.0, 30.0, 44.5, 45.0, 60.0, 123.4, 296.0, 297.0,
                             640.5, 998.5, 1000.0):
                self.assert_equals_scipy(length, atten_db)

    def test_every_half_db_to_1000(self):
        # 296 and 297 dB bracket rw_otfs's first non-positive 512-sample window
        for length in (63, 512, 2048):
            for atten_db in np.arange(1, 2001) / 2:
                self.assert_equals_scipy(length, atten_db)

    def test_no_warning_below_45_db(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = dolph_chebyshev_window(64, 30.0)
        assert w.max() == 1.0


class TestPrototypeDesign:
    def test_degenerate_length_one(self):
        assert np.array_equal(design_chebyshev_prototype(1, 60.0), [1.0])

    def test_symmetric_and_unit_norm(self):
        w = design_chebyshev_prototype(129, 60.0)
        assert np.max(np.abs(w - w[::-1])) < 1e-12
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_equiripple_sidelobe_level(self):
        w = design_chebyshev_prototype(129, 60.0)
        response = np.abs(np.fft.fft(w, 4096))
        response_db = 20 * np.log10(response / response.max() + 1e-300)
        # first spectral null bounds the mainlobe; everything beyond is stopband
        first_null = 1 + np.argmax(np.diff(response[:2048]) > 0)
        assert np.max(response_db[first_null:2048]) <= -59.5

    def test_rejects_bad_args(self):
        with pytest.raises(DimensionError):
            design_chebyshev_prototype(0, 60.0)
        with pytest.raises(ValueError):
            design_chebyshev_prototype(5, -3.0)


class TestFilterBankSpec:
    def test_subband_centers(self):
        bank = FilterBankSpec(32, 4, design_chebyshev_prototype(9, 60.0))
        assert np.allclose(bank.alpha, (np.arange(8) + 0.5) * 4 - 0.5)

    def test_filter_too_long_rejected(self):
        with pytest.raises(DimensionError):
            FilterBankSpec(8, 4, np.ones(10))

    def test_subband_size_must_divide(self):
        with pytest.raises(DimensionError):
            FilterBankSpec.chebyshev(16, 3, filter_len=1)

    def test_chebyshev_bank_uses_the_designed_prototype(self):
        bank = FilterBankSpec.chebyshev(32, 4, 9, atten_db=50.0)
        assert (bank.n_sc, bank.n_sc_rb, bank.n_rb, bank.filter_len) == (32, 4, 8, 9)
        assert np.array_equal(bank.prototype, design_chebyshev_prototype(9, 50.0))

    def test_output_length(self):
        bank = table_bank()
        assert bank.out_len == 512 + 129 - 1


class TestSynthesis:
    def test_zero_in_zero_out(self):
        bank = small_bank()
        out = UfmcOperators(bank).tx @ np.zeros(32, dtype=complex)
        assert out.shape == (40,)
        assert np.all(out == 0)

    def test_matches_dense_oracle(self):
        g = small_geom()
        bank = small_bank()
        rng = np.random.default_rng(0)
        s_f = rng.normal(size=32) + 1j * rng.normal(size=32)
        ops = UfmcOperators(bank)
        dense = oracle_matrix("T_0", g, bank) * ops.predistortion / ops.synth_norm_gain
        assert np.max(np.abs(transmitted(ops, s_f) - dense @ s_f)) < 1e-10
        assert np.max(np.abs(full_dft(ops.tx.toarray(), inverse=True, axis=1) - dense)) < 1e-10

    @pytest.mark.parametrize("n_sc, n_sc_rb, filter_len",
                             [(32, 4, 9), (32, 1, 1), (32, 4, 33), (53, 1, 1), (8, 4, 9)])
    def test_closed_form_is_the_oracle_after_the_dft(self, n_sc, n_sc_rb, filter_len):
        bank = FilterBankSpec.chebyshev(n_sc, n_sc_rb, filter_len)
        tx = UfmcOperators(bank).tx
        dense = oracle_matrix("T_u", FrameGeometry(M=n_sc, N=1), bank) @ dft_matrix(n_sc)
        assert np.max(np.abs(tx.toarray() - dense)) <= 1e-12
        assert np.diff(tx.indptr).max() <= n_sc_rb

    def test_every_modem_is_two_sparse_arrays(self):
        # gf_otfs's tx is one block of the builder's T_u F, dr_ufmc's is N of them
        cfg = config_from_dict({"m": 8, "n": 4, "gf_filter_len": 9, "du_filter_len": 5})
        for name, modem in build_modems(cfg).items():
            assert isinstance(modem.tx, scipy.sparse.sparray), name
            assert isinstance(modem.rx, scipy.sparse.sparray), name

    def test_single_subband_containment(self):
        bank = table_bank()
        s_f = np.zeros(512, dtype=complex)
        s_f[200:204] = 1.0  # subband 50
        out = transmitted(UfmcOperators(bank), s_f)
        spec = np.abs(np.fft.fft(out, 8 * 512)) ** 2
        bins = np.arange(8 * 512) / 8.0
        inband = (bins >= 195) & (bins <= 209)
        total = spec.sum()
        assert spec[inband].sum() / total > 0.99

    def test_containment_improves_with_attenuation(self):
        leak = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for atten in (40.0, 60.0, 80.0):
                bank = FilterBankSpec.chebyshev(512, 4, 129, atten_db=atten)
                s_f = np.zeros(512, dtype=complex)
                s_f[200:204] = 1.0
                out = transmitted(UfmcOperators(bank), s_f)
                spec = np.abs(np.fft.fft(out, 8 * 512)) ** 2
                bins = np.arange(8 * 512) / 8.0
                outband = (bins < 180) | (bins > 224)
                leak.append(spec[outband].sum() / spec.sum())
        assert leak[0] > leak[1] > leak[2]


class TestAnalysis:
    def test_zero(self):
        bank = small_bank()
        assert np.all(ufmc_analyze(np.zeros(40), bank) == 0)

    def test_unit_impulse(self):
        bank = small_bank()
        r = np.zeros(40, dtype=complex)
        r[0] = 1.0
        out = ufmc_analyze(r, bank)
        assert np.allclose(out, 1 / np.sqrt(64))

    def test_matches_dense_oracle(self):
        g = small_geom()
        bank = small_bank()
        rng = np.random.default_rng(1)
        r = rng.normal(size=40) + 1j * rng.normal(size=40)
        dense = oracle_matrix("R_u", g, bank)
        assert np.max(np.abs(ufmc_analyze(r, bank) - dense @ r)) < 1e-10

    @pytest.mark.parametrize("n_sc, n_sc_rb", [(32, 4), (53, 1)])
    @pytest.mark.parametrize("filter_len", [1, 9, None])  # None: n_sc + 1, the longest
    def test_fold_then_dft_is_the_dense_oracle(self, n_sc, n_sc_rb, filter_len):
        bank = FilterBankSpec.chebyshev(n_sc, n_sc_rb, filter_len or n_sc + 1)
        fold = analysis_fold(bank)
        assert fold.shape == (n_sc, bank.out_len)
        dense = oracle_matrix("R_u", FrameGeometry(M=n_sc, N=1), bank)
        rng = np.random.default_rng(3)
        r = rng.normal(size=(bank.out_len, 3)) + 1j * rng.normal(size=(bank.out_len, 3))
        for x in (r[:, 0], r):
            assert np.max(np.abs(full_dft(fold @ x) - dense @ x)) < 1e-12
            assert np.max(np.abs(ufmc_analyze(x, bank) - dense @ x)) < 1e-12

    def test_short_input_rejected(self):
        bank = small_bank()
        with pytest.raises(DimensionError):
            ufmc_analyze(np.zeros(39), bank)

    def test_trailing_samples_discarded(self):
        bank = small_bank()
        rng = np.random.default_rng(2)
        r = rng.normal(size=40) + 1j * rng.normal(size=40)
        extended = np.concatenate([r, rng.normal(size=5)])
        assert np.array_equal(ufmc_analyze(r, bank), ufmc_analyze(extended, bank))


class TestOfdmReduction:
    def test_unit_filter_roundtrip(self):
        g = small_geom()
        bank = small_bank(filter_len=1)
        ops = UfmcOperators(bank)  # T_0 = g (T_u F) F^H diag(1/predistortion)
        t0 = full_dft(ops.tx.toarray(), inverse=True, axis=1) * ops.synth_norm_gain \
            / ops.predistortion
        ru = oracle_matrix("R_u", g, bank)
        assert np.max(np.abs(ru @ t0 - np.eye(32) / np.sqrt(2))) < 1e-12

    def test_unit_filter_predistortion_is_identity(self):
        g = small_geom()
        bank = small_bank(filter_len=1)
        p = UfmcOperators(bank).predistortion
        assert np.max(np.abs(p - 1.0)) < 1e-12


class TestNormalization:
    def test_unit_mean_power_after_normalization(self):
        bank = table_bank()
        t0 = oracle_t0(bank)
        gain = UfmcOperators(bank).synth_norm_gain
        ref = (t0 / gain) @ np.ones(512)
        assert np.mean(np.abs(ref) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_prototype_scale_invariance(self):
        g = small_geom()
        bank_a = FilterBankSpec(g.n_sc, 4, design_chebyshev_prototype(9, 60.0))
        bank_b = FilterBankSpec(g.n_sc, 4, 3.7 * design_chebyshev_prototype(9, 60.0))
        tn_a = UfmcOperators(bank_a).tx.toarray()
        tn_b = UfmcOperators(bank_b).tx.toarray()
        assert np.max(np.abs(tn_a - tn_b)) < 1e-12

    def test_gain_fast_equals_oracle(self):
        g = FrameGeometry(M=8, N=1)
        bank = FilterBankSpec.chebyshev(8, 4, filter_len=1)
        dense = oracle_matrix("T_0", g, bank)
        ref = dense @ np.ones(8)
        oracle_gain = np.sqrt(np.mean(np.abs(ref) ** 2))
        assert UfmcOperators(bank).synth_norm_gain == pytest.approx(oracle_gain, abs=1e-12)

    def test_all_zero_prototype_rejected(self):
        bank = FilterBankSpec(32, 4, np.zeros(5))
        with pytest.raises(ValueError):
            UfmcOperators(bank)


class TestPredistortion:
    def test_flattens_through_response(self):
        # spread ratio of the through-modem all-ones response must shrink
        bank = table_bank()
        ops = UfmcOperators(bank)
        t_n = oracle_t0(bank) / ops.synth_norm_gain
        r_plain = ufmc_analyze(t_n @ np.ones(512), bank)
        r_pre = ufmc_analyze(transmitted(ops, np.ones(512)), bank)
        spread_plain = np.max(np.abs(r_plain)) / np.min(np.abs(r_plain))
        spread_pre = np.max(np.abs(r_pre)) / np.min(np.abs(r_pre))
        assert spread_pre < spread_plain

    def test_recomputed_predistortion_closer_to_one(self):
        bank = table_bank()
        ops = UfmcOperators(bank)
        s_again = ufmc_analyze(transmitted(ops, np.ones(512)), bank)
        p_again = np.mean(np.abs(s_again)) / s_again
        assert np.max(np.abs(p_again - 1.0)) < np.max(np.abs(ops.predistortion - 1.0))

    def test_matches_dense_oracle(self):
        g = small_geom()
        bank = small_bank()
        t_u = full_dft(UfmcOperators(bank).tx.toarray(), inverse=True, axis=1)
        assert np.max(np.abs(t_u - oracle_matrix("T_u", g, bank))) < 1e-10

    @pytest.mark.parametrize("n_sc, n_sc_rb, filter_len", [(512, 4, 129), (32, 4, 9), (16, 8, 9),
                                                          (16, 16, 9), (8, 4, 1)])
    def test_closed_form_is_the_analysed_through_response(self, n_sc, n_sc_rb, filter_len):
        # mean|s| / s of R_u T_0 1, the dense through response, repeats the rb gains
        bank = FilterBankSpec.chebyshev(n_sc, n_sc_rb, filter_len)
        s = oracle_matrix("R_u", FrameGeometry(M=n_sc, N=1), bank) @ oracle_t0(bank).sum(axis=1)
        gains = np.tile(predistortion(bank), bank.n_rb)
        assert np.max(np.abs(gains * s / np.mean(np.abs(s)) - 1)) < 1e-11
        assert np.array_equal(UfmcOperators(bank).predistortion, gains)

    def test_degenerate_filter_raises(self):
        # a prototype with a null exactly on a kept bin has no predistortion
        bank = FilterBankSpec(8, 4, np.zeros(3))
        with pytest.raises((SingularPredistortionError, ValueError)):
            UfmcOperators(bank)
