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
    dolph_chebyshev_window,
    predistortion,
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


def analysed(r, bank):
    """R_u r as the filtered modems' receiver takes it: the tail fold, then the unitary DFT."""
    return full_dft(analysis_fold(bank) @ r)


def tiled_predistortion(bank):
    """The predistortion of every bin: the rb gains repeated over the bank's subbands."""
    return np.tile(predistortion(bank), bank.n_rb)


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
    """The prototype that ``FilterBankSpec.chebyshev`` designs."""

    def test_degenerate_length_one(self):
        assert np.array_equal(FilterBankSpec.chebyshev(32, 4, 1, 60.0).prototype, [1.0])

    def test_symmetric_and_unit_norm(self):
        w = table_bank().prototype
        assert np.max(np.abs(w - w[::-1])) < 1e-12
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_equiripple_sidelobe_level(self):
        w = table_bank().prototype
        response = np.abs(np.fft.fft(w, 4096))
        response_db = 20 * np.log10(response / response.max() + 1e-300)
        # first spectral null bounds the mainlobe; everything beyond is stopband
        first_null = 1 + np.argmax(np.diff(response[:2048]) > 0)
        assert np.max(response_db[first_null:2048]) <= -59.5

    def test_rejects_bad_args(self):
        with pytest.raises(DimensionError):
            FilterBankSpec.chebyshev(32, 4, 0, 60.0)
        with pytest.raises(ValueError):
            FilterBankSpec.chebyshev(32, 4, 5, -3.0)


class TestFilterBankSpec:
    def test_subband_centers(self):
        # subband i is centred on its bins' midpoint (i + 0.5) n_sc_rb - 0.5: the symmetric
        # prototype's through response mirrors about it, in the dense oracle and the closed form
        bank = small_bank()
        s = oracle_matrix("R_u", small_geom(), bank) @ oracle_t0(bank).sum(axis=1)
        mags = np.abs(s).reshape(bank.n_rb, bank.n_sc_rb)
        assert np.allclose(mags, mags[:, ::-1])
        assert not np.allclose(mags, np.roll(mags, 1, axis=1))  # a flat one mirrors about any bin
        gains = np.abs(predistortion(bank))
        assert np.allclose(gains, gains[::-1])

    def test_filter_too_long_rejected(self):
        with pytest.raises(DimensionError):
            FilterBankSpec(8, 4, np.ones(10))

    def test_subband_size_must_divide(self):
        with pytest.raises(DimensionError):
            FilterBankSpec.chebyshev(16, 3, filter_len=1)

    def test_chebyshev_bank_uses_the_designed_prototype(self):
        bank = FilterBankSpec.chebyshev(32, 4, 9, atten_db=50.0)
        assert (bank.n_sc, bank.n_sc_rb, bank.n_rb, bank.filter_len) == (32, 4, 8, 9)
        w = dolph_chebyshev_window(9, 50.0)
        assert np.array_equal(bank.prototype, w / np.linalg.norm(w))

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
        dense = oracle_matrix("T_0", g, bank) * tiled_predistortion(bank) / ops.synth_norm_gain
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
        assert np.all(analysed(np.zeros(40), bank) == 0)

    def test_unit_impulse(self):
        bank = small_bank()
        r = np.zeros(40, dtype=complex)
        r[0] = 1.0
        out = analysed(r, bank)
        assert np.allclose(out, 1 / np.sqrt(64))

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


class TestOfdmReduction:
    def test_unit_filter_roundtrip(self):
        g = small_geom()
        bank = small_bank(filter_len=1)
        ops = UfmcOperators(bank)  # T_0 = g (T_u F) F^H diag(1/predistortion)
        t0 = full_dft(ops.tx.toarray(), inverse=True, axis=1) * ops.synth_norm_gain \
            / tiled_predistortion(bank)
        ru = oracle_matrix("R_u", g, bank)
        assert np.max(np.abs(ru @ t0 - np.eye(32) / np.sqrt(2))) < 1e-12

    def test_unit_filter_predistortion_is_identity(self):
        g = small_geom()
        bank = small_bank(filter_len=1)
        p = predistortion(bank)
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
        bank_a = FilterBankSpec.chebyshev(g.n_sc, 4, 9, 60.0)
        bank_b = FilterBankSpec(g.n_sc, 4, 3.7 * bank_a.prototype)
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
        r_plain = analysed(t_n @ np.ones(512), bank)
        r_pre = analysed(transmitted(ops, np.ones(512)), bank)
        spread_plain = np.max(np.abs(r_plain)) / np.min(np.abs(r_plain))
        spread_pre = np.max(np.abs(r_pre)) / np.min(np.abs(r_pre))
        assert spread_pre < spread_plain

    def test_recomputed_predistortion_closer_to_one(self):
        bank = table_bank()
        ops = UfmcOperators(bank)
        s_again = analysed(transmitted(ops, np.ones(512)), bank)
        p_again = np.mean(np.abs(s_again)) / s_again
        assert np.max(np.abs(p_again - 1.0)) < np.max(np.abs(tiled_predistortion(bank) - 1.0))

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
        gains = tiled_predistortion(bank)
        assert np.max(np.abs(gains * s / np.mean(np.abs(s)) - 1)) < 1e-11
        # and the modulator applies them: T_u = T_0 diag(gains) / g
        ops = UfmcOperators(bank)
        t_u = full_dft(ops.tx.toarray(), inverse=True, axis=1)
        assert np.max(np.abs(t_u - oracle_t0(bank) * gains / ops.synth_norm_gain)) < 1e-10

    def test_degenerate_filter_raises(self):
        # a prototype with a null exactly on a kept bin has no predistortion
        bank = FilterBankSpec(8, 4, np.zeros(3))
        with pytest.raises((SingularPredistortionError, ValueError)):
            UfmcOperators(bank)
