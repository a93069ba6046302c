"""Filter bank design, synthesis/analysis, normalization, and predistortion."""

import warnings

import numpy as np
import pytest

from ddwave.transforms import DimensionError, FrameGeometry, oracle_matrix
from ddwave.ufmc import (
    FilterBankSpec,
    SingularPredistortionError,
    UfmcOperators,
    design_chebyshev_prototype,
    synthesis_matrix,
    ufmc_analyze,
)


def small_geom():
    return FrameGeometry(M=8, N=4)


def small_bank(filter_len=9):
    return FilterBankSpec.chebyshev(32, 4, filter_len)


def table_bank():
    return FilterBankSpec.chebyshev(512, 4, 129, atten_db=60.0)


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
        out = synthesis_matrix(bank) @ np.zeros(32, dtype=complex)
        assert out.shape == (40,)
        assert np.all(out == 0)

    def test_matches_dense_oracle(self):
        g = small_geom()
        bank = small_bank()
        rng = np.random.default_rng(0)
        s_f = rng.normal(size=32) + 1j * rng.normal(size=32)
        dense = oracle_matrix("T_0", g, bank)
        assert np.max(np.abs(synthesis_matrix(bank) @ s_f - dense @ s_f)) < 1e-10
        assert np.max(np.abs(synthesis_matrix(bank) - dense)) < 1e-10

    def test_single_subband_containment(self):
        bank = table_bank()
        s_f = np.zeros(512, dtype=complex)
        s_f[200:204] = 1.0  # subband 50
        out = synthesis_matrix(bank) @ s_f
        spec = np.abs(np.fft.fft(out, 8 * 512)) ** 2
        bins = np.arange(8 * 512) / 8.0
        inband = (bins >= 195) & (bins <= 209)
        total = spec.sum()
        assert spec[inband].sum() / total > 0.99

    def test_containment_improves_with_attenuation(self):
        leak = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for atten in (40.0, 60.0, 80.0):
                bank = FilterBankSpec.chebyshev(512, 4, 129, atten_db=atten)
                s_f = np.zeros(512, dtype=complex)
                s_f[200:204] = 1.0
                out = synthesis_matrix(bank) @ s_f
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
        t0 = synthesis_matrix(bank)
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
        t0 = synthesis_matrix(bank)
        gain = UfmcOperators(bank).synth_norm_gain
        ref = (t0 / gain) @ np.ones(512)
        assert np.mean(np.abs(ref) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_prototype_scale_invariance(self):
        g = small_geom()
        bank_a = FilterBankSpec(g.n_sc, 4, design_chebyshev_prototype(9, 60.0))
        bank_b = FilterBankSpec(g.n_sc, 4, 3.7 * design_chebyshev_prototype(9, 60.0))
        t0_a, t0_b = synthesis_matrix(bank_a), synthesis_matrix(bank_b)
        tn_a = t0_a / UfmcOperators(bank_a).synth_norm_gain
        tn_b = t0_b / UfmcOperators(bank_b).synth_norm_gain
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
        t_n = synthesis_matrix(bank) / ops.synth_norm_gain
        r_plain = ufmc_analyze(t_n @ np.ones(512), bank)
        r_pre = ufmc_analyze(ops.tu @ np.ones(512), bank)
        spread_plain = np.max(np.abs(r_plain)) / np.min(np.abs(r_plain))
        spread_pre = np.max(np.abs(r_pre)) / np.min(np.abs(r_pre))
        assert spread_pre < spread_plain

    def test_recomputed_predistortion_closer_to_one(self):
        bank = table_bank()
        ops = UfmcOperators(bank)
        s_again = ufmc_analyze(ops.tu @ np.ones(512), bank)
        p_again = np.mean(np.abs(s_again)) / s_again
        assert np.max(np.abs(p_again - 1.0)) < np.max(np.abs(ops.predistortion - 1.0))

    def test_matches_dense_oracle(self):
        g = small_geom()
        bank = small_bank()
        ops = UfmcOperators(bank)
        assert np.max(np.abs(ops.tu - oracle_matrix("T_u", g, bank))) < 1e-10

    def test_degenerate_filter_raises(self):
        # a prototype with a null exactly on a kept bin has no predistortion
        bank = FilterBankSpec(8, 4, np.zeros(3))
        with pytest.raises((SingularPredistortionError, ValueError)):
            UfmcOperators(bank)
