"""Transform kernels against their dense-matrix counterparts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddwave.transforms import (
    DimensionError,
    FrameGeometry,
    dft_matrix,
    full_dft,
    oracle_matrix,
    to_delay_doppler,
    zak_demodulate,
    zak_modulate,
)
from ddwave.ufmc import FilterBankSpec


def random_complex(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def block_dft(x, g, inverse=False):
    """(I_N kron F_M) x, the unitary DFT of the N x M grid along its delay axis (axis 1)."""
    return full_dft(x.reshape((g.N, g.M) + x.shape[1:]), inverse, axis=1).reshape(x.shape)


class TestFrameGeometry:
    def test_derived_fields(self):
        g = FrameGeometry(M=64, N=8, bandwidth_hz=1.92e6)
        assert g.n_sc == 512
        assert FilterBankSpec.chebyshev(g.n_sc, 4, filter_len=1).n_rb == 128
        # Doppler spacing relation: delta_nu * M * N * delta_tau == 1, with the
        # delay spacing delta_tau = 1 / bandwidth
        assert g.delta_nu_hz * g.M * g.N / g.bandwidth_hz == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(DimensionError):
            FrameGeometry(M=0, N=4)
        with pytest.raises(DimensionError):
            FrameGeometry(M=4, N=4, bandwidth_hz=0.0)

    def test_has_only_the_grid_fields(self):
        assert [f.name for f in dataclasses.fields(FrameGeometry)] == ["M", "N", "bandwidth_hz"]


class TestDftMatrix:
    def test_size_one_is_identity(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_size_two(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(dft_matrix(2), expected, atol=1e-15)

    def test_unitary(self):
        f4 = dft_matrix(4)
        assert np.max(np.abs(f4 @ f4.conj().T - np.eye(4))) < 1e-14

    def test_rejects_zero(self):
        with pytest.raises(DimensionError):
            dft_matrix(0)


def twiddle(g):
    return np.diag(oracle_matrix("Omega", g))


class TestTwiddle:
    def test_first_block_all_ones(self):
        for m_dim, n_dim in ((2, 2), (5, 3), (8, 4)):
            w = twiddle(FrameGeometry(M=m_dim, N=n_dim))
            assert np.allclose(w[:m_dim], 1.0)

    def test_2x2_block_one(self):
        w = twiddle(FrameGeometry(M=2, N=2))
        assert np.allclose(w[2:], [1.0, -1.0j])

    def test_4x4_entry(self):
        w = twiddle(FrameGeometry(M=4, N=4))
        # block n=2, position m=2
        assert w[2 * 4 + 2] == pytest.approx(-1.0j)

    def test_unit_modulus(self):
        w = twiddle(FrameGeometry(M=8, N=4))
        assert np.allclose(np.abs(w), 1.0)


class TestInterleave:
    def test_2x2(self):
        x = np.arange(4.0)
        assert np.array_equal(oracle_matrix("Psi", FrameGeometry(M=2, N=2)) @ x,
                              [0.0, 2.0, 1.0, 3.0])

    def test_3x2(self):
        x = np.arange(6.0)
        assert np.array_equal(oracle_matrix("Psi", FrameGeometry(M=3, N=2)) @ x,
                              [0.0, 3.0, 1.0, 4.0, 2.0, 5.0])

    def test_single_doppler_bin_is_identity(self):
        x = np.arange(5.0)
        assert np.array_equal(oracle_matrix("Psi", FrameGeometry(M=5, N=1)) @ x, x)

    def test_matches_dense_permutation(self):
        # Psi^T is Gamma^H's first step, before the inverse block DFTs and the twiddle
        for m_dim, n_dim in ((2, 2), (3, 2), (4, 3)):
            g = FrameGeometry(M=m_dim, N=n_dim)
            x = np.arange(m_dim * n_dim, dtype=float)
            psi = oracle_matrix("Psi", g)
            assert np.array_equal(to_delay_doppler(x, g),
                                  block_dft(psi.T @ x, g, inverse=True) * np.conj(twiddle(g)))

    @given(m_dim=st.integers(1, 9), n_dim=st.integers(1, 7), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_permutation_roundtrip(self, m_dim, n_dim, data):
        g = FrameGeometry(M=m_dim, N=n_dim)
        psi = oracle_matrix("Psi", g)
        x = np.arange(m_dim * n_dim, dtype=float)
        y = psi @ x
        assert sorted(y.tolist()) == x.tolist()
        assert np.array_equal(psi.T @ y, x)

    def test_length_mismatch(self):
        g = FrameGeometry(M=2, N=2)
        with pytest.raises(DimensionError):
            to_delay_doppler(np.zeros(5), g)


class TestBlockwiseDft:
    """(I_N kron F_M), Gamma's block DFTs: full_dft of the N x M grid along its delay axis."""

    def test_single_sample_blocks(self):
        g = FrameGeometry(M=1, N=6)
        rng = np.random.default_rng(0)
        x = random_complex(rng, 6)
        assert np.allclose(block_dft(x, g), x)

    def test_roundtrip(self):
        g = FrameGeometry(M=8, N=4)
        rng = np.random.default_rng(1)
        x = random_complex(rng, 32)
        assert np.max(np.abs(block_dft(block_dft(x, g), g, inverse=True) - x)) < 1e-12

    def test_impulse_block(self):
        g = FrameGeometry(M=4, N=2)
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        y = block_dft(x, g)
        assert np.allclose(y[:4], 0.5)
        assert np.allclose(y[4:], 0.0)

    def test_energy_preserved(self):
        g = FrameGeometry(M=8, N=3)
        rng = np.random.default_rng(2)
        x = random_complex(rng, 24)
        assert np.linalg.norm(block_dft(x, g)) == pytest.approx(np.linalg.norm(x))


class TestCooleyTukeyFactorization:
    @pytest.mark.parametrize("m_dim", [2, 3, 4, 8])
    @pytest.mark.parametrize("n_dim", [2, 3, 4])
    def test_identity(self, m_dim, n_dim):
        g = FrameGeometry(M=m_dim, N=n_dim)
        lhs = oracle_matrix("F_MN", g)
        rhs = (oracle_matrix("Psi", g) @ oracle_matrix("I_N_kron_F_M", g)
               @ oracle_matrix("Omega", g) @ np.kron(dft_matrix(n_dim), np.eye(m_dim)))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("op", ["F_MN", "Psi", "Omega", "I_N_kron_F_M", "Gamma"])
    def test_operator_unitary(self, op):
        g = FrameGeometry(M=4, N=3)
        u = oracle_matrix(op, g)
        assert np.max(np.abs(u @ u.conj().T - np.eye(12))) < 1e-12


class TestFastVsOracle:
    def test_gamma_paths_match_dense(self):
        g = FrameGeometry(M=8, N=4)
        gamma = oracle_matrix("Gamma", g)
        rng = np.random.default_rng(3)
        d = random_complex(rng, 32)
        # Gamma = F_MN Z: the forward map is the Zak route's frame, transformed
        assert np.max(np.abs(full_dft(zak_modulate(d, g)) - gamma @ d)) < 1e-10
        assert np.max(np.abs(to_delay_doppler(gamma @ d, g) - d)) < 1e-10

    def test_matrix_arguments_columnwise(self):
        g = FrameGeometry(M=4, N=3)
        rng = np.random.default_rng(5)
        x = random_complex(rng, (12, 5))
        gamma = oracle_matrix("Gamma", g)
        assert np.max(np.abs(full_dft(zak_modulate(x, g)) - gamma @ x)) < 1e-10
        assert np.max(np.abs(to_delay_doppler(x, g) - gamma.conj().T @ x)) < 1e-10

    def test_full_dft_matches_dense(self):
        rng = np.random.default_rng(6)
        x = random_complex(rng, 24)
        f = dft_matrix(24)
        assert np.max(np.abs(full_dft(x) - f @ x)) < 1e-12
        assert np.max(np.abs(full_dft(x, inverse=True) - f.conj().T @ x)) < 1e-12

    @given(m_dim=st.integers(1, 9), n_dim=st.integers(1, 7), cols=st.sampled_from([None, 3]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_map_matches_its_dense_operator(self, m_dim, n_dim, cols, seed):
        g = FrameGeometry(M=m_dim, N=n_dim)
        x = random_complex(np.random.default_rng(seed), g.n_sc if cols is None else (g.n_sc, cols))
        gamma = oracle_matrix("Gamma", g)
        f_n, eye_m = dft_matrix(n_dim), np.eye(m_dim)
        blocks = oracle_matrix("I_N_kron_F_M", g)
        assert np.max(np.abs(full_dft(zak_modulate(x, g)) - gamma @ x)) < 1e-10
        assert np.max(np.abs(to_delay_doppler(x, g) - gamma.conj().T @ x)) < 1e-10
        assert np.max(np.abs(zak_modulate(x, g) - np.kron(f_n.conj().T, eye_m) @ x)) < 1e-12
        assert np.max(np.abs(zak_demodulate(x, g) - np.kron(f_n, eye_m) @ x)) < 1e-12
        assert np.max(np.abs(block_dft(x, g) - blocks @ x)) < 1e-12
        assert np.max(np.abs(block_dft(x, g, inverse=True) - blocks.conj().T @ x)) < 1e-12
        x2d = x.reshape(g.n_sc, -1)
        k = x2d.shape[1]
        assert np.max(np.abs(full_dft(x2d, axis=1) - x2d @ dft_matrix(k).T)) < 1e-12


class TestCyclicPrefix:
    def test_zero_cp_matrix_is_identity(self):
        g = FrameGeometry(M=2, N=2)
        assert np.array_equal(oracle_matrix("A_cp", g, cp_len=0), np.eye(4))

    def test_dense_cp_identity(self):
        g = FrameGeometry(M=4, N=3)
        a_cp = oracle_matrix("A_cp", g, cp_len=5)
        b_cp = oracle_matrix("B_cp", g, cp_len=5)
        assert np.array_equal(b_cp @ a_cp, np.eye(12))

    def test_cp_oracles_require_cp_len(self):
        for op in ("A_cp", "B_cp"):
            with pytest.raises(DimensionError):
                oracle_matrix(op, FrameGeometry(M=2, N=2))


def test_unknown_oracle_id_rejected():
    with pytest.raises(DimensionError):
        oracle_matrix("nope", FrameGeometry(M=2, N=2))
