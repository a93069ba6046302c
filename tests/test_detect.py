"""QAM mapping and MMSE equalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddwave.detect import (
    MmseEqualizer,
    RegularizationRequiredError,
    qam_demap,
    qam_map,
)


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
