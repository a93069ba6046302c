"""Time-varying channel generation, application, and the delay-time matrix."""

import numpy as np
import pytest

from ddwave.channel import (
    ChannelConfig,
    LtvChannelRealization,
    apply_channel,
    complex_noise,
    delay_time_matrix,
    generate_channel,
)


def still_channel(span: int) -> LtvChannelRealization:
    """The loopback's channel: a single path that does not move, one zero-delay tap of gain 1."""
    return generate_channel(ChannelConfig(profile="single_path", speed_mps=0.0), span, seed=0)


class TestConfig:
    def test_doppler_arithmetic(self):
        cfg = ChannelConfig(carrier_hz=5.9e9, speed_mps=500 / 3.6)
        assert cfg.nu_max_hz == pytest.approx(2733.3, abs=0.5)

    def test_fractional_regime_at_link_bandwidth(self):
        cfg = ChannelConfig(bandwidth_hz=1.92e6)
        delta_nu = 1.92e6 / 512
        assert delta_nu == pytest.approx(3750.0)
        assert cfg.nu_max_hz / delta_nu == pytest.approx(0.729, abs=0.01)

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError):
            ChannelConfig(profile="bogus")


class TestGeneration:
    def test_single_path_zero_doppler_is_identity(self):
        cfg = ChannelConfig(profile="single_path", speed_mps=0.0)
        ch = generate_channel(cfg, 64, seed=0)
        assert np.array_equal(ch.tap_delays, [0])
        assert np.allclose(ch.gains, 1.0)

    def test_tdl_c_taps_at_link_bandwidth(self):
        # 300 ns delay spread quantized at 1.92 MHz: five strongest taps sit
        # on consecutive samples 0..4
        cfg = ChannelConfig(bandwidth_hz=1.92e6, n_taps=5)
        ch = generate_channel(cfg, 64, seed=3)
        assert np.array_equal(ch.tap_delays, [0, 1, 2, 3, 4])
        assert ch.channel_len == 5

    def test_unit_power_normalization(self):
        cfg = ChannelConfig(bandwidth_hz=1.92e6)
        powers = []
        for seed in range(200):
            ch = generate_channel(cfg, 8, seed=seed)
            powers.append(np.sum(np.abs(ch.gains[:, 0]) ** 2))
        assert np.mean(powers) == pytest.approx(1.0, abs=0.01)

    def test_determinism(self):
        cfg = ChannelConfig(bandwidth_hz=1.92e6, doppler_model="jakes_sum_of_sinusoids")
        a = generate_channel(cfg, 32, seed=42)
        b = generate_channel(cfg, 32, seed=42)
        assert np.array_equal(a.gains, b.gains)
        c = generate_channel(cfg, 32, seed=43)
        assert not np.array_equal(a.gains, c.gains)

    def test_fractional_override(self):
        cfg = ChannelConfig(profile="single_path", fractional_doppler_override=0.5)
        delta_nu = 3750.0
        ch = generate_channel(cfg, 16, seed=0, delta_nu_hz=delta_nu)
        expected = np.exp(2j * np.pi * 0.5 * delta_nu * np.arange(16) / 1.92e6)
        assert np.max(np.abs(ch.gains[0] - expected)) < 1e-12

    def test_jakes_override_taps_are_pure_tones(self):
        cfg = ChannelConfig(doppler_model="jakes_sum_of_sinusoids",
                            fractional_doppler_override=0.3)
        delta_nu = cfg.bandwidth_hz / 512
        ch = generate_channel(cfg, 600, seed=3, delta_nu_hz=delta_nu)
        tone = np.exp(2j * np.pi * 0.3 * delta_nu * np.arange(600) / cfg.bandwidth_hz)
        assert ch.tap_delays.size == 5
        for g in ch.gains:
            assert abs(g[0]) > 1e-3
            assert np.max(np.abs(g - g[0] * tone)) < 1e-12

    def test_override_requires_spacing(self):
        cfg = ChannelConfig(profile="single_path", fractional_doppler_override=0.5)
        with pytest.raises(ValueError):
            generate_channel(cfg, 16, seed=0)

    def test_span_too_small(self):
        cfg = ChannelConfig(bandwidth_hz=1.92e6)
        with pytest.raises(ValueError):
            generate_channel(cfg, 3, seed=0)

    def test_jakes_unit_power(self):
        cfg = ChannelConfig(bandwidth_hz=1.92e6, doppler_model="jakes_sum_of_sinusoids")
        powers = [np.sum(np.abs(generate_channel(cfg, 8, seed=s).gains[:, 0]) ** 2)
                  for s in range(300)]
        assert np.mean(powers) == pytest.approx(1.0, rel=0.1)


class TestApply:
    def test_identity(self):
        ch = still_channel(32)
        x = np.arange(8.0) + 1j
        y = apply_channel(x, ch)
        assert np.array_equal(y, x)

    def test_static_taps_equal_convolution(self):
        taps = np.array([0.8, 0.0, -0.3j, 0.1])
        ch = LtvChannelRealization(
            tap_delays=np.array([0, 2, 3]),
            gains=np.stack([np.full(64, taps[0]), np.full(64, taps[2]), np.full(64, taps[3])]))
        rng = np.random.default_rng(0)
        x = rng.normal(size=40) + 1j * rng.normal(size=40)
        y = apply_channel(x, ch)
        h = np.array([0.8, 0.0, -0.3j, 0.1])
        assert np.max(np.abs(y - np.convolve(x, h))) < 1e-12

    def test_matches_dense_matrix(self):
        cfg = ChannelConfig(bandwidth_hz=1.92e6, doppler_model="jakes_sum_of_sinusoids")
        ch = generate_channel(cfg, 80, seed=7)
        rng = np.random.default_rng(1)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        dense = delay_time_matrix(ch, 68).toarray()
        assert np.max(np.abs(apply_channel(x, ch) - dense @ np.pad(x, (0, 4)))) < 1e-12

    def test_columnwise(self):
        cfg = ChannelConfig(bandwidth_hz=1.92e6)
        ch = generate_channel(cfg, 40, seed=2)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 4)) + 1j * rng.normal(size=(30, 4))
        batched = apply_channel(x, ch)
        for col in range(4):
            assert np.max(np.abs(batched[:, col] - apply_channel(x[:, col], ch))) < 1e-14

    @staticmethod
    def _explicit_sum(x, ch, out_len):
        y = np.zeros((out_len,) + x.shape[1:], dtype=complex)
        for i in range(out_len):
            for tau, g in zip(ch.tap_delays, ch.gains):
                if 0 <= i - tau < x.shape[0]:
                    y[i] += g[i] * x[i - tau]
        return y

    @pytest.mark.parametrize("cols", [(), (3,)], ids=["1d", "2d"])
    @pytest.mark.parametrize("extra", [-7, 0, 5], ids=["cut", "full", "padded"])
    def test_time_varying_taps_equal_the_explicit_sum(self, cols, extra):
        # y[i] = sum_l g_l[i] x[i - tau_l] for i < out_len, with out_len below,
        # at and above len(x) + L - 1
        cfg = ChannelConfig(bandwidth_hz=1.92e6, doppler_model="jakes_sum_of_sinusoids")
        ch = generate_channel(cfg, 40, seed=4)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20,) + cols) + 1j * rng.normal(size=(20,) + cols)
        out_len = 20 + ch.channel_len - 1 + extra
        y = apply_channel(x, ch, out_len=out_len)
        assert y.shape == (out_len,) + cols
        assert np.max(np.abs(y - self._explicit_sum(x, ch, out_len))) < 1e-14
        assert delay_time_matrix(ch, out_len, 20).shape == (out_len, 20)

    @pytest.mark.parametrize("out_len", [10, 24, 31])
    def test_span_is_checked_at_its_boundary(self, out_len):
        # the gains are read up to min(out_len, len(x) + L - 1) and no further
        cfg = ChannelConfig(bandwidth_hz=1.92e6, doppler_model="jakes_sum_of_sinusoids")
        ch = generate_channel(cfg, 64, seed=4)
        x = np.random.default_rng(6).normal(size=20) + 0j
        need = min(out_len, 20 + ch.channel_len - 1)

        def cut(span):
            return LtvChannelRealization(tap_delays=ch.tap_delays, gains=ch.gains[:, :span])
        assert np.array_equal(apply_channel(x, cut(need), out_len),
                              apply_channel(x, ch, out_len))
        with pytest.raises(ValueError, match=f"spans {need - 1} samples, need {need}"):
            apply_channel(x, cut(need - 1), out_len)


class TestDelayTimeMatrix:
    def test_identity_channel(self):
        ch = still_channel(16)
        assert np.array_equal(ch.gains, np.ones((1, 16)))
        assert np.array_equal(delay_time_matrix(ch, 10).toarray(), np.eye(10))

    def test_static_is_banded_toeplitz(self):
        ch = LtvChannelRealization(
            tap_delays=np.array([0, 1]),
            gains=np.stack([np.full(16, 1.0 + 0j), np.full(16, 0.5j)]))
        h = delay_time_matrix(ch, 6).toarray()
        assert np.allclose(np.diag(h), 1.0)
        assert np.allclose(np.diag(h, -1), 0.5j)
        assert np.max(np.abs(np.triu(h, 1))) == 0.0

    def test_cp_stripped_static_matrix_wraps_tail(self):
        # with cp >= channel memory, B_cp H A_cp is circulant for static taps
        from ddwave.transforms import FrameGeometry, oracle_matrix
        g = FrameGeometry(M=4, N=2)
        taps = np.array([1.0, 0.4j, -0.2])
        ch = LtvChannelRealization(
            tap_delays=np.array([0, 1, 2]),
            gains=np.repeat(taps[:, None], 10, axis=1))
        h = delay_time_matrix(ch, 10).toarray()
        h_dt = oracle_matrix("B_cp", g, cp_len=2) @ h @ oracle_matrix("A_cp", g, cp_len=2)
        first_row = np.zeros(8, dtype=complex)
        first_row[0] = 1.0
        first_row[-1] = 0.4j
        first_row[-2] = -0.2
        assert np.max(np.abs(h_dt[0] - first_row)) < 1e-12
        for i in range(1, 8):
            assert np.max(np.abs(h_dt[i] - np.roll(h_dt[i - 1], 1))) < 1e-12


class TestAwgn:
    # AWGN of variance v is sqrt(v) * complex_noise, as the BER sweep draws it
    def test_variance_level(self):
        rng = np.random.default_rng(1)
        y = np.sqrt(0.3) * complex_noise(rng, 100_000)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.3, rel=0.02)

    def test_circular_symmetry(self):
        rng = np.random.default_rng(2)
        y = complex_noise(rng, 200_000)
        assert np.var(y.real) == pytest.approx(0.5, rel=0.03)
        assert np.var(y.imag) == pytest.approx(0.5, rel=0.03)

    def test_unit_noise_helper(self):
        rng = np.random.default_rng(3)
        eta = complex_noise(rng, 100_000)
        assert np.mean(np.abs(eta) ** 2) == pytest.approx(1.0, rel=0.02)
