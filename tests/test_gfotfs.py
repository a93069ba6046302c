"""Globally filtered transceiver: chain identities, effective channel, noise."""

import numpy as np
import pytest

from ddwave import channel as chan
from ddwave.scfdma import FilteredModem
from ddwave.transforms import FrameGeometry, oracle_matrix

from test_channel import still_channel


def small_modem(filter_len=9):
    return FilteredModem(FrameGeometry(M=8, N=4), 1, n_sc_rb=4, filter_len=filter_len)


def table_modem():
    return FilteredModem(FrameGeometry(M=64, N=8, bandwidth_hz=1.92e6), 1,
                         n_sc_rb=4, filter_len=129)


def random_complex(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


class TestModulator:
    def test_zero_in_zero_out(self):
        gm = small_modem()
        out = gm.modulate(np.zeros(32, dtype=complex))
        assert out.shape == (40,)
        assert np.all(out == 0)

    def test_linearity(self):
        gm = small_modem()
        rng = np.random.default_rng(0)
        d1, d2 = random_complex(rng, 32), random_complex(rng, 32)
        a, b = 1.3 - 0.4j, -0.7j
        lhs = gm.modulate(a * d1 + b * d2)
        rhs = a * gm.modulate(d1) + b * gm.modulate(d2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_frame_length_contract(self):
        gm = table_modem()
        assert gm.rx_len == 512 + 129 - 1 == 640
        rng = np.random.default_rng(1)
        assert gm.modulate(random_complex(rng, 512)).shape == (640,)

    def test_matches_dense_operators(self):
        gm = small_modem()
        g = gm.geom
        dense = oracle_matrix("T_u", g, gm.bank) @ oracle_matrix("Gamma", g)
        rng = np.random.default_rng(2)
        d = random_complex(rng, 32)
        assert np.max(np.abs(gm.modulate(d) - dense @ d)) < 1e-10


class TestDemodulator:
    def test_zero(self):
        gm = small_modem()
        assert np.all(gm.demodulate(np.zeros(40, dtype=complex)) == 0)

    def test_matches_dense_operators(self):
        gm = small_modem()
        g = gm.geom
        dense = oracle_matrix("Gamma", g).conj().T @ oracle_matrix("R_u", g, gm.bank)
        rng = np.random.default_rng(3)
        r = random_complex(rng, 40)
        assert np.max(np.abs(gm.demodulate(r) - dense @ r)) < 1e-10

    def test_unit_filter_reduces_to_plain_modem(self):
        # up to the fixed 1/sqrt(2) factor of the zero-padded analysis
        gm = small_modem(filter_len=1)
        rng = np.random.default_rng(4)
        d = random_complex(rng, 32)
        assert np.max(np.abs(np.sqrt(2) * gm.demodulate(gm.modulate(d)) - d)) < 1e-10

    def test_identity_channel_transparency(self):
        # predistortion makes the channel-free through response an exact
        # scaled identity; bound frozen from bring-up at Table-1 scale
        gm = table_modem()
        rng = np.random.default_rng(5)
        d = random_complex(rng, 512)
        d_tilde = gm.demodulate(gm.modulate(d))
        scale = np.vdot(d_tilde, d) / np.vdot(d_tilde, d_tilde)
        evm = np.linalg.norm(scale * d_tilde - d) / np.linalg.norm(d)
        assert evm < 1e-10

    def test_noise_coloring_covariance(self):
        # demodulated pure-noise covariance approaches the analytic form
        gm = small_modem()
        g = gm.geom
        ru = oracle_matrix("R_u", g, gm.bank)
        gamma = oracle_matrix("Gamma", g)
        var = 0.8
        target = gamma.conj().T @ ru @ ru.conj().T @ gamma * var
        rng = np.random.default_rng(6)
        acc = np.zeros((32, 32), dtype=complex)
        n_draws = 20_000
        for _ in range(n_draws):
            eta = np.sqrt(var) * chan.complex_noise(rng, 40)
            y = gm.demodulate(eta)
            acc += np.outer(y, y.conj())
        sample_cov = acc / n_draws
        rel = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
        assert rel < 0.1


class TestEffectiveChannel:
    def test_unit_tap_channel_gives_through_modem_matrix(self):
        gm = small_modem()
        ident = still_channel(gm.rx_len + 4)
        h = gm.effective_channel(ident)
        through = gm.demodulate(gm.modulate(np.eye(32, dtype=complex)))
        assert np.max(np.abs(h - through)) < 1e-12

    def test_channel_scaling_linearity(self):
        gm = small_modem()
        base = still_channel(gm.rx_len + 4)
        scaled = chan.LtvChannelRealization(
            tap_delays=base.tap_delays, gains=2.5j * base.gains)
        assert np.max(np.abs(gm.effective_channel(scaled)
                             - 2.5j * gm.effective_channel(base))) < 1e-12

    @pytest.mark.parametrize("doppler_model", ["single_shift_per_tap",
                                               "jakes_sum_of_sinusoids"])
    def test_probed_channel_reproduces_signal_path(self, doppler_model):
        gm = small_modem()
        cfg = chan.ChannelConfig(profile="tdl_c", bandwidth_hz=1.92e6,
                                 doppler_model=doppler_model)
        ch = chan.generate_channel(cfg, gm.rx_len + 8, seed=13,
                                   delta_nu_hz=gm.geom.delta_nu_hz)
        h = gm.effective_channel(ch)
        rng = np.random.default_rng(7)
        d = random_complex(rng, 32)
        via_signal = gm.demodulate(chan.apply_channel(gm.modulate(d), ch,
                                                      out_len=gm.rx_len))
        assert np.max(np.abs(h @ d - via_signal)) < 1e-10

    def test_static_two_tap_matches_dense_product(self):
        gm = small_modem()
        g = gm.geom
        taps = np.array([0.9, 0.435j])
        ch = chan.LtvChannelRealization(
            tap_delays=np.array([0, 1]),
            gains=np.repeat(taps[:, None], gm.rx_len + 2, axis=1))
        h_bar = chan.delay_time_matrix(ch, gm.rx_len).toarray()
        dense = (oracle_matrix("Gamma", g).conj().T
                 @ oracle_matrix("R_u", g, gm.bank)
                 @ h_bar
                 @ oracle_matrix("T_u", g, gm.bank)
                 @ oracle_matrix("Gamma", g))
        assert np.max(np.abs(gm.effective_channel(ch) - dense)) < 1e-10

