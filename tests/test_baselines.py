"""Windowed and per-block-filtered baselines."""

import numpy as np
import pytest
from scipy.signal.windows import chebwin

from ddwave import channel as chan
from ddwave.detect import MmseEqualizer
from ddwave.scfdma import CpOtfsModem, FilteredModem
from ddwave.transforms import (
    DimensionError,
    FrameGeometry,
    blockwise_dft,
    full_dft,
    oracle_matrix,
    zak_modulate,
)

from test_channel import still_channel


def geom_8x4():
    return FrameGeometry(M=8, N=4)


def random_complex(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


class TestWindowSpec:
    """The Dolph-Chebyshev window CpOtfsModem builds from ``window_db``."""

    def test_peak_normalized(self):
        w = CpOtfsModem(FrameGeometry(M=8, N=8), window_db=60.0).window_values
        assert w.max() == pytest.approx(1.0)
        assert np.all(np.isfinite(w))
        assert np.array_equal(w, chebwin(64, at=60.0) / chebwin(64, at=60.0).max())


class TestRwOtfs:
    def test_tx_window_sample_exact(self):
        g = geom_8x4()
        rw = CpOtfsModem(g, 2, window_db=60.0, tx_window=True)
        rng = np.random.default_rng(1)
        d = random_complex(rng, 32)
        s_t = full_dft(oracle_matrix("Gamma", g) @ d, inverse=True)
        windowed = rw.window_values * s_t
        x = rw.modulate(d)
        assert np.max(np.abs(x[2:] - windowed)) < 1e-12
        assert np.max(np.abs(x[:2] - windowed[-2:])) < 1e-12

    def test_windowing_is_spectral_circular_convolution(self):
        # multiplying the delay-time frame by the window convolves its
        # spectrum circularly with the window transform
        w = CpOtfsModem(geom_8x4(), window_db=60.0).window_values
        rng = np.random.default_rng(2)
        s = random_complex(rng, 32)
        lhs = np.fft.fft(w * s)
        w_spec, s_spec = np.fft.fft(w), np.fft.fft(s)
        circ = np.array([np.sum(w_spec * s_spec[(k - np.arange(32)) % 32])
                         for k in range(32)]) / 32
        assert np.max(np.abs(lhs - circ)) < 1e-9

    def test_tx_window_requires_a_window(self):
        with pytest.raises(ValueError):
            CpOtfsModem(geom_8x4(), 2, tx_window=True)

    def test_mmse_recovers_windowed_frame(self):
        rw = CpOtfsModem(geom_8x4(), 8, window_db=60.0)
        ident = still_channel(rw.rx_len + 4)
        h = rw.effective_channel(ident)
        rng = np.random.default_rng(3)
        d = random_complex(rng, 32)
        d_tilde = rw.demodulate(chan.apply_channel(rw.modulate(d), ident,
                                                   out_len=rw.rx_len))
        d_hat = MmseEqualizer(h).solve(d_tilde, 0.0)
        assert np.max(np.abs(d_hat - d)) < 1e-8

    def test_effective_channel_reproduces_signal_path(self):
        g = geom_8x4()
        rw = CpOtfsModem(g, 8, window_db=50.0)
        cfg = chan.ChannelConfig(profile="tdl_c", bandwidth_hz=1.92e6)
        ch = chan.generate_channel(cfg, rw.rx_len + 8, seed=21,
                                   delta_nu_hz=g.delta_nu_hz)
        h = rw.effective_channel(ch)
        rng = np.random.default_rng(4)
        d = random_complex(rng, 32)
        via_signal = rw.demodulate(chan.apply_channel(rw.modulate(d), ch,
                                                      out_len=rw.rx_len))
        assert np.max(np.abs(h @ d - via_signal)) < 1e-10


class TestDrUfmc:
    def test_unit_filter_reduces_to_plain_transmit(self):
        g = geom_8x4()
        dr = FilteredModem(g, g.N, n_sc_rb=4, filter_len=1)
        rng = np.random.default_rng(5)
        d = random_complex(rng, 32)
        assert np.max(np.abs(dr.modulate(d) - zak_modulate(d, g))) < 1e-12
        # receive chain carries the fixed 1/sqrt(2) analysis factor
        d_rt = dr.demodulate(dr.modulate(d))
        assert np.max(np.abs(np.sqrt(2) * d_rt - d)) < 1e-10

    def test_transmit_length(self):
        g = FrameGeometry(M=64, N=8)
        dr = FilteredModem(g, g.N, n_sc_rb=4, filter_len=20)
        assert dr.rx_len == 64 * 8 + 20 - 1
        rng = np.random.default_rng(6)
        assert dr.modulate(random_complex(rng, 512)).shape == (531,)

    def test_overlap_add_interferes_but_mmse_recovers(self):
        g = geom_8x4()
        dr = FilteredModem(g, g.N, n_sc_rb=4, filter_len=5)
        ident = still_channel(dr.rx_len + 4)
        rng = np.random.default_rng(7)
        d = random_complex(rng, 32)
        d_tilde = dr.demodulate(chan.apply_channel(dr.modulate(d), ident,
                                                   out_len=dr.rx_len))
        # raw demodulation is distorted by inter-block interference
        scale = np.vdot(d_tilde, d) / np.vdot(d_tilde, d_tilde)
        assert np.linalg.norm(scale * d_tilde - d) / np.linalg.norm(d) > 1e-3
        h = dr.effective_channel(ident)
        d_hat = MmseEqualizer(h).solve(d_tilde, 0.0)
        assert np.max(np.abs(d_hat - d)) < 1e-8

    def test_effective_channel_reproduces_signal_path(self):
        g = geom_8x4()
        dr = FilteredModem(g, g.N, n_sc_rb=4, filter_len=5)
        cfg = chan.ChannelConfig(profile="tdl_c", bandwidth_hz=1.92e6,
                                 doppler_model="jakes_sum_of_sinusoids")
        ch = chan.generate_channel(cfg, dr.rx_len + 8, seed=17,
                                   delta_nu_hz=g.delta_nu_hz)
        h = dr.effective_channel(ch)
        rng = np.random.default_rng(8)
        d = random_complex(rng, 32)
        via_signal = dr.demodulate(chan.apply_channel(dr.modulate(d), ch,
                                                      out_len=dr.rx_len))
        assert np.max(np.abs(h @ d - via_signal)) < 1e-10

    @pytest.mark.parametrize("m, n", [(8, 4), (16, 8), (64, 8)])
    @pytest.mark.parametrize("filter_len", [1, 5, None])  # None: M + 1, the longest
    def test_operators_match_the_per_block_oracles(self, m, n, filter_len):
        g = FrameGeometry(M=m, N=n)
        dr = FilteredModem(g, g.N, n_sc_rb=4, filter_len=filter_len or m + 1)
        ru, tu = oracle_matrix("R_u", g, dr.bank), oracle_matrix("T_u", g, dr.bank)
        blocks = [slice(b * m, b * m + dr.bank.out_len) for b in range(n)]
        rng = np.random.default_rng(9)
        r = rng.normal(size=(dr.rx_len, 2)) + 1j * rng.normal(size=(dr.rx_len, 2))
        d = rng.normal(size=(g.n_sc, 2)) + 1j * rng.normal(size=(g.n_sc, 2))
        # receive: each block's analysis at its nominal boundaries, then its inverse DFT
        analysed = np.concatenate([ru @ r[blk] for blk in blocks])
        expected = blockwise_dft(analysed, g, inverse=True)
        assert np.max(np.abs(zak_modulate(dr.demodulate(r), g) - expected)) < 1e-12
        # transmit: each block's DFT through the predistorted bank, tails overlap-added
        f = blockwise_dft(zak_modulate(d, g), g)
        x = np.zeros((dr.rx_len, 2), dtype=complex)
        for b, blk in enumerate(blocks):
            x[blk] += tu @ f[b * m:(b + 1) * m]
        assert np.max(np.abs(dr.modulate(d) - x)) < 1e-12

    def test_block_subband_constraint(self):
        with pytest.raises(DimensionError):
            FilteredModem(FrameGeometry(M=6, N=4), 4, n_sc_rb=4, filter_len=5)
