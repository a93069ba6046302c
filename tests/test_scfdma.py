"""The shared modem chain and the two modems on it: the Zak route against the
SC-FDMA route, loopback, CP algebra, effective channels, the filtered modem at
one block and at N, and the chain's contract for all four schemes (columnwise,
short input, the probe)."""

import numpy as np
import pytest

from ddwave import channel as chan
from ddwave.config import config_from_dict
from ddwave.detect import qam_map
from ddwave.experiments import build_modems
from ddwave.scfdma import CpOtfsModem, FilteredModem
from ddwave.transforms import (
    DimensionError,
    FrameGeometry,
    blockwise_dft,
    full_dft,
    oracle_matrix,
    to_delay_doppler,
    zak_demodulate,
    zak_modulate,
)

from test_channel import still_channel


def geom_8x4():
    return FrameGeometry(M=8, N=4)


def random_complex(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def random_symbols(rng, n_sc, qam_order):
    """One frame of QAM symbols on uniformly random bits."""
    return qam_map(rng.integers(0, 2, size=n_sc * int(np.log2(qam_order))), qam_order)


class TestFrame:
    def test_unit_average_energy(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=32 * 4)
        d = qam_map(bits, 16)
        # i.i.d. unit-variance constellation: exact for the full constellation,
        # the random frame stays close
        assert np.mean(np.abs(d) ** 2) == pytest.approx(1.0, abs=0.2)
        assert d.size == 32

    def test_grid_ordering(self):
        # the M x N view of d that the leakage experiment takes
        g = geom_8x4()
        d = qam_map(np.zeros(32 * 2, dtype=np.int64), 4)
        grid = d.reshape(g.N, g.M).T
        assert grid.shape == (8, 4)
        assert grid[3, 2] == d[2 * 8 + 3]

    def test_wrong_bit_count(self):
        with pytest.raises(ValueError):
            qam_map(np.zeros(7), 16)


class TestZakPath:
    def test_single_doppler_bin_identity(self):
        g = FrameGeometry(M=6, N=1)
        rng = np.random.default_rng(1)
        d = random_complex(rng, 6)
        assert np.allclose(zak_modulate(d, g), d)

    def test_constant_grid_concentrates_on_block_zero(self):
        g = geom_8x4()
        c = 0.7 - 0.2j
        d = np.full(32, c)
        s_t = zak_modulate(d, g)
        assert np.allclose(s_t[:8], np.sqrt(4) * c)
        assert np.max(np.abs(s_t[8:])) < 1e-12

    def test_energy_preserved(self):
        g = geom_8x4()
        rng = np.random.default_rng(2)
        d = random_complex(rng, 32)
        assert np.linalg.norm(zak_modulate(d, g)) == pytest.approx(
            np.linalg.norm(d), abs=1e-12)

    def test_zak_demodulate_inverts(self):
        g = geom_8x4()
        rng = np.random.default_rng(3)
        d = random_complex(rng, 32)
        assert np.max(np.abs(zak_demodulate(zak_modulate(d, g), g) - d)) < 1e-12


class TestPathEquivalence:
    @pytest.mark.parametrize("m_dim,n_dim", [(8, 4), (64, 8)])
    def test_zak_equals_scfdma_route(self, m_dim, n_dim):
        # the modem takes the Zak route; the paper's SC-FDMA route F_MN^H Gamma
        # (and its inverse Gamma^H F_MN) must give the same frame
        g = FrameGeometry(M=m_dim, N=n_dim)
        rng = np.random.default_rng(4)
        modem = CpOtfsModem(g)
        gamma = oracle_matrix("Gamma", g)
        for _ in range(20):
            d = random_symbols(rng, g.n_sc, 16)
            s_t = modem.modulate(d)  # no CP: the delay-time frame itself
            scfdma = full_dft(gamma @ d, inverse=True)
            assert np.max(np.abs(s_t - scfdma)) < 1e-12
            r = random_complex(rng, g.n_sc)
            assert np.max(np.abs(modem.demodulate(r)
                                 - to_delay_doppler(full_dft(r), g))) < 1e-12

    def test_output_energies(self):
        g = geom_8x4()
        rng = np.random.default_rng(5)
        d = random_symbols(rng, g.n_sc, 16)
        s_f = oracle_matrix("Gamma", g) @ d
        x_t = CpOtfsModem(g, cp_len=3).modulate(d)
        assert np.linalg.norm(s_f) == pytest.approx(np.linalg.norm(d), abs=1e-10)
        assert np.linalg.norm(x_t[3:]) == pytest.approx(np.linalg.norm(d), abs=1e-10)
        assert x_t.shape == (35,)


class TestCpHandling:
    def test_cp_is_tail_copy(self):
        x = CpOtfsModem(FrameGeometry(M=4, N=1), cp_len=2).tx @ np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(x, [3.0, 4.0, 1.0, 2.0, 3.0, 4.0])

    def test_tx_operator_copies_tail(self):
        s = np.array([0.0, 1.0, 2.0, 3.0])
        tx = CpOtfsModem(FrameGeometry(M=2, N=2), cp_len=2).tx
        assert np.array_equal(tx @ s, [2.0, 3.0, 0.0, 1.0, 2.0, 3.0])

    def test_rx_operator_inverts_tx(self):
        rng = np.random.default_rng(7)
        s = random_complex(rng, 12)
        modem = CpOtfsModem(FrameGeometry(M=4, N=3), cp_len=5)
        assert np.array_equal(modem.rx @ (modem.tx @ s), s)

    @pytest.mark.parametrize("window_db,tx_window", [(None, False), (60.0, False), (60.0, True)],
                             ids=["no-window", "rx-window", "both-windows"])
    def test_operators_equal_the_oracles(self, window_db, tx_window):
        # tx = A_cp W_tx and rx = W_rx B_cp, with W = I where there is no window
        g = geom_8x4()
        modem = CpOtfsModem(g, 5, window_db, tx_window)
        ones = np.ones(g.n_sc)
        w_rx = ones if window_db is None else modem.window_values
        w_tx = modem.window_values if tx_window else ones
        assert np.array_equal(modem.tx.toarray(),
                              oracle_matrix("A_cp", g, cp_len=5) * w_tx[None, :])
        assert np.array_equal(modem.rx.toarray(),
                              w_rx[:, None] * oracle_matrix("B_cp", g, cp_len=5))

    def test_cp_longer_than_the_frame_rejected(self):
        assert CpOtfsModem(geom_8x4(), cp_len=32).rx_len == 64
        with pytest.raises(DimensionError, match="cp_len"):
            CpOtfsModem(geom_8x4(), cp_len=33)

    def test_loopback_with_cp(self):
        rng = np.random.default_rng(6)
        d = random_symbols(rng, 32, 16)
        modem = CpOtfsModem(geom_8x4(), cp_len=5)
        d_hat = modem.demodulate(modem.modulate(d))
        assert np.max(np.abs(d_hat - d)) < 1e-10

    def test_demodulate_checks_length(self):
        modem = CpOtfsModem(geom_8x4(), cp_len=5)
        with pytest.raises(DimensionError):
            modem.demodulate(np.zeros(32))
        with pytest.raises(DimensionError, match="demodulate"):
            modem.demodulate(np.zeros((36, 2)))
        # the channel tail past rx_len = 37 is dropped
        assert modem.demodulate(np.zeros((40, 2))).shape == (32, 2)

    def test_negative_cp_rejected(self):
        with pytest.raises(DimensionError):
            CpOtfsModem(FrameGeometry(M=4, N=4), cp_len=-1)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_loopback_any_qam_order(self, order):
        rng = np.random.default_rng(order)
        d = random_symbols(rng, 32, order)
        modem = CpOtfsModem(geom_8x4(), cp_len=3)
        assert np.max(np.abs(modem.demodulate(modem.modulate(d)) - d)) < 1e-10


class TestDemodulator:
    def test_zero_in_zero_out(self):
        assert np.all(CpOtfsModem(geom_8x4(), cp_len=2).demodulate(np.zeros(34, complex)) == 0)

    def test_noise_energy_preserved(self):
        # the chain after CP removal is unitary, so kept-noise energy survives
        rng = np.random.default_rng(7)
        eta = random_complex(rng, 36)
        d_tilde = CpOtfsModem(geom_8x4(), cp_len=4).demodulate(eta)
        assert np.linalg.norm(d_tilde) == pytest.approx(np.linalg.norm(eta[4:]), abs=1e-10)


class TestEffectiveChannel:
    def test_identity_and_scalar(self):
        modem = CpOtfsModem(geom_8x4())
        ident = still_channel(modem.rx_len)
        h_dd = modem.effective_channel(ident)
        assert np.max(np.abs(h_dd - np.eye(32))) < 1e-12
        scalar = chan.LtvChannelRealization(
            tap_delays=ident.tap_delays, gains=(0.3 - 1.1j) * ident.gains)
        h_dd_c = modem.effective_channel(scalar)
        assert np.max(np.abs(h_dd_c - (0.3 - 1.1j) * np.eye(32))) < 1e-12

    def test_matrix_path_equals_signal_path(self):
        g = geom_8x4()
        modem = CpOtfsModem(g, cp_len=4)
        cfg = chan.ChannelConfig(profile="tdl_c", bandwidth_hz=1.92e6, n_taps=5)
        ch = chan.generate_channel(cfg, modem.rx_len + 8, seed=11,
                                   delta_nu_hz=g.delta_nu_hz)
        h = chan.delay_time_matrix(ch, modem.rx_len).toarray()
        a_cp = oracle_matrix("A_cp", g, cp_len=4)
        b_cp = oracle_matrix("B_cp", g, cp_len=4)
        gamma = oracle_matrix("Gamma", g)
        f_full = oracle_matrix("F_MN", g)
        # Gamma^H F_MN H_DT F_MN^H Gamma with the CP-stripped channel H_DT
        h_dd = gamma.conj().T @ f_full @ (b_cp @ h @ a_cp) @ f_full.conj().T @ gamma
        rng = np.random.default_rng(8)
        d = random_complex(rng, 32)
        via_matrix = h_dd @ d
        via_signal = modem.demodulate(chan.apply_channel(modem.modulate(d), ch,
                                                         out_len=modem.rx_len))
        assert np.max(np.abs(via_matrix - via_signal)) < 1e-10
        probed = modem.effective_channel(ch)
        assert np.max(np.abs(probed - h_dd)) < 1e-10

    def test_static_channel_block_diagonal_and_circular(self):
        # time-invariant taps + sufficient CP: the kept delay-time block is the
        # circular convolution of s_t, and the effective channel never mixes
        # Doppler indices
        g = geom_8x4()
        modem = CpOtfsModem(g, cp_len=4)
        taps = np.array([1.0 + 0.2j, -0.4j, 0.25])
        ch = chan.LtvChannelRealization(
            tap_delays=np.array([0, 1, 2]),
            gains=np.repeat(taps[:, None], modem.rx_len + 4, axis=1))
        rng = np.random.default_rng(9)
        d = random_complex(rng, 32)
        s_t = zak_modulate(d, g)
        kept = chan.apply_channel(modem.modulate(d), ch, out_len=modem.rx_len)[4:]
        circ = np.zeros(32, dtype=complex)
        for tap, delay in zip(taps, (0, 1, 2)):
            circ += tap * np.roll(s_t, delay)
        assert np.max(np.abs(kept - circ)) < 1e-12
        h_dd = modem.effective_channel(ch)
        for n_out in range(4):
            for n_in in range(4):
                block = h_dd[n_out * 8:(n_out + 1) * 8, n_in * 8:(n_in + 1) * 8]
                if n_out != n_in:
                    assert np.max(np.abs(block)) < 1e-10


@pytest.mark.parametrize("n_blocks", [1, 4])  # gf_otfs's one bank, dr_ufmc's one per delay block
class TestFilteredModem:
    def test_frame_length(self, n_blocks):
        modem = FilteredModem(geom_8x4(), n_blocks, n_sc_rb=4, filter_len=5)
        assert modem.rx_len == 32 + 5 - 1
        assert modem.tx.shape == modem.rx.shape[::-1] == (modem.rx_len, 32)

    def test_n_blocks_must_divide_the_frame(self, n_blocks):
        for bad in (0, 3 * n_blocks):
            with pytest.raises(DimensionError, match="n_blocks"):
                FilteredModem(geom_8x4(), bad, n_sc_rb=4, filter_len=5)

    def test_block_spectra_frame(self, n_blocks):
        # one block: the bins are frequency-Doppler bins s and the frame is tx F_MN^H s,
        # the chain's tx Z Gamma^H s; N blocks: each delay block's M bins, as
        # tx (I_N kron F_M^H), the same numpy call blockwise_dft makes
        g = geom_8x4()
        modem = FilteredModem(g, n_blocks, n_sc_rb=4, filter_len=5)
        rng = np.random.default_rng(11)
        for cols in ((), (3,)):
            f = random_complex(rng, (n_blocks, 32 // n_blocks) + cols)
            frame = modem.tx_from_block_spectra(f)
            s = f.reshape((32,) + cols)
            assert frame.shape == (modem.rx_len,) + cols
            if n_blocks == 1:
                assert np.max(np.abs(frame - modem.modulate(to_delay_doppler(s, g)))) < 1e-12
            else:
                assert np.array_equal(frame, modem.tx @ blockwise_dft(s, g, inverse=True))
        with pytest.raises(DimensionError, match="leading shape"):
            modem.tx_from_block_spectra(np.zeros((2 * n_blocks, 16 // n_blocks)))


@pytest.mark.parametrize("scheme", ["otfs", "gf_otfs", "rw_otfs", "dr_ufmc"])
def test_shared_probe_caches_only_the_basis(scheme):
    # every modem's effective channel is its own signal path applied to the
    # identity basis, and a second realization is probed afresh
    cfg = config_from_dict({"m": 8, "n": 4, "gf_filter_len": 9, "du_filter_len": 5,
                            "rw_cp_len": 8, "schemes": [scheme]})
    modem = build_modems(cfg)[scheme]
    ch_cfg = chan.ChannelConfig(profile="tdl_c", bandwidth_hz=1.92e6,
                                doppler_model="jakes_sum_of_sinusoids")
    eye = np.eye(modem.geom.n_sc, dtype=complex)
    for seed in (31, 32):
        ch = chan.generate_channel(ch_cfg, modem.rx_len + 8, seed=seed,
                                   delta_nu_hz=modem.geom.delta_nu_hz)
        direct = modem.demodulate(chan.apply_channel(modem.modulate(eye), ch,
                                                     out_len=modem.rx_len))
        assert np.array_equal(modem.effective_channel(ch), direct)


@pytest.mark.parametrize("scheme", ["otfs", "gf_otfs", "rw_otfs", "dr_ufmc"])
def test_the_chain_works_columnwise(scheme):
    # the probe modulates the identity and the dense oracle demodulates its
    # columns at once: a matrix must give what its columns give one by one
    cfg = config_from_dict({"m": 8, "n": 4, "gf_filter_len": 9, "du_filter_len": 5,
                            "rw_cp_len": 8, "rw_tx_window": True, "schemes": [scheme]})
    modem = build_modems(cfg)[scheme]
    rng = np.random.default_rng(10)
    d = random_complex(rng, (modem.geom.n_sc, 3))
    r = random_complex(rng, (modem.rx_len, 3))
    x, y = modem.modulate(d), modem.demodulate(r)
    assert x.shape == (modem.rx_len, 3) and y.shape == (modem.geom.n_sc, 3)
    for q in range(3):
        assert np.max(np.abs(x[:, q] - modem.modulate(d[:, q]))) <= 1e-12
        assert np.max(np.abs(y[:, q] - modem.demodulate(r[:, q]))) <= 1e-12
        # the spectral studies modulate SPECTRAL_CHUNK frames a call, and the
        # benchmark's frame-by-frame replay must reproduce them bit for bit
        assert np.array_equal(x[:, q], modem.modulate(d[:, q]))
        assert np.array_equal(to_delay_doppler(d, modem.geom)[:, q],
                              to_delay_doppler(d[:, q], modem.geom))
    if scheme == "dr_ufmc":
        f_blocks = random_complex(rng, (modem.geom.N, modem.geom.M, 3))
        stack = modem.tx_from_block_spectra(f_blocks)
        for q in range(3):
            assert np.array_equal(stack[:, q], modem.tx_from_block_spectra(f_blocks[:, :, q]))


@pytest.mark.parametrize("scheme", ["otfs", "gf_otfs", "rw_otfs", "dr_ufmc"])
def test_demodulate_rejects_short_input_and_drops_the_tail(scheme):
    cfg = config_from_dict({"m": 8, "n": 4, "gf_filter_len": 9, "du_filter_len": 5,
                            "rw_cp_len": 8, "schemes": [scheme]})
    modem = build_modems(cfg)[scheme]
    for shape in ((modem.rx_len - 1,), (modem.rx_len - 1, 2)):
        with pytest.raises(DimensionError, match="^demodulate"):
            modem.demodulate(np.zeros(shape))
    r = random_complex(np.random.default_rng(9), (modem.rx_len + 3, 2))
    assert np.array_equal(modem.demodulate(r), modem.demodulate(r[:modem.rx_len]))


def test_fractional_doppler_dirichlet_spread():
    # half-bin Doppler on a single path: the received grid concentrates on the
    # impulse's delay row and spreads over Doppler; checked against an
    # independent construction from dense operators and the analytic phase ramp
    g = geom_8x4()
    modem = CpOtfsModem(g)
    m0, n0 = 4, 2
    d = np.zeros(32, dtype=complex)
    d[n0 * 8 + m0] = 1.0

    cfg = chan.ChannelConfig(profile="single_path", bandwidth_hz=1.92e6,
                             fractional_doppler_override=0.5, n_taps=1)
    ch = chan.generate_channel(cfg, 64, seed=0, delta_nu_hz=g.delta_nu_hz)
    via_signal = modem.demodulate(chan.apply_channel(modem.modulate(d), ch,
                                                     out_len=modem.rx_len))

    gamma = oracle_matrix("Gamma", g)
    f_full = oracle_matrix("F_MN", g)
    ramp = np.diag(np.exp(2j * np.pi * 0.5 * np.arange(32) / 32))
    expected = gamma.conj().T @ f_full @ ramp @ f_full.conj().T @ gamma @ d
    assert np.max(np.abs(via_signal - expected)) < 1e-10

    grid_power = np.abs(via_signal.reshape(4, 8).T) ** 2
    assert grid_power[m0].sum() / grid_power.sum() > 1 - 1e-10
    profile = grid_power[m0]
    # strongest two Doppler bins straddle the half-bin shift
    assert set(np.argsort(profile)[-2:]) == {n0, (n0 + 1) % 4}
