"""The shared modem chain and the two modems on it.

Topics, in order: the frame and the Zak route against the SC-FDMA route; the
CP operators and rw_otfs's window; the filtered modem at one block and at N,
with gf_otfs's dense chain and dr_ufmc's per-block oracles; the chain's
contract, each clause tested once for all four schemes (zero in, zero out,
linearity, frame length, the unit filter, columnwise, short input); the
effective channel (the probe against the signal path, a still or scaled
channel, the dense oracle products, fractional Doppler); and detection and
noise (zero-noise MMSE on a still channel, the noise after demodulation).
"""

import numpy as np
import pytest
from scipy.signal.windows import chebwin

from ddwave import channel as chan
from ddwave.config import SCHEMES, config_from_dict
from ddwave.detect import MmseEqualizer, qam_map
from ddwave.experiments import build_modems
from ddwave.scfdma import CpOtfsModem, FilteredModem
from ddwave.transforms import (
    DimensionError,
    FrameGeometry,
    full_dft,
    oracle_matrix,
    to_delay_doppler,
    zak_demodulate,
    zak_modulate,
)
from ddwave.ufmc import dolph_chebyshev_window

from test_channel import still_channel
from test_transforms import block_dft


def geom_8x4():
    return FrameGeometry(M=8, N=4)


def random_complex(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def random_symbols(rng, n_sc, qam_order):
    """One frame of QAM symbols on uniformly random bits."""
    return qam_map(rng.integers(0, 2, size=n_sc * int(np.log2(qam_order))), qam_order)


def modem_8x4(scheme, **fields):
    """``scheme``'s modem from the 8x4 config, ``fields`` overriding it: gf_otfs is one bank
    of length 9, dr_ufmc four of length 5, otfs has a 4-sample CP, rw_otfs 8 and a 50 dB window."""
    cfg = config_from_dict({"m": 8, "n": 4, "gf_filter_len": 9, "du_filter_len": 5,
                            "rw_cp_len": 8, "schemes": [scheme]} | fields)
    return build_modems(cfg)[scheme]


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
        w_rx = np.ones(g.n_sc) if window_db is None else dolph_chebyshev_window(g.n_sc, window_db)
        w_tx = w_rx if tx_window else np.ones(g.n_sc)
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


class TestRwOtfs:
    def test_window_peak_normalized(self):
        # the Dolph-Chebyshev window built from window_db; with no prefix,
        # rx is the receive window on its diagonal
        w = CpOtfsModem(FrameGeometry(M=8, N=8), window_db=60.0).rx.toarray().diagonal()
        assert w.max() == pytest.approx(1.0)
        assert np.all(np.isfinite(w))
        assert np.array_equal(w, chebwin(64, at=60.0) / chebwin(64, at=60.0).max())

    def test_tx_window_sample_exact(self):
        g = geom_8x4()
        rw = CpOtfsModem(g, 2, window_db=60.0, tx_window=True)
        rng = np.random.default_rng(1)
        d = random_complex(rng, 32)
        s_t = full_dft(oracle_matrix("Gamma", g) @ d, inverse=True)
        windowed = dolph_chebyshev_window(32, 60.0) * s_t
        x = rw.modulate(d)
        assert np.max(np.abs(x[2:] - windowed)) < 1e-12
        assert np.max(np.abs(x[:2] - windowed[-2:])) < 1e-12

    def test_windowing_is_spectral_circular_convolution(self):
        # multiplying the delay-time frame by the window convolves its
        # spectrum circularly with the window transform
        w = dolph_chebyshev_window(32, 60.0)
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


@pytest.mark.parametrize("n_blocks", [1, 4])  # gf_otfs's one bank, dr_ufmc's one per delay block
class TestFilteredModem:
    def test_n_blocks_must_divide_the_frame(self, n_blocks):
        for bad in (0, 3 * n_blocks):
            with pytest.raises(DimensionError, match="n_blocks"):
                FilteredModem(geom_8x4(), bad, n_sc_rb=4, filter_len=5)

    def test_block_spectra_frame(self, n_blocks):
        # one block: the bins are frequency-Doppler bins s and the frame is tx F_MN^H s,
        # the chain's tx Z Gamma^H s; N blocks: each delay block's M bins, as
        # tx (I_N kron F_M^H), bit for bit: block_dft makes the same numpy call
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
                assert np.array_equal(frame, modem.tx @ block_dft(s, g, inverse=True))
        with pytest.raises(DimensionError, match="leading shape"):
            modem.tx_from_block_spectra(np.zeros((2 * n_blocks, 16 // n_blocks)))


class TestGfOtfs:
    """The one-block filtered modem against the dense chain T_u Gamma and Gamma^H R_u."""

    def test_modulate_matches_dense_operators(self):
        gm = modem_8x4("gf_otfs")
        dense = oracle_matrix("T_u", gm.geom, gm.bank) @ oracle_matrix("Gamma", gm.geom)
        d = random_complex(np.random.default_rng(2), 32)
        assert np.max(np.abs(gm.modulate(d) - dense @ d)) < 1e-10

    def test_demodulate_matches_dense_operators(self):
        gm = modem_8x4("gf_otfs")
        dense = oracle_matrix("Gamma", gm.geom).conj().T @ oracle_matrix("R_u", gm.geom, gm.bank)
        r = random_complex(np.random.default_rng(3), 40)
        assert np.max(np.abs(gm.demodulate(r) - dense @ r)) < 1e-10

    def test_identity_channel_transparency(self):
        # predistortion makes the channel-free through response an exact
        # scaled identity; bound frozen from bring-up at Table-1 scale
        gm = modem_8x4("gf_otfs", m=64, n=8, gf_filter_len=129)
        rng = np.random.default_rng(5)
        d = random_complex(rng, 512)
        d_tilde = gm.demodulate(gm.modulate(d))
        scale = np.vdot(d_tilde, d) / np.vdot(d_tilde, d_tilde)
        evm = np.linalg.norm(scale * d_tilde - d) / np.linalg.norm(d)
        assert evm < 1e-10


class TestDrUfmc:
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
        expected = block_dft(analysed, g, inverse=True)
        assert np.max(np.abs(zak_modulate(dr.demodulate(r), g) - expected)) < 1e-12
        # transmit: each block's DFT through the predistorted bank, tails overlap-added
        f = block_dft(zak_modulate(d, g), g)
        x = np.zeros((dr.rx_len, 2), dtype=complex)
        for b, blk in enumerate(blocks):
            x[blk] += tu @ f[b * m:(b + 1) * m]
        assert np.max(np.abs(dr.modulate(d) - x)) < 1e-12

    def test_block_subband_constraint(self):
        with pytest.raises(DimensionError):
            FilteredModem(FrameGeometry(M=6, N=4), 4, n_sc_rb=4, filter_len=5)


# The chain's contract, once for every scheme.

@pytest.mark.parametrize("side", ["modulate", "demodulate"])
@pytest.mark.parametrize("scheme, fields, rx_len", [
    ("otfs", {"cp_len": 2}, 34), ("gf_otfs", {}, 40), ("rw_otfs", {}, 40), ("dr_ufmc", {}, 36)],
    ids=SCHEMES)
def test_zero_in_zero_out(scheme, fields, rx_len, side):
    modem = modem_8x4(scheme, **fields)
    n_in, n_out = (32, rx_len) if side == "modulate" else (rx_len, 32)
    out = getattr(modem, side)(np.zeros(n_in, dtype=complex))
    assert out.shape == (n_out,)
    assert np.all(out == 0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_linearity(scheme):
    modem = modem_8x4(scheme)
    rng = np.random.default_rng(0)
    d1, d2 = random_complex(rng, 32), random_complex(rng, 32)
    a, b = 1.3 - 0.4j, -0.7j
    lhs = modem.modulate(a * d1 + b * d2)
    rhs = a * modem.modulate(d1) + b * modem.modulate(d2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    r1, r2 = random_complex(rng, modem.rx_len), random_complex(rng, modem.rx_len)
    lhs = modem.demodulate(a * r1 + b * r2)
    rhs = a * modem.demodulate(r1) + b * modem.demodulate(r2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("scheme, fields, rx_len, seed", [
    ("otfs", {}, 32 + 4, 0),
    ("gf_otfs", {"gf_filter_len": 5}, 32 + 5 - 1, 0),
    ("gf_otfs", {"m": 64, "n": 8, "gf_filter_len": 129}, 512 + 129 - 1, 1),  # Table 1
    ("rw_otfs", {}, 32 + 8, 0),
    ("dr_ufmc", {}, 32 + 5 - 1, 0),
    ("dr_ufmc", {"m": 64, "n": 8, "du_filter_len": 20}, 64 * 8 + 20 - 1, 6)],
    ids=["otfs", "gf_otfs", "gf_otfs-64x8", "rw_otfs", "dr_ufmc", "dr_ufmc-64x8"])
def test_frame_length(scheme, fields, rx_len, seed):
    # the filtered schemes send n_sc + L - 1 samples at any number of blocks
    modem = modem_8x4(scheme, **fields)
    n_sc = modem.geom.n_sc
    assert modem.rx_len == rx_len
    assert modem.tx.shape == modem.rx.shape[::-1] == (rx_len, n_sc)
    rng = np.random.default_rng(seed)
    assert modem.modulate(random_complex(rng, n_sc)).shape == (rx_len,)


@pytest.mark.parametrize("scheme, fields, analysis_gain, seed", [
    ("otfs", {"cp_len": 0}, 1.0, 0),
    ("gf_otfs", {"gf_filter_len": 1}, np.sqrt(2), 4),
    ("dr_ufmc", {"du_filter_len": 1}, np.sqrt(2), 5)], ids=["otfs", "gf_otfs", "dr_ufmc"])
def test_unit_filter_gives_the_plain_modem(scheme, fields, analysis_gain, seed):
    # a one-tap filter, or no prefix, sends the Zak frame itself; the filtered
    # receive chain carries the fixed 1/sqrt(2) of the zero-padded analysis.
    # rw_otfs always windows, so it has no plain form
    modem = modem_8x4(scheme, **fields)
    rng = np.random.default_rng(seed)
    d = random_complex(rng, 32)
    assert np.max(np.abs(modem.modulate(d) - zak_modulate(d, modem.geom))) < 1e-12
    d_rt = modem.demodulate(modem.modulate(d))
    assert np.max(np.abs(analysis_gain * d_rt - d)) < 1e-10


@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_chain_works_columnwise(scheme):
    # the probe modulates the identity and the dense oracle demodulates its
    # columns at once: a matrix must give what its columns give one by one
    modem = modem_8x4(scheme, rw_tx_window=True)
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


@pytest.mark.parametrize("scheme", SCHEMES)
def test_demodulate_rejects_short_input_and_drops_the_tail(scheme):
    modem = modem_8x4(scheme)
    for shape in ((modem.rx_len - 1,), (modem.rx_len - 1, 2)):
        with pytest.raises(DimensionError, match="^demodulate"):
            modem.demodulate(np.zeros(shape))
    r = random_complex(np.random.default_rng(9), (modem.rx_len + 3, 2))
    assert np.array_equal(modem.demodulate(r), modem.demodulate(r[:modem.rx_len]))


# The effective channel.

@pytest.mark.parametrize("scheme, doppler_model, ch_seed, seed", [
    ("otfs", "single_shift_per_tap", 11, 8),
    ("gf_otfs", "single_shift_per_tap", 13, 7),
    ("gf_otfs", "jakes_sum_of_sinusoids", 13, 7),
    ("rw_otfs", "single_shift_per_tap", 21, 4),
    ("dr_ufmc", "jakes_sum_of_sinusoids", 17, 8)],
    ids=["otfs", "gf_otfs-single_shift", "gf_otfs-jakes", "rw_otfs", "dr_ufmc"])
def test_probe_reproduces_the_signal_path(scheme, doppler_model, ch_seed, seed):
    modem = modem_8x4(scheme)
    cfg = chan.ChannelConfig(profile="tdl_c", bandwidth_hz=1.92e6, doppler_model=doppler_model)
    ch = chan.generate_channel(cfg, modem.rx_len + 8, seed=ch_seed,
                               delta_nu_hz=modem.geom.delta_nu_hz)
    h = modem.effective_channel(ch)
    rng = np.random.default_rng(seed)
    d = random_complex(rng, 32)
    via_signal = modem.demodulate(chan.apply_channel(modem.modulate(d), ch,
                                                     out_len=modem.rx_len))
    assert np.max(np.abs(h @ d - via_signal)) < 1e-10


@pytest.mark.parametrize("scheme, fields", [
    ("otfs", {"cp_len": 0}), ("gf_otfs", {}), ("rw_otfs", {}), ("dr_ufmc", {})], ids=SCHEMES)
def test_probe_of_a_still_channel(scheme, fields):
    # the still channel's probe is the through-modem matrix
    modem = modem_8x4(scheme, **fields)
    h = modem.effective_channel(still_channel(modem.rx_len + 4))
    through = modem.demodulate(modem.modulate(np.eye(32, dtype=complex)))
    assert np.max(np.abs(h - through)) < 1e-12
    if scheme == "otfs":  # no prefix and no window: the chain is unitary
        assert np.max(np.abs(h - np.eye(32))) < 1e-12


@pytest.mark.parametrize("scheme, fields, c", [
    ("otfs", {"cp_len": 0}, 0.3 - 1.1j), ("gf_otfs", {}, 2.5j), ("rw_otfs", {}, 2.5j),
    ("dr_ufmc", {}, 2.5j)], ids=SCHEMES)
def test_probe_of_a_scaled_channel(scheme, fields, c):
    # scaling the gains by c scales the probe by c
    modem = modem_8x4(scheme, **fields)
    still = still_channel(modem.rx_len + 4)
    scaled = chan.LtvChannelRealization(tap_delays=still.tap_delays, gains=c * still.gains)
    h, h_scaled = modem.effective_channel(still), modem.effective_channel(scaled)
    assert np.max(np.abs(h_scaled - c * h)) < 1e-12
    if scheme == "otfs":
        assert np.max(np.abs(h_scaled - c * np.eye(32))) < 1e-12


@pytest.mark.parametrize("scheme", SCHEMES)
def test_shared_probe_caches_only_the_basis(scheme):
    # every modem's effective channel is its own signal path applied to the
    # identity basis, and a second realization is probed afresh
    modem = modem_8x4(scheme)
    ch_cfg = chan.ChannelConfig(profile="tdl_c", bandwidth_hz=1.92e6,
                                doppler_model="jakes_sum_of_sinusoids")
    eye = np.eye(modem.geom.n_sc, dtype=complex)
    for seed in (31, 32):
        ch = chan.generate_channel(ch_cfg, modem.rx_len + 8, seed=seed,
                                   delta_nu_hz=modem.geom.delta_nu_hz)
        direct = modem.demodulate(chan.apply_channel(modem.modulate(eye), ch,
                                                     out_len=modem.rx_len))
        assert np.array_equal(modem.effective_channel(ch), direct)


class TestEffectiveChannel:
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

    def test_gf_otfs_static_two_tap_matches_dense_product(self):
        gm = modem_8x4("gf_otfs")
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


# Detection and noise.

@pytest.mark.parametrize("scheme, fields, seed", [
    ("otfs", {}, 0), ("gf_otfs", {}, 0), ("rw_otfs", {"rw_window_param": 60.0}, 3),
    ("dr_ufmc", {}, 7)], ids=SCHEMES)
def test_zero_noise_mmse_recovers_the_frame_on_a_still_channel(scheme, fields, seed):
    modem = modem_8x4(scheme, **fields)
    still = still_channel(modem.rx_len + 4)
    rng = np.random.default_rng(seed)
    d = random_complex(rng, 32)
    d_tilde = modem.demodulate(chan.apply_channel(modem.modulate(d), still,
                                                  out_len=modem.rx_len))
    if scheme == "dr_ufmc":
        # raw demodulation is distorted by inter-block interference
        scale = np.vdot(d_tilde, d) / np.vdot(d_tilde, d_tilde)
        assert np.linalg.norm(scale * d_tilde - d) / np.linalg.norm(d) > 1e-3
    d_hat = MmseEqualizer(modem.effective_channel(still)).solve(d_tilde, 0.0)
    assert np.max(np.abs(d_hat - d)) < 1e-8


class TestDemodulator:
    def test_noise_energy_preserved(self):
        # the chain after CP removal is unitary, so kept-noise energy survives
        rng = np.random.default_rng(7)
        eta = random_complex(rng, 36)
        d_tilde = CpOtfsModem(geom_8x4(), cp_len=4).demodulate(eta)
        assert np.linalg.norm(d_tilde) == pytest.approx(np.linalg.norm(eta[4:]), abs=1e-10)

    def test_gf_otfs_noise_coloring_covariance(self):
        # demodulated pure-noise covariance approaches the analytic form
        gm = modem_8x4("gf_otfs")
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
