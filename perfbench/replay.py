"""Replay of run_experiment's frame pipeline, with a span around each layer call.

The replay runs in one process and calls only ddwave's public functions, in
the order run_experiment uses them, so that its outputs (per-SNR error totals
of the BER sweep, the PSD summary) must equal run_experiment's exactly. A
replay that drifts from the program therefore fails the benchmark's check.
"""

from __future__ import annotations

import numpy as np

from spec import MODEM_LAYER, span_name

# Spawn-key purposes of ddwave.experiments' random streams: payload bits,
# channel, unit noise, and the per-block payload of dr_ufmc in the spectral
# experiments.
P_BITS, P_CHANNEL, P_NOISE, P_BLOCK_BITS = 0, 1, 2, 3


def replay(cfg, tracer) -> dict:
    """Replay ``cfg``'s experiment; returns the outputs to compare with run_experiment."""
    from ddwave.experiments import build_modems

    with tracer.span("experiments.build_modems"):
        modems = build_modems(cfg)
    if cfg.experiment == "ber_sweep":
        return _replay_ber(cfg, modems, tracer)
    if cfg.experiment == "psd":
        return _replay_psd(cfg, modems, tracer)
    raise ValueError(f"no replay for experiment {cfg.experiment!r}")


def _replay_ber(cfg, modems: dict, tracer) -> dict:
    from ddwave import channel as chan
    from ddwave.detect import MmseEqualizer, qam_demap, qam_map
    from ddwave.experiments import channel_config, rng_for, seedseq_for

    ch_cfg = channel_config(cfg)
    k = int(np.log2(cfg.qam_order))
    geom = next(iter(modems.values())).geom
    max_rx = max(m.rx_len for m in modems.values())
    totals = {name: [0] * len(cfg.snr_grid_db) for name in modems}
    n_eff = {}
    for fi in range(cfg.n_frames):
        with tracer.frame_span(fi):
            bits = rng_for(cfg.seed, P_BITS, fi).integers(0, 2, size=cfg.n_sc * k)
            with tracer.span("detect.qam_map"):
                d = qam_map(bits, cfg.qam_order)
            with tracer.span("channel.generate"):
                ch = chan.generate_channel(ch_cfg, max_rx + cfg.n_taps_effective() + 8,
                                           seed=seedseq_for(cfg.seed, P_CHANNEL, fi),
                                           delta_nu_hz=geom.delta_nu_hz)
            with tracer.span("channel.noise"):
                eta = chan.complex_noise(rng_for(cfg.seed, P_NOISE, fi), max_rx)
            for name, modem in modems.items():
                layer = MODEM_LAYER[name]
                demod = span_name(layer, "demodulate", name)
                with tracer.span(span_name(layer, "modulate", name)):
                    x = modem.modulate(d)
                with tracer.span("channel.apply"):
                    r = chan.apply_channel(x, ch, out_len=modem.rx_len)
                with tracer.span(demod):
                    y0 = modem.demodulate(r)
                with tracer.span(demod):
                    y_eta = modem.demodulate(eta[:modem.rx_len])
                with tracer.span(span_name(layer, "probe", name)):
                    h_eff = modem.effective_channel(ch)
                with tracer.span(span_name("detect", "gram", name)):
                    eq = MmseEqualizer(h_eff)
                n_eff[name] = h_eff.shape[1]
                for si, snr_db in enumerate(cfg.snr_grid_db):
                    var = 10.0 ** (-snr_db / 10.0)
                    rhs = y0 + np.sqrt(var) * y_eta
                    with tracer.span(span_name("detect", "solve", name)):
                        d_hat = eq.solve(rhs, var)
                    with tracer.span("detect.demap"):
                        bits_hat = qam_demap(d_hat, cfg.qam_order)
                    totals[name][si] += int(np.sum(bits_hat != bits))
    return {"ber_errors": totals, "n_eff": n_eff}


def _replay_psd(cfg, modems: dict, tracer) -> dict:
    from ddwave.detect import qam_map
    from ddwave.experiments import centered_band_mask, rng_for
    from ddwave.metrics import oob_metric, psd_welch
    from ddwave.transforms import to_delay_doppler

    bw = cfg.resolved_bandwidth_hz()
    occupied_hz = cfg.occupied_fraction * bw
    mask = centered_band_mask(cfg.n_sc, cfg.occupied_fraction)
    mask_block = centered_band_mask(cfg.m, cfg.occupied_fraction)
    bits_per_sym = int(np.log2(cfg.qam_order))
    streams = {name: [] for name in modems}
    for fi in range(cfg.n_frames):
        with tracer.frame_span(fi):
            rng = rng_for(cfg.seed, P_BITS, fi)
            bits = rng.integers(0, 2, size=int(mask.sum()) * bits_per_sym)
            with tracer.span("detect.qam_map"):
                symbols = qam_map(bits, cfg.qam_order)
            for name, modem in modems.items():
                modulate = span_name(MODEM_LAYER[name], "modulate", name)
                if name == "dr_ufmc":
                    rng_b = rng_for(cfg.seed, P_BLOCK_BITS, fi)
                    n_blk = cfg.n * int(mask_block.sum())
                    blk_bits = rng_b.integers(0, 2, size=n_blk * bits_per_sym)
                    with tracer.span("detect.qam_map"):
                        blk_symbols = qam_map(blk_bits, cfg.qam_order)
                    f_blocks = np.zeros((cfg.n, cfg.m), dtype=complex)
                    f_blocks[:, mask_block] = blk_symbols.reshape(cfg.n, -1)
                    with tracer.span(modulate):
                        x = modem.tx_from_block_spectra(f_blocks)
                else:
                    s_f = np.zeros(cfg.n_sc, dtype=complex)
                    s_f[mask] = symbols
                    d = to_delay_doppler(s_f, modem.geom)
                    with tracer.span(modulate):
                        x = modem.modulate(d)
                streams[name].append(x)
    occ_band = (0.0, 0.45 * occupied_hz)
    off_band = (0.55 * occupied_hz, 0.75 * occupied_hz)
    summary = {}
    for name, parts in streams.items():
        x = np.concatenate(parts)
        x = x / np.sqrt(np.mean(np.abs(x) ** 2))
        with tracer.span("metrics.psd_welch"):
            est = psd_welch(x, bw, segment_len=cfg.psd_segment_len)
        summary[name] = {
            "occupied_mean_db": est.band_mean_db(*occ_band),
            "offset_mean_db": est.band_mean_db(*off_band),
            "oob_metric_db": oob_metric(est, occ_band, off_band),
        }
    return {"psd_summary": summary}
