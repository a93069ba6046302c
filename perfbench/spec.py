"""Workloads and metric tables of the ddwave benchmark.

This module is the single source of the names, units and directions that
BENCHMARK.json lists (the self-test checks that the two agree). It also
records, for every per-layer metric, which end-to-end metric it should move
and on which workload: BENCHMARK.json has no field for that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SCHEMES = ("otfs", "gf_otfs", "rw_otfs", "dr_ufmc")

# Module that implements each scheme's modem; the per-scheme layer metrics
# carry the module name.
MODEM_LAYER = {"otfs": "scfdma", "gf_otfs": "gfotfs", "rw_otfs": "baselines",
               "dr_ufmc": "baselines"}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``config`` is the ddwave config the benchmark writes (seed and n_frames
    are added per run); ``frames`` is n_frames of each timed
    ``run_experiment`` call and of the replay. A workload that is not
    ``bounded`` runs on request but is left out of BENCHMARK.json.
    """

    name: str
    why: str
    config: dict
    workers: int
    frames: int
    bounded: bool = True


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ber_snr3_w1",
        why="3-point BER sweep in one process: the per-frame probe and the Gram "
            "product dominate and the worker pool is bypassed",
        config={"experiment": "ber_sweep", "snr_grid_db": [20, 30, 40]},
        # A user runs 200 frames a call (ddwave's default), too many for one
        # timed window. Four frames keep build_modems, which every call pays
        # once, at a few per cent of a call (experiments.build_modems_ms
        # reports its share per frame) and still give over ten calls a run.
        workers=1, frames=4),
    Workload(
        name="spectral_psd",
        why="Welch PSD of many frames held in memory: transmit path and "
            "psd_welch only, no probe or detection, so memory use shows",
        config={"experiment": "psd"},
        workers=1, frames=1000),
    # Left out of BENCHMARK.json: with the user's default BLAS threads, two
    # fork-pool workers oversubscribe two cores, and single calls of 2 frames
    # took 2.0 to 8.5 s per frame within one minute on one machine, so no
    # bound the benchmark may set (at most 25 %) can hold. It runs with
    # --workload ber_snr9_w2 or all, to show the pool fix and nine solves.
    Workload(
        name="ber_snr9_w2",
        why="9-point BER sweep on a 2-worker fork pool: nine MMSE factor-and-solves "
            "per scheme, and pool workers whose BLAS threads oversubscribe the cores",
        config={"experiment": "ber_sweep", "snr_grid_db": "0:5:40"},
        workers=2, frames=2, bounded=False),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None     # end-to-end metrics only
    moves: str = ""                # end-to-end metric this one should move
    on: str = ""                   # workload(s) where it should move
    meaning: str = field(default="", compare=False)


END_TO_END = (
    Metric("ms_per_frame", "ms", "lower", bound=0.25,
           meaning="median over timed run_experiment calls of wall time / n_frames"),
    Metric("setup_s", "s", "lower", bound=0.25,
           meaning="fresh process: import ddwave, parse the config, build_modems (median)"),
    Metric("peak_rss_mb", "MB", "lower", bound=0.1,
           meaning="max RSS of the timed process and its pool children"),
    # A run attempts fewer than 100 checks, so one failure moves ok_frac
    # past this bound.
    Metric("ok_frac", "ratio", "higher", bound=0.01,
           meaning="1 - failed_frac: checked runs that passed over runs attempted"),
)


def _per_layer() -> tuple[Metric, ...]:
    out = [
        Metric("config.import_s", "s", "lower", moves="setup_s", on="all"),
        Metric("config.parse_ms", "ms", "lower", moves="setup_s", on="all"),
        Metric("ufmc.operators_build_ms", "ms", "lower", moves="setup_s", on="all"),
    ]
    for op, on in (("probe", "ber_snr3_w1 (less on ber_snr9_w2, none on spectral_psd)"),
                   ("modulate", "spectral_psd"),
                   ("demodulate", "ber_* (not called on spectral_psd)")):
        out += [Metric(f"{MODEM_LAYER[s]}.{op}_ms.{s}", "ms", "lower",
                       moves="ms_per_frame", on=on) for s in SCHEMES]
    out += [Metric(f"channel.{op}_ms", "ms", "lower", moves="ms_per_frame",
                   on="ber_* (should show no effect)") for op in ("generate", "apply", "noise")]
    out += [Metric(f"detect.gram_ms.{s}", "ms", "lower", moves="ms_per_frame",
                   on="ber_snr3_w1") for s in SCHEMES]
    out.append(Metric("detect.gram_gflop_s", "GFLOP/s", "higher", moves="ms_per_frame",
                      on="ber_snr3_w1"))
    out += [Metric(f"detect.solve_ms.{s}", "ms", "lower", moves="ms_per_frame",
                   on="ber_snr9_w2, ber_snr3_w1") for s in SCHEMES]
    out += [
        Metric("detect.solves", "count", "lower", moves="ms_per_frame",
               on="ber_snr9_w2, ber_snr3_w1"),
        Metric("detect.qam_map_ms", "ms", "lower", moves="ms_per_frame", on="spectral_psd"),
        Metric("detect.demap_ms", "ms", "lower", moves="ms_per_frame", on="ber_*"),
        Metric("metrics.psd_welch_ms", "ms", "lower", moves="ms_per_frame, peak_rss_mb",
               on="spectral_psd"),
        Metric("experiments.cpu_per_frame_ms", "ms", "lower", moves="ms_per_frame",
               on="ber_snr9_w2, ber_snr3_w1"),
        Metric("experiments.cores_busy", "cores", "higher", moves="ms_per_frame",
               on="ber_snr9_w2, ber_snr3_w1"),
        Metric("experiments.build_modems_ms", "ms", "lower", moves="ms_per_frame, setup_s",
               on="all"),
        Metric("experiments.glue_ms", "ms", "lower", moves="ms_per_frame", on="all"),
        Metric("trace.overhead_frac", "ratio", "lower", moves="none", on="all"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()


def span_name(layer: str, op: str, scheme: str | None = None) -> str:
    """Span name for a call into ``layer``; its metric is ``<layer>.<op>_ms[.<scheme>]``."""
    return f"{layer}.{op}" + (f".{scheme}" if scheme else "")


def metric_of_span(name: str) -> str:
    layer, op, *scheme = name.split(".")
    return f"{layer}.{op}_ms" + (f".{scheme[0]}" if scheme else "")


def benchmark_json(run_seconds: int) -> dict:
    """The BENCHMARK.json these tables describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values() if w.bounded],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
