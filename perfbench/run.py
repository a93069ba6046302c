"""ddwave benchmark: host time per simulated frame, set-up time and memory.

    python3 perfbench/run.py --workload ber_snr3_w1 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 10    # every metric, every workload

Run from anywhere; ddwave is imported from ``src/`` of the checkout that
holds this file, and scratch files go to ``.perfbench_work/<workload>/``.
Each run starts fresh processes, each under a wall-clock timeout:

* ``setup`` (several times): import ddwave, parse the config, build_modems;
* ``measure``: call run_experiment for ``--seconds`` (at least three calls)
  with tracing off and the user's BLAS thread settings, after the oracle
  checks; every call must write byte-identical CSVs;
* ``replay``: the frame pipeline replayed untraced, then traced with a span
  around each call into a layer; both must reproduce run_experiment's
  per-SNR error totals or PSD summary exactly.

Human-readable lines come first; the last line of stdout is one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). A failed check, exception, timeout or non-zero exit counts
as a failed run; the human-readable lines give failed_frac, and the metric
is ok_frac = 1 - failed_frac, which stays above zero. Exit code 0 when the
metrics could be computed, 1 when not, 2 when the checkout holds no ddwave
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, SCHEMES, WORKLOADS, Workload, metric_of_span

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

SETUP_RUNS = 5
RUN_LIMIT_S = 170          # the whole run, so that it ends within 180 s
SETUP_LIMIT_S = 60
MEASURE_SLACK_S = 90       # beyond --seconds, for the last call and the oracle checks
REPLAY_LIMIT_S = 90


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of the child's process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(mode: str, payload: dict, deadline: float, limit: float):
    """Run child.py in its own process group; returns (result, None) or (None, problem)."""
    timeout = min(limit, deadline - time.monotonic())
    if timeout < 1:
        return None, f"{mode}: no time left within the run's {RUN_LIMIT_S} s limit"
    proc = subprocess.Popen([sys.executable, str(CHILD), mode], cwd=ROOT, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(json.dumps(payload), timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{mode}: timed out after {timeout:.0f} s"
    finally:
        _stop_group(proc)
    if proc.returncode != 0:
        return None, f"{mode}: exit code {proc.returncode}"
    try:
        return json.loads(out.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"{mode}: no result line"


def _matches(replayed: dict, reference: dict) -> bool:
    """The replay produced run_experiment's outputs for the same schemes, value for value."""
    keys = [key for key in ("ber_errors", "psd_summary") if key in replayed]
    for key in keys:
        ref = reference.get(key, {})
        if set(ref) != set(replayed[key]):
            return False
        for scheme, value in replayed[key].items():
            if isinstance(value, dict):
                value, ref_value = value, {f: ref[scheme].get(f) for f in value}
            else:
                ref_value = ref[scheme]
            if value != ref_value:
                return False
    return bool(keys)


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 overrides: dict | None = None, setup_runs: int = SETUP_RUNS) -> dict:
    """One benchmark run of ``wl``: the checks, the environment, the end-to-end
    metrics and, with ``trace``, the per-layer metrics.

    ``overrides`` may replace config fields and the frame count (the
    self-test shrinks the grid with it).
    """
    overrides = overrides or {}
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    frames = overrides.get("frames", wl.frames)
    config = {**wl.config, **overrides.get("config", {})}
    config_path = work / "config.json"
    config_path.write_text(json.dumps({**config, "seed": seed, "n_frames": frames,
                                       "output_dir": str(work / "cli-out")}))
    payload = {"config": config, "seed": seed, "frames": frames, "workers": wl.workers,
               "seconds": seconds, "work_dir": str(work), "config_path": str(config_path),
               "overhead": trace}
    attempted = failed = 0
    problems: list[str] = []

    setups = []
    for _ in range(setup_runs):
        attempted += 1
        res, err = run_child("setup", payload, deadline, SETUP_LIMIT_S)
        if err:
            failed += 1
            problems.append(err)
        else:
            setups.append(res)

    measured, err = run_child("measure", payload, deadline, seconds + MEASURE_SLACK_S)
    if err:
        attempted += 1
        failed += 1
        problems.append(err)
    else:
        attempted += measured["attempted"]
        failed += measured["failed"]
        problems += measured["problems"]
    reference = measured and measured["reference"]

    replayed, err = run_child("replay", payload, deadline, REPLAY_LIMIT_S)
    if err:
        attempted += 1
        failed += 1
        problems.append(err)
    else:
        for kind, outputs in replayed["outputs"].items():
            attempted += 1
            if reference is None or not _matches(outputs, reference):
                failed += 1
                problems.append(f"{kind} replay does not reproduce run_experiment's outputs")
            elif kind == "traced" and replayed["nesting_problems"]:
                failed += 1
                problems += replayed["nesting_problems"]

    result = {"workload": wl.name, "seed": seed, "attempted": attempted, "failed": failed,
              "problems": problems, "end_to_end": {}, "per_layer": {},
              "call_wall_s": (measured or {}).get("wall_s", []),
              "env": {**(measured or {}).get("env", {}), "workers": wl.workers,
                      "git_commit": git_commit(), "frames_per_call": frames,
                      "setup_runs": len(setups),
                      "calls": len((measured or {}).get("wall_s", []))}}
    if setups and measured and measured["wall_s"] and replayed:
        result["end_to_end"] = _end_to_end(setups, measured, attempted, failed, frames)
        if trace:
            result["per_layer"] = _per_layer(setups, measured, replayed, frames,
                                             result["end_to_end"]["ms_per_frame"])
    (work / "result.json").write_text(json.dumps(result, indent=2))
    return result


def _end_to_end(setups, measured, attempted, failed, frames) -> dict:
    return {
        "ms_per_frame": 1e3 * statistics.median(measured["wall_s"]) / frames,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": measured["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }


def _per_layer(setups, measured, replayed, frames, ms_per_frame) -> dict:
    self_s, calls = replayed["self_s"], replayed["calls"]
    out = {
        "config.import_s": statistics.median(s["import_s"] for s in setups),
        "config.parse_ms": statistics.median(s["parse_ms"] for s in setups),
        "ufmc.operators_build_ms": statistics.median(s["operators_build_ms"] for s in setups),
    }
    for name, t in self_s.items():
        out[metric_of_span(name)] = 1e3 * t / frames
    gram_s = sum(self_s.get(f"detect.gram.{s}", 0.0) for s in SCHEMES)
    gram_flop = sum(8.0 * n ** 3 * calls[f"detect.gram.{s}"]
                    for s, n in replayed["outputs"]["traced"].get("n_eff", {}).items())
    out["detect.gram_gflop_s"] = gram_flop / gram_s / 1e9 if gram_s else 0.0
    out["detect.solves"] = sum(calls.get(f"detect.solve.{s}", 0) for s in SCHEMES) / frames
    cpu, wall = sum(measured["cpu_s"]), sum(measured["wall_s"])
    out["experiments.cpu_per_frame_ms"] = 1e3 * cpu / (frames * len(measured["wall_s"]))
    out["experiments.cores_busy"] = cpu / wall
    layer_s = sum(t for name, t in self_s.items() if name != "experiments.frame")
    # Untraced time of one process minus traced self times of another: it can
    # come out negative when the replay runs slower than the timed calls.
    out["experiments.glue_ms"] = ms_per_frame - 1e3 * layer_s / frames
    out["trace.overhead_frac"] = replayed["wall_s"]["traced"] / replayed["wall_s"]["untraced"] - 1
    # A layer the workload never calls has no span: its self time is zero.
    # Only the end-to-end metrics must never be zero.
    return {m.name: out.get(m.name, 0.0) for m in PER_LAYER}


def print_result(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}): {WORKLOADS[result['workload']].why}")
    print(f"  {result['attempted'] - result['failed']}/{result['attempted']} checked runs "
          f"passed, failed_frac {result['failed'] / result['attempted']:.6g}")
    walls, frames = result["call_wall_s"], result["env"]["frames_per_call"]
    if walls:
        print(f"  {len(walls)} timed calls of {frames} frames: fastest "
              f"{1e3 * min(walls) / frames:.6g} ms/frame, slowest "
              f"{1e3 * max(walls) / frames:.6g} ms/frame")
    for metrics, table in ((result["end_to_end"], END_TO_END), (result["per_layer"], PER_LAYER)):
        for m in table:
            if m.name in metrics:
                note = f"moves {m.moves} on {m.on}" if m.moves else m.meaning
                print(f"  {m.name:34s} {metrics[m.name]:14.6g} {m.unit:8s} {note}")
    print("  env " + json.dumps(result["env"], sort_keys=True))
    for problem in result["problems"]:
        print(f"{result['workload']}: {problem}", file=sys.stderr)


def result_line(result: dict, trace: int) -> dict:
    table = PER_LAYER if trace else END_TO_END
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                        for m in table if m.name in metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ddwave" / "__init__.py").is_file():
        print(f"perfbench: no ddwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        results.append(run_workload(WORKLOADS[name], args.seed, args.seconds,
                                    trace=args.trace == 1 or args.workload == "all"))
        print_result(results[-1])
    if args.workload == "all":
        line = {"correct": all(r["failed"] == 0 for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{r['workload']}/{k}": v for r in results
                            for trace in (0, 1)
                            for k, v in result_line(r, trace)["metrics"].items()}}
    else:
        line = result_line(results[0], args.trace)
    complete = all(r["end_to_end"] for r in results)
    print(json.dumps(line))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
