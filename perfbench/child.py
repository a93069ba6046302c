"""Fresh-process side of the benchmark; run.py starts one process per task.

    python3 perfbench/child.py {setup|measure|replay} < payload.json

Each mode reads a JSON payload on stdin and prints one JSON object as the
last line of stdout. ddwave is imported from the ``src`` directory of the
checkout that holds this file. BLAS thread settings are inherited untouched.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_ddwave():
    sys.path.insert(0, str(SRC))
    import ddwave
    if Path(ddwave.__file__).resolve().parent != SRC / "ddwave":
        raise ImportError(f"ddwave imported from {ddwave.__file__}, not from {SRC}")
    return ddwave


def _config(payload: dict, output_dir: str):
    from ddwave.config import config_from_dict
    return config_from_dict({**payload["config"], "seed": payload["seed"],
                             "n_frames": payload["frames"], "output_dir": output_dir})


def setup(payload: dict) -> dict:
    """Set-up as a user pays it: import ddwave, parse the config file, build_modems."""
    t0 = time.perf_counter()
    _import_ddwave()
    from ddwave.config import parse_config
    from ddwave.experiments import build_modems
    t1 = time.perf_counter()
    cfg = parse_config(payload["config_path"])
    t2 = time.perf_counter()
    modems = build_modems(cfg)
    t3 = time.perf_counter()
    # The filter-bank operators of gf_otfs and dr_ufmc, built again from outside.
    from ddwave.ufmc import UfmcOperators
    banks = [m.bank for m in modems.values() if hasattr(m, "bank")]
    t4 = time.perf_counter()
    for bank in banks:
        UfmcOperators(bank)
    t5 = time.perf_counter()
    return {"setup_s": t3 - t0, "import_s": t1 - t0, "parse_ms": 1e3 * (t2 - t1),
            "operators_build_ms": 1e3 * (t5 - t4)}


def _rusage_cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _csv_bodies(out_dir: Path) -> dict:
    return {p.name: p.read_text() for p in sorted(out_dir.glob("*.csv"))}


def _reference(report, bodies: dict) -> dict:
    """Outputs of run_experiment that the replay must reproduce."""
    if report.experiment == "ber_sweep":
        errors = {}
        for name, text in bodies.items():
            rows = [line for line in text.splitlines() if not line.startswith("#")]
            col = rows[0].split(",").index("n_errors")
            errors[name[len("ber_"):-len(".csv")]] = [int(r.split(",")[col]) for r in rows[1:]]
        return {"ber_errors": errors}
    return {"psd_summary": {k: v for k, v in report.summary.items() if k != "bands"}}


MIN_CALLS = 3


def measure(payload: dict) -> dict:
    """Time run_experiment, untraced, for ``seconds``; check its outputs.

    Every call uses the same config and seed, so every call must write
    byte-identical CSVs. At least ``MIN_CALLS`` calls are made.
    """
    # The pool's start method is chosen inside run_experiment; recording the
    # get_context calls reads it without depending on ddwave's internals.
    start_methods = []
    get_context = multiprocessing.get_context

    def recording_get_context(method=None):
        start_methods.append(method or "default")
        return get_context(method)

    multiprocessing.get_context = recording_get_context
    _import_ddwave()
    from ddwave.experiments import oracle_checks, run_experiment

    work = Path(payload["work_dir"])
    attempted, failed, problems = 1, 0, []
    bad = [name for name, err, tol in oracle_checks() if not err <= tol]
    if bad:
        failed += 1
        problems.append(f"oracle checks failed: {', '.join(bad)}")

    frames, workers = payload["frames"], payload["workers"]
    walls, cpus = [], []
    first_bodies = reference = None
    t_end = time.perf_counter() + payload["seconds"]
    calls = 0
    # Start another call only while it is expected to end within the window.
    while calls < MIN_CALLS or time.perf_counter() + min(walls, default=0.0) < t_end:
        out_dir = work / f"call{calls}"
        cfg = _config(payload, str(out_dir))
        calls += 1
        cpu0, t0 = _rusage_cpu(), time.perf_counter()
        try:
            report = run_experiment(cfg, workers=workers)
        except Exception:  # a failed call is counted and reported, the run goes on
            failed += 1
            problems.append("run_experiment raised:\n" + traceback.format_exc())
            continue
        walls.append(time.perf_counter() - t0)
        cpus.append(_rusage_cpu() - cpu0)
        bodies = _csv_bodies(out_dir)
        if first_bodies is None:
            first_bodies, reference = bodies, _reference(report, bodies)
        elif bodies != first_bodies:
            failed += 1
            problems.append(f"call {calls - 1}: CSV bodies differ from the first call")
        if calls > 1:
            shutil.rmtree(out_dir)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "attempted": attempted + calls, "failed": failed, "problems": problems,
        "wall_s": walls, "cpu_s": cpus, "reference": reference,
        "peak_rss_mb": max(own, kids) / 1024.0,
        "env": environment(sorted(set(start_methods)) or ["none (pool not used)"]),
    }


def replay(payload: dict) -> dict:
    """Replay the frames traced; with ``overhead``, after a warm-up and an untraced replay.

    Returns each replay's outputs and wall time, and the spans' self times.
    """
    _import_ddwave()
    from replay import replay as run_replay
    from tracing import NullTracer, Tracer, nesting_problems, self_time_by_name

    cfg = _config(payload, str(Path(payload["work_dir"]) / "replay"))
    outputs, walls = {}, {}
    if payload["overhead"]:
        # A short replay first, so that neither timed replay pays for first calls.
        run_replay(dataclasses.replace(cfg, n_frames=max(1, cfg.n_frames // 8)), NullTracer())
        t0 = time.perf_counter()
        outputs["untraced"] = run_replay(cfg, NullTracer())
        walls["untraced"] = time.perf_counter() - t0
    tracer = Tracer()
    t0 = time.perf_counter()
    outputs["traced"] = run_replay(cfg, tracer)
    walls["traced"] = time.perf_counter() - t0
    tracer.write_jsonl(Path(payload["work_dir"]) / "spans.jsonl")
    totals, counts = self_time_by_name(tracer.spans)
    return {"outputs": outputs, "wall_s": walls, "self_s": totals, "calls": counts,
            "nesting_problems": nesting_problems(tracer.spans)[:20]}


def environment(start_methods: list[str]) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "pool_start_method": ",".join(start_methods),
    }


def main() -> int:
    mode = sys.argv[1]
    payload = json.loads(sys.stdin.read())
    result = {"setup": setup, "measure": measure, "replay": replay}[mode](payload)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
