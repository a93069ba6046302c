"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly on a 32 x 4 grid and checks that every metric
BENCHMARK.json names is reported, that the untraced and the traced replay
both reproduce run_experiment's outputs, and that the recorded spans nest
with non-negative self times. It also checks BENCHMARK.json against spec.py,
and that the output and span checks reject outputs and spans that are wrong.
Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import sys
import time

from run import ROOT, WORK, _matches, run_workload
from spec import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json
from tracing import Tracer, nesting_problems, self_times

SMALL_CONFIG = {"m": 32, "n": 4}
SMALL_FRAMES = {"ber_snr3_w1": 2, "ber_snr9_w2": 2, "spectral_psd": 64}


def check_benchmark_json() -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = benchmark_json(bench.get("run_seconds"))
    return [f"BENCHMARK.json: {key} differs from spec.py"
            for key in expected if bench.get(key) != expected[key]]


def check_output_comparison() -> list[str]:
    reference = {"ber_errors": {"otfs": [3, 1, 0]},
                 "psd_summary": {"otfs": {"oob_metric_db": -40.25}}}
    problems = []
    if not _matches({"ber_errors": {"otfs": [3, 1, 0]}}, reference):
        problems.append("equal BER totals reported as different")
    for wrong in ({"ber_errors": {"otfs": [3, 1, 1]}},
                  {"ber_errors": {"gf_otfs": [3, 1, 0]}},
                  {"psd_summary": {"otfs": {"oob_metric_db": -40.250000001}}}):
        if _matches(wrong, reference):
            problems.append(f"replay output {wrong} accepted")
    return problems


def check_span_checks() -> list[str]:
    tracer = Tracer()
    with tracer.frame_span(0):
        with tracer.span("a.x"):
            time.sleep(0.001)
        with tracer.span("a.y"):
            with tracer.span("b.z"):
                pass
    problems = [f"well-formed spans rejected: {p}" for p in nesting_problems(tracer.spans)]
    if any(t < 0 for t in self_times(tracer.spans)):
        problems.append("negative self time on well-formed spans")
    root = ["experiments.frame", 0.0, 1.0, None, 0]
    for what, bad in (
            ("a child outside its parent", [root, ["a.x", 0.5, 1.5, 0, 0]]),
            ("overlapping siblings", [root, ["a.x", 0.1, 0.6, 0, 0], ["a.y", 0.5, 0.9, 0, 0]]),
            ("a child in another frame", [root, ["a.x", 0.1, 0.2, 0, 1]]),
            ("an unclosed span", [root, ["a.x", 0.1, None, 0, 0]])):
        if not nesting_problems(bad):
            problems.append(f"spans with {what} accepted")
    return problems


def check_workload(name: str) -> list[str]:
    result = run_workload(WORKLOADS[name], seed=7, seconds=1, trace=True, setup_runs=1,
                          overrides={"config": SMALL_CONFIG, "frames": SMALL_FRAMES[name]})
    problems = [f"{name}: {p}" for p in result["problems"]]
    for table, metrics in ((END_TO_END, result["end_to_end"]), (PER_LAYER, result["per_layer"])):
        missing = [m.name for m in table if m.name not in metrics]
        if missing:
            problems.append(f"{name}: metrics missing: {', '.join(missing)}")
    spans = [[s["name"], s["start"], s["end"], s["parent"], s["frame"]] for s in map(
        json.loads, (WORK / name / "spans.jsonl").read_text().splitlines())]
    if not spans:
        problems.append(f"{name}: the traced replay recorded no spans")
    problems += [f"{name}: {p}" for p in nesting_problems(spans)]
    return problems


def main() -> int:
    checks = [("BENCHMARK.json", check_benchmark_json),
              ("output comparison", check_output_comparison),
              ("span checks", check_span_checks)]
    checks += [(f"workload {name}", lambda name=name: check_workload(name)) for name in WORKLOADS]
    n_failed = 0
    for label, check in checks:
        problems = check()
        n_failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'}  {label}")
        for p in problems:
            print(f"      {p}")
    print(f"{len(checks) - n_failed}/{len(checks)} self-test checks passed")
    return 1 if n_failed else 0


if __name__ == "__main__":
    sys.exit(main())
