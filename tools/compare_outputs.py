#!/usr/bin/env python3
"""Check that two checkouts of ddwave produce the same outputs.

Usage: python3 tools/compare_outputs.py PARENT [CHANGE]
       python3 tools/compare_outputs.py --record | --check

PARENT and CHANGE are checkout roots; CHANGE defaults to the checkout this
script lives in. Each config of a fixed seed-5 table runs in a fresh
``python3 -m ddwave.cli run`` process with ``PYTHONPATH=<root>/src``, into a
temporary directory outside both checkouts. The script compares the CSV
names and bytes and each run's ``config_hash``; for a CSV whose bytes differ it
prints how many rows differ and the largest absolute difference in each
column that changed. It then runs each root's own
``tests/test_acceptance.py`` with ``-s`` and compares the
``criterion N PASS|FAIL`` lines; the indented ``time of`` and ``detail of``
lines are ignored. Each run's line also gives both trees' ``wall_clock_s``,
``peak_rss_mb``, ``environment.heap`` (the frame loop's malloc thresholds)
and ``environment.blas`` (scipy's OpenBLAS threads in the frame loop) from
its ``report.json`` ("-" where a report has none).
It prints each difference, the two trees' ``src/`` line counts (as ``wc -l
src/ddwave/*.py`` sums them), the test ids that only one tree collects (from
``pytest --collect-only -q`` in each root) and a summary, and exits 0 when
everything matches, 1 otherwise; neither the costs, the line counts nor the
test ids count as a difference.

``--record`` runs the same table on this checkout alone and writes
``tools/outputs_manifest.json``: the SHA-256 of each run's CSVs, its
``config_hash``, and the numpy, scipy and bundled OpenBLAS versions they were
made with. ``--check`` runs the table again and compares it with the
manifest, so that no parent checkout is needed; it exits 0 when every hash
matches, 1 otherwise, and names both version sets when they differ.
``tests/test_outputs_manifest.py`` makes the same check in process. A change
that moves an output on purpose records the manifest again in its own diff.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

GRID_8X4 = {"m": 8, "n": 4, "gf_filter_len": 9, "du_filter_len": 5}

# (name, config, workers); every config runs at seed 5
RUNS = [
    ("loopback", {"experiment": "loopback", "n_frames": 20}, 1),
    ("impulse_leakage_64x8", {"experiment": "impulse_leakage"}, 1),
    ("impulse_leakage_8x4", {"experiment": "impulse_leakage", **GRID_8X4}, 1),
    ("sidelobes", {"experiment": "sidelobes"}, 1),
    ("psd_64x8", {"experiment": "psd", "n_frames": 40}, 1),
    ("psd_8x32", {"experiment": "psd", "m": 8, "n": 32, "du_filter_len": 5, "n_frames": 40}, 1),
    ("ber_64x8_w1", {"experiment": "ber_sweep", "n_frames": 24}, 1),
    ("ber_64x8_w2", {"experiment": "ber_sweep", "n_frames": 24}, 2),
    ("ber_8x4_w1", {"experiment": "ber_sweep", "n_frames": 200, **GRID_8X4}, 1),
    ("ber_8x4_w2", {"experiment": "ber_sweep", "n_frames": 200, **GRID_8X4}, 2),
    ("rw_otfs_tx_window", {"experiment": "ber_sweep", "schemes": ["rw_otfs"],
                           "rw_tx_window": True, "n_frames": 24}, 1),
    ("oracle_suite", {"experiment": "oracle_suite"}, 1),
    # a third BER grid, 16 x 6 with a 9-tap dr_ufmc filter, at the default 9 SNR points and two
    # workers: a change that moves the channel or detector arithmetic at rounding level shows
    # here too if it flips a decision
    ("ber_16x6_w2", {"experiment": "ber_sweep", "m": 16, "n": 6, "du_filter_len": 9,
                     "n_frames": 200}, 2),
    # past two of experiments.SPECTRAL_CHUNK's 64-frame transmit chunks, and not a multiple
    ("psd_64x8_150_frames", {"experiment": "psd", "n_frames": 150}, 1),
    # four full transmit chunks and a short one, summed over many of the sidelobe FFT's blocks
    ("sidelobes_8x4_300_frames", {"experiment": "sidelobes", **GRID_8X4, "n_frames": 300}, 1),
]
# pytest's progress marks can precede a line printed by a test
CRITERION = re.compile(r"criterion \d+ (PASS|FAIL).*$")
MANIFEST = Path(__file__).resolve().parent / "outputs_manifest.json"


def _env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def run_config(root: Path, name: str, config: dict, workers: int, tmp: Path) -> dict:
    """CSV bytes by file name and the config_hash of one run, or the error it exited with."""
    tmp.mkdir(exist_ok=True)
    out = tmp / name
    cfg_path = tmp / f"{name}.json"
    cfg_path.write_text(json.dumps({**config, "seed": 5}))
    proc = subprocess.run([sys.executable, "-m", "ddwave.cli", "run", str(cfg_path),
                           "--out", str(out), "--workers", str(workers)],
                          env=_env(root), cwd=tmp, capture_output=True, text=True)
    if proc.returncode:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return read_outputs(out)


def read_outputs(out: Path) -> dict:
    """CSV bytes by file name, the config_hash and the costs of the run written to ``out``."""
    report = json.loads((out / "report.json").read_text())
    return {"csv": {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))},
            "config_hash": report["config_hash"],
            "cost": {**{key: report.get(key) for key in ("wall_clock_s", "peak_rss_mb")},
                     **{key: report["environment"].get(key) for key in ("heap", "blas")}}}


def digest(result: dict) -> dict:
    """A run's manifest entry: its config_hash and the SHA-256 of each CSV, or its error."""
    if "error" in result:
        return {"error": result["error"]}
    return {"config_hash": result["config_hash"],
            "csv": {name: hashlib.sha256(body).hexdigest()
                    for name, body in result["csv"].items()}}


def versions() -> dict:
    """The numpy and scipy versions and the OpenBLAS each bundles, as they report them."""
    import numpy
    import scipy
    found = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    for module in (numpy, scipy):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            found[f"{module.__name__}_blas"] = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError) as exc:  # numpy < 1.25 has no dict form
            found[f"{module.__name__}_blas"] = f"unknown ({type(exc).__name__})"
    return found


def manifest_differences(recorded: dict, found: dict) -> list[str]:
    """Each error, config_hash or CSV hash of ``found``'s runs that differs from ``recorded``.

    A run or CSV that only one side has reads None on the other.
    """
    diffs = []
    for name in sorted(set(recorded) | set(found)):
        old, new = recorded.get(name, {}), found.get(name, {})
        diffs += [f"{name}: {key} {old.get(key)} != {new.get(key)}"
                  for key in ("error", "config_hash") if old.get(key) != new.get(key)]
        old_csv, new_csv = old.get("csv", {}), new.get("csv", {})
        diffs += [f"{name}: {csv} sha256 {old_csv.get(csv)} != {new_csv.get(csv)}"
                  for csv in sorted(set(old_csv) | set(new_csv))
                  if old_csv.get(csv) != new_csv.get(csv)]
    return diffs


def record_or_check(mode: str) -> int:
    """Write the manifest of this checkout's runs, or compare them with it."""
    root = Path(__file__).resolve().parents[1]
    runs = {}
    with tempfile.TemporaryDirectory(prefix="ddwave-manifest-") as tmp:
        for name, config, workers in RUNS:
            runs[name] = digest(run_config(root, name, config, workers, Path(tmp)))
            print(f"{name}: {runs[name].get('error', 'ran')}", flush=True)
    if mode == "--record":
        if any("error" in run for run in runs.values()):
            print(f"{MANIFEST.name} not written: a run failed")
            return 1
        MANIFEST.write_text(json.dumps({"versions": versions(), "runs": runs}, indent=1,
                                       sort_keys=True) + "\n")
        print(f"wrote {MANIFEST}")
        return 0
    manifest = json.loads(MANIFEST.read_text())
    if manifest["versions"] != versions():
        print(f"versions differ: recorded {manifest['versions']}, here {versions()}")
    diffs = manifest_differences(manifest["runs"], runs)
    for diff in diffs:
        print(diff)
    print(f"summary: {len(RUNS)} runs against {MANIFEST.name}; {len(diffs)} difference(s)")
    return 1 if diffs else 0


def heap_text(heap: dict | None) -> str:
    """A report's malloc thresholds in MiB, why none were set, or {} for no frame loop."""
    if not heap:
        return "-" if heap is None else "{}"
    if heap["not_set"]:
        return f"not set ({heap['not_set']})"
    return f"mmap {heap['mmap_threshold'] >> 20} MiB, trim {heap['trim_threshold'] >> 20} MiB"


def blas_text(blas: dict | None) -> str:
    """A report's scipy OpenBLAS threads in the frame loop, why not pinned, or {} for no loop."""
    if not blas:
        return "-" if blas is None else "{}"
    if blas["not_pinned"]:
        return f"not pinned ({blas['not_pinned']})"
    return f"scipy {blas['scipy']['threads']} thread(s)"


def cost_line(results: list[dict]) -> str:
    """Each tree's wall_clock_s, peak_rss_mb, heap and BLAS pin, parent first."""
    def cost(result, key):
        value = result.get("cost", {}).get(key)
        return "-" if value is None else f"{value:.3g}"
    texts = {key: " -> ".join(text(result.get("cost", {}).get(key)) for result in results)
             for key, text in (("heap", heap_text), ("blas", blas_text))}
    return "; ".join([f"{key} {cost(results[0], key)} -> {cost(results[1], key)}"
                      for key in ("wall_clock_s", "peak_rss_mb")]
                     + [f"{key} {text}" for key, text in texts.items()])


def criterion_lines(root: Path) -> list[str]:
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                           "tests/test_acceptance.py"],
                          env=_env(root), cwd=root, capture_output=True, text=True)
    return [m.group(0) for m in map(CRITERION.search, proc.stdout.splitlines()) if m]


def collected_ids(root: Path) -> set[str]:
    """The test ids ``pytest --collect-only -q`` lists in ``root``."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider"],
                          env=_env(root), cwd=root, capture_output=True, text=True)
    return {line for line in proc.stdout.splitlines() if "::" in line}


def src_lines(root: Path) -> int:
    """Newlines in src/ddwave/*.py, the total ``wc -l`` prints."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "ddwave").glob("*.py"))


def compare_run(name: str, old: dict, new: dict) -> list[str]:
    if "error" in old or "error" in new:
        return [f"{name}: run failed: parent {old.get('error', 'ok')}; "
                f"change {new.get('error', 'ok')}"]
    diffs = []
    if old["config_hash"] != new["config_hash"]:
        diffs.append(f"{name}: config_hash {old['config_hash']} != {new['config_hash']}")
    if sorted(old["csv"]) != sorted(new["csv"]):
        diffs.append(f"{name}: CSV files {sorted(old['csv'])} != {sorted(new['csv'])}")
    diffs += [f"{name}: {csv} differs: {size_difference(old['csv'][csv], new['csv'][csv])}"
              for csv in sorted(set(old["csv"]) & set(new["csv"]))
              if old["csv"][csv] != new["csv"][csv]]
    return diffs


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def size_difference(old: bytes, new: bytes) -> str:
    """How many data rows differ, and the largest absolute difference in each numeric column."""
    old_rows, new_rows = ([row for row in csv.reader(io.StringIO(text.decode()))
                           if row and not row[0].startswith("#")] for text in (old, new))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0] or len(old_rows) != len(new_rows):
        return f"header or row count changed ({len(old_rows)} -> {len(new_rows)} lines)"
    header, pairs = old_rows[0], list(zip(old_rows[1:], new_rows[1:]))
    changed = sum(a != b for a, b in pairs)
    largest = []
    for col, label in enumerate(header):
        cells = [(_float(a[col]), _float(b[col])) for a, b in pairs if a[col] != b[col]]
        if not cells:
            continue
        if any(x is None or y is None for x, y in cells):
            largest.append(f"{label} (text)")
        else:
            largest.append(f"{label} {max(abs(x - y) for x, y in cells):.3g}")
    return (f"{changed} of {len(pairs)} rows; largest |difference|: "
            f"{', '.join(largest) or 'none (line endings or quoting)'}")


def main(argv: list[str]) -> int:
    if argv in (["--record"], ["--check"]):
        return record_or_check(argv[0])
    if not 1 <= len(argv) <= 2 or any(arg.startswith("--") for arg in argv):
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1]).resolve() if len(argv) == 2 else Path(__file__).resolve().parents[1]
    diffs, n_csv = [], 0
    with tempfile.TemporaryDirectory(prefix="ddwave-compare-") as tmp:
        for name, config, workers in RUNS:
            results = []
            for i, root in enumerate((parent, change)):
                results.append(run_config(root, name, config, workers, Path(tmp) / str(i)))
            found = compare_run(name, *results)
            n_csv += len(results[0].get("csv", ()))
            print(f"{name}: {'differs' if found else 'identical'} ({cost_line(results)})",
                  flush=True)
            diffs += found
    old_lines, new_lines = criterion_lines(parent), criterion_lines(change)
    if not old_lines or len(old_lines) != len(new_lines):
        diffs.append(f"criterion lines: {len(old_lines)} in parent, {len(new_lines)} in change")
    for old, new in zip(old_lines, new_lines):
        if old != new:
            diffs.append(f"criterion line differs:\n  parent: {old}\n  change: {new}")
    for diff in diffs:
        print(diff)
    print(f"src lines: parent {src_lines(parent)}, change {src_lines(change)}")
    old_ids, new_ids = collected_ids(parent), collected_ids(change)
    for label, only in (("parent", old_ids - new_ids), ("change", new_ids - old_ids)):
        print(f"test ids only the {label} collects: {len(only)}")
        for test_id in sorted(only):
            print(f"  {test_id}")
    print(f"summary: {len(RUNS)} runs, {n_csv} parent CSVs, {len(old_lines)} criterion lines; "
          f"{len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
