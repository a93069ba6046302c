"""The benchmark's replay (perfbench/replay.py) reproduces run_experiment's outputs.

The benchmark rejects a change whose replay drifts from the program; this
runs its check on the benchmark's own workloads at the 32 x 4 size of
``perfbench/selftest.py``.
"""

import sys
from pathlib import Path

import pytest

from ddwave.config import config_from_dict
from ddwave.experiments import run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# the last case spans three of the spectral studies' 64-frame transmit chunks
# (experiments.SPECTRAL_CHUNK), the third of them short
@pytest.mark.parametrize("workload,frames", [("ber_snr3_w1", 2), ("spectral_psd", 64),
                                             ("spectral_psd", 150)])
def test_replay_matches_run_experiment(tmp_path, monkeypatch, workload, frames):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import child
    import replay
    import run
    import tracing
    from spec import WORKLOADS

    cfg = config_from_dict(WORKLOADS[workload].config | {
        "m": 32, "n": 4, "seed": 7, "n_frames": frames, "output_dir": str(tmp_path)})
    report = run_experiment(cfg)
    bodies = {p.name: p.read_text() for p in sorted(tmp_path.glob("*.csv"))}
    reference = child._reference(report, bodies)
    assert run._matches(replay.replay(cfg, tracing.NullTracer()), reference)
