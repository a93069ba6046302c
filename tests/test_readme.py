"""The README's library tour runs against the current API."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the tour detects at 30 dB SNR, where its seeded frame decodes without error
    assert np.array_equal(namespace["bits_hat"], namespace["bits"])
