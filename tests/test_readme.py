"""The README's library tour runs against the current API, and its config block
documents every config field."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np

from ddwave.config import ChannelSection, ExperimentConfig, config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the tour detects at 30 dB SNR, where its seeded frame decodes without error
    assert np.array_equal(namespace["bits_hat"], namespace["bits"])


def test_config_block_parses_and_names_every_field():
    blocks = re.findall(r"^```jsonc\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    raw = json.loads(re.sub(r"//.*$", "", blocks[0], flags=re.M))
    config_from_dict(raw)
    assert set(raw) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(raw["channel"]) == {f.name for f in dataclasses.fields(ChannelSection)}
