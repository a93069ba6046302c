"""The README's library tour runs against the current API, every call its module
table writes binds to the current signature, and its config block documents
every config field."""

import dataclasses
import importlib
import inspect
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


def _resolve(modules, name):
    """``name`` (dotted, or a method name alone) in a row's modules or their classes."""
    head, *rest = name.split(".")
    for mod in modules:
        obj = getattr(mod, head, None)
        if obj is None:  # a method written without its class, such as `detect(...)`
            obj = next((vars(c)[head] for c in vars(mod).values()
                        if inspect.isclass(c) and c.__module__ == mod.__name__
                        and head in vars(c)), None)
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is not None:
            return obj
    raise AssertionError(f"{name} is in none of {[m.__name__ for m in modules]}")


def test_module_table_calls_bind_to_the_current_signatures():
    rows = re.findall(r"^\| (`ddwave\..*?) \| (.*) \|$", README.read_text(), flags=re.M)
    assert len(rows) >= 7
    calls, bad = 0, []
    for module_cell, text in rows:
        modules = [importlib.import_module(m) for m in re.findall(r"`(ddwave\.\w+)`", module_cell)]
        for name, args in re.findall(r"`([A-Za-z_][\w.]*)\(([^()`]*)\)`", text):
            sig = inspect.signature(_resolve(modules, name))
            given = [a.strip() for a in args.split(",") if a.strip()]
            kwargs = {a.split("=")[0].strip(): object() for a in given if "=" in a}
            positional = [object() for a in given if "=" not in a]
            if next(iter(sig.parameters), None) == "self":
                positional.insert(0, object())  # a method, without its instance
            calls += 1
            try:
                sig.bind(*positional, **kwargs)
            except TypeError as exc:
                bad.append(f"{name}({args}): {exc}")
    assert calls >= 10
    assert not bad, bad
