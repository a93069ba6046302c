"""Every output byte of compare_outputs' seed-5 runs matches tools/outputs_manifest.json.

Each run of ``tools/compare_outputs.py``'s table runs here in process, and
its config_hash and the SHA-256 of each CSV must equal the manifest's. A
change that moves an output on purpose records the manifest again with
``python3 tools/compare_outputs.py --record`` and says which rows moved and
why.

Other numpy, scipy or OpenBLAS builds may round differently, so the manifest
holds the versions it was recorded with. Under other versions each run
skips, and its reason names both version sets; it never passes unchecked.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from ddwave.config import config_from_dict
from ddwave.experiments import run_experiment

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


@pytest.fixture(scope="module")
def manifest():
    recorded = json.loads(compare_outputs.MANIFEST.read_text())
    here = compare_outputs.versions()
    if recorded["versions"] != here:
        pytest.skip(f"outputs_manifest.json was recorded under {recorded['versions']}; "
                    f"this run has {here}")
    return recorded["runs"]


@pytest.mark.parametrize("name,config,workers", compare_outputs.RUNS,
                         ids=[name for name, _, _ in compare_outputs.RUNS])
def test_run_matches_the_manifest(tmp_path, manifest, name, config, workers):
    run_experiment(config_from_dict(config | {"seed": 5, "output_dir": str(tmp_path)}),
                   workers=workers)
    found = compare_outputs.digest(compare_outputs.read_outputs(tmp_path))
    assert compare_outputs.manifest_differences({name: manifest[name]}, {name: found}) == []
