"""The names of ``usvt`` that the benchmark in ``bench/`` reaches.

The benchmark traces layers by module and function name, traces the check
batteries by name, and builds its inputs through the public API. Renaming
or deleting any of them breaks the benchmark without failing another test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import usvt.checks

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    """``bench/<name>.py`` as a module, without putting ``bench/`` on the path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_every_traced_layer_resolves():
    missing = [layer for layer, targets in tracing.LAYER_FUNCTIONS.items()
               if not any(hasattr(importlib.import_module(module), attr)
                          for module, attr in targets)]
    assert missing == []


def test_traced_check_batteries_exist():
    assert set(tracing.CHECK_BATTERIES) <= set(usvt.checks._CHECKS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builds(name, tmp_path):
    workloads.WORKLOADS[name](seed=3, work=tmp_path, tiny=True).build()
