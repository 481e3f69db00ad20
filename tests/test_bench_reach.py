"""The names of ``usvt`` that the benchmark in ``bench/`` reaches.

The benchmark traces layers by module and function name, traces the check
batteries by name, builds its inputs through the public API and calls
``usvt.cli.main`` with fixed argument lists. Renaming or deleting any of
them breaks the benchmark without failing another test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import usvt.checks
from usvt.checks import CheckReport

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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_ops_pass_their_gates(name, tmp_path, monkeypatch):
    # check-all's op would run every battery; only its argument list is at stake here.
    calls = []
    monkeypatch.setattr("usvt.cli.check_suite",
                        lambda **given: calls.append(given) or CheckReport(results=()))
    workload = workloads.WORKLOADS[name](seed=3, work=tmp_path, tiny=True)
    workload.build()
    if workload.needs_oracle:
        workload.load_oracle(workload.oracle())
    for kind in workload.kinds:
        ok, _, detail = workload.gate(kind, workload.run(kind))
        assert ok, f"{kind}: {detail}"
    if name == "check-all":
        assert calls == [{"selectors": ["all"], "seed": workloads.sub_seed(3, 7)}]
