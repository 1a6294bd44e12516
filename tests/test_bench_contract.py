"""The benchmark's calls into the package, run once each.

bench/workloads.py builds every operation the benchmark times from the
package's public names and checks each answer. Running one round of each
workload here makes a change to a name, a parameter or a result type that
the benchmark relies on fail in the test suite rather than in a benchmark
run. The span tracer is not installed: it rebinds package functions for the
whole process.
"""

import importlib
import sys
from pathlib import Path

import pytest

import shatterbound
import shatterbound.cli  # noqa: F401  (the workloads call shatterbound.cli.main)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(root):
    return sorted((str(p), p.stat().st_mtime_ns) for p in root.rglob("*"))


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no bench/__pycache__
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        for name in ("workloads", "reference"):  # bench's modules, by bare name
            sys.modules.pop(name, None)


@pytest.mark.parametrize("small", [True, False], ids=["small", "full"])
def test_every_op_of_round_0_passes_its_check(workloads, tmp_path, small):
    before = _tree(BENCH)
    failures = []
    for name, build in workloads.BUILDERS.items():
        ops = build(shatterbound, 1, small, tmp_path).round(0)
        assert ops, f"{name} has no operations"
        for op in ops:
            error = op.check(op.run())
            if error is not None:
                failures.append(f"{name}: {op.label}: {error}")
    assert failures == []
    assert _tree(BENCH) == before
