"""The benchmark's own correctness checks, run on the kernel at its real sizes.

``perfbench/workloads.py`` reads the kernel's records (``len(frames)``, row
fields, ``report.residual_max`` and ``report.passed``); one seeded cycle of
each in-process workload must pass its checks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import dlgeom

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()


@pytest.mark.parametrize("workload", ["offset-unit", "offset-warped", "reconstruct"])
def test_benchmark_cycle_passes_its_checks(workload):
    ops = wl.build_cycle(workload, 41, 0, wl.Context(dlgeom))
    assert ops
    for op in ops:
        _, failure, incorrect = wl.run_op(op)
        assert failure is None and not incorrect, failure
