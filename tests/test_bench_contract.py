"""The benchmark's own correctness checks, run on the kernel at its real sizes.

``perfbench/workloads.py`` reads the kernel's records (``len(frames)``, row
fields, ``report.residual_max`` and ``report.passed``) and the CLI's output
files; one seeded cycle of each workload must pass its checks, with the CLI
operations run in process.  ``perfbench/tracing.py`` wraps the kernel's
functions by name, so every name it traces must exist.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import dlgeom
import dlgeom.cli

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


wl = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("workload", ["offset-unit", "offset-warped", "reconstruct", "cli"])
def test_benchmark_cycle_passes_its_checks(workload, tmp_path, monkeypatch, capsys):
    def run_child(ctx, argv):
        # the exit code and last stderr line of a child process, from main in process
        code = dlgeom.cli.main(argv)
        lines = capsys.readouterr().err.strip().splitlines()
        return code, lines[-1] if lines else ""

    monkeypatch.setattr(wl, "run_child", run_child)
    ops = wl.build_cycle(workload, 41, 0, wl.Context(dlgeom, workdir=tmp_path))
    assert ops
    for op in ops:
        _, failure, incorrect = wl.run_op(op)
        assert failure is None and not incorrect, failure


@pytest.mark.parametrize("module,attr", sorted(tracing.TRACED.values()))
def test_traced_name_resolves_in_the_package(module, attr):
    # the traced run looks each name up with a bare getattr
    assert hasattr(importlib.import_module(module), attr)
