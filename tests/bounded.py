"""Python child processes with a bounded address space.

An input that asks for gigabytes then fails in the child with MemoryError
instead of exhausting the machine, so a test can tell a refusal from an
unbounded allocation.
"""

import os
import pathlib
import resource
import subprocess
import sys

import dlgeom

#: the address space a child may map
CHILD_ADDRESS_SPACE = 3 * 2 ** 30


def _bound_address_space() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = CHILD_ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(CHILD_ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_python(*args) -> subprocess.CompletedProcess:
    """``python *args`` with this checkout's dlgeom importable, its address space bounded by
    :data:`CHILD_ADDRESS_SPACE`; stdout and stderr are captured as text."""
    src = pathlib.Path(dlgeom.__file__).resolve().parent.parent
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=_bound_address_space)
