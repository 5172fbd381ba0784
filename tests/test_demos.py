"""Each narrative demo in demos/, and each python block of README.md, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.S | re.M)


def test_all_six_demos_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("dlgeom-demo-*")), "demo left its temporary directory behind"


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(1, len(README_BLOCKS) + 1)])
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})  # noqa: S102
