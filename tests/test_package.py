"""The package namespace: ``from dlgeom import *`` binds what ``__all__`` lists, and
something besides the tests uses each of those names; the README installs every
test extra that pyproject declares; and every module parses at the Python floor
that pyproject declares."""

import ast
import re
from pathlib import Path

import pytest

import dlgeom


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from dlgeom import *", namespace)  # noqa: S102
    assert [name for name in dlgeom.__all__ if name not in namespace] == []
    assert len(set(dlgeom.__all__)) == len(dlgeom.__all__)


#: public names that only tests reach, each with the reason it stays
TEST_ONLY_NAMES = {
    # the condition t1_dual = g_dual goes into verify_offset's residual keys
    # first (ROADMAP items 2 and 8); until then acceptance criterion 8 reads it
    "mannheim_condition_residual",
}


def _uses_outside_tests():
    """Every line of the package (but ``__init__.py``), the demos, perfbench and README."""
    root = Path(dlgeom.__file__).resolve().parents[2]
    paths = [p for p in sorted((root / "src" / "dlgeom").glob("*.py")) if p.name != "__init__.py"]
    paths += [*sorted((root / "demos").glob("*.py")), *sorted((root / "perfbench").glob("*.py")),
              root / "README.md"]
    return [line for p in paths for line in p.read_text(encoding="utf-8").splitlines()]


def test_every_public_name_is_used_outside_the_tests():
    lines = _uses_outside_tests()

    def used(name):
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(?:(?:def|class)\s+{name}\b|{name}\s*[:=](?!=))")
        return any(word.search(line) and not own.match(line) for line in lines)

    unused = [n for n in dlgeom.__all__ if n != "catalog" and not used(n)]
    assert sorted(unused) == sorted(TEST_ONLY_NAMES)


def test_readme_install_line_names_every_test_extra():
    root = Path(dlgeom.__file__).resolve().parents[2]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    extras = re.findall(r'"([^"]+)"', re.search(r"^test = \[(.*)\]$", pyproject, re.M)[1])
    line = next(line for line in (root / "README.md").read_text(encoding="utf-8").splitlines()
                if line.startswith("pip install") and "test extras" in line)
    assert extras and [x for x in extras if x not in line.split()] == []


def test_every_module_parses_at_the_declared_python_floor():
    # read by regex: 3.10, the floor itself, has no tomllib
    root = Path(dlgeom.__file__).resolve().parents[2]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()
    floor = (int(major), int(minor))
    modules = sorted((root / "src" / "dlgeom").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
    # feature_version has teeth: except*, new in 3.11, does not parse as 3.10
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
