"""The package depends on numpy and scipy.sparse and nothing else outside the standard library."""

import ast
import os
import re
import sys

import pytest

import latentmap

PACKAGE_DIR = os.path.dirname(latentmap.__file__)
ALLOWED = {"numpy", "scipy", "latentmap"}


def _imported_modules(path):
    """Full dotted names of every module that the source at ``path`` imports.

    ``from a import b`` counts as ``a.b``: b may be a submodule.
    """
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            if node.module == "scipy":
                names.update(f"scipy.{alias.name}" for alias in node.names)
    return names


SOURCES = sorted(f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))


@pytest.mark.parametrize("name", SOURCES)
def test_every_import_is_stdlib_numpy_scipy_or_the_package(name):
    imported = {m.split(".")[0] for m in _imported_modules(os.path.join(PACKAGE_DIR, name))}
    assert imported - sys.stdlib_module_names - ALLOWED == set()


@pytest.mark.parametrize("name", SOURCES)
def test_scipy_sparse_is_the_only_scipy_module_imported(name):
    # scipy.spatial alone (with the scipy.linalg and scipy.special it loads)
    # cost a training process about 19 MB
    imported = _imported_modules(os.path.join(PACKAGE_DIR, name))
    assert {m for m in imported if m.split(".")[0] == "scipy"} <= {"scipy.sparse"}


def test_pyproject_dependencies_are_numpy_and_scipy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps} == {"numpy", "scipy"}
