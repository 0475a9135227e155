"""The package source stays within the oldest Python that CI runs, 3.10.

The 3.10 grammar catches newer syntax; the name check catches the standard
library's newer modules and module attributes, which parse on any version.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "meansq").glob("*.py"))

# Modules and module attributes added after Python 3.10.
NEWER_MODULES = {"tomllib"}
NEWER_ATTRIBUTES = {
    "asyncio": {"TaskGroup", "timeout"},
    "contextlib": {"chdir"},
    "datetime": {"UTC"},
    "enum": {"StrEnum"},
    "hashlib": {"file_digest"},
    "itertools": {"batched"},
    "math": {"cbrt", "exp2", "fma", "sumprod"},
    "operator": {"call"},
    "typing": {"LiteralString", "Never", "Self", "assert_never", "override", "reveal_type"},
}


def newer_names(tree: ast.AST) -> list[str]:
    """Each import or attribute use of a name in the tables above, as 'module.name'."""
    modules = {}  # local name -> module, from every ``import`` in the tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    modules[alias.asname] = alias.name
                else:  # ``import a.b`` binds ``a``
                    top = alias.name.split(".")[0]
                    modules[top] = top
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] in NEWER_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in NEWER_MODULES:
                found.append(node.module)
            newer = NEWER_ATTRIBUTES.get(node.module, set())
            found += [f"{node.module}.{alias.name}" for alias in node.names if alias.name in newer]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if node.attr in NEWER_ATTRIBUTES.get(module, set()):
                found.append(f"{module}.{node.attr}")
    return sorted(found)


def test_sources_are_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_uses_no_library_name_newer_than_3_10(path):
    assert newer_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_newer_names_are_found():
    source = """
import itertools as it
import math
import tomllib
import typing
from enum import StrEnum
from math import gcd, sumprod

def f(x: typing.Self, y: typing.Any):
    return it.batched(x, 2), math.cbrt(y), math.isqrt(y), gcd(x, y)
"""
    assert newer_names(ast.parse(source)) == [
        "enum.StrEnum", "itertools.batched", "math.cbrt", "math.sumprod", "tomllib", "typing.Self",
    ]
