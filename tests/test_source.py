"""The package source stays within the oldest Python that CI runs, 3.10."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "meansq").glob("*.py"))


def test_sources_are_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
