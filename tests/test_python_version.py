"""The declared requires-python, checked as far as syntax goes.

The suite imports the package under one interpreter only, so each module is
parsed with the grammar of the declared minimum version instead.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "anisofast").glob("*.py"))


def _minimum_minor() -> int:
    """The minor version of pyproject.toml's `requires-python = ">=3.X"` (no tomllib in 3.10)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=\s*3\.(\d+)"', text, re.MULTILINE)
    assert match, "requires-python is not of the form >=3.X"
    return int(match.group(1))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_parses_at_the_declared_minimum_python(path):
    source = path.read_text(encoding="utf-8")
    ast.parse(source, filename=str(path), feature_version=(3, _minimum_minor()))


@pytest.mark.parametrize("source", ["try:\n    pass\nexcept* ValueError:\n    pass\n", "type X = int\n"])
def test_feature_version_rejects_newer_syntax(source):
    # what the check above rests on: 3.11 and 3.12 syntax does not parse as 3.10
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
