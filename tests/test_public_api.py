"""Every public definition of the package has a caller outside the tests."""

import ast
from collections import Counter
from pathlib import Path

from anisofast import cli

ROOT = Path(__file__).resolve().parents[1]

#: the public definitions that only the tests name: `run` is checked to be bit for bit
#: the composition of the two public steps, and the lock-step lanes of `anisofast lemmas`
#: are checked against the scalar recursion, draw by draw
TEST_REFERENCES = {"stable_dt", "advance", "fast_convergence"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _names(node) -> Counter:
    """How often each name is read in the code under node, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _public_definitions(tree):
    """(qualified name, node) of each public function or class of a module, and of each
    public method and property of its public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_definition_has_a_caller_outside_the_tests():
    # a definition is called when code outside its own body names it, in the package or
    # in bench/*.py, or when `cli` dispatches it by string (a check function, a
    # measured field of checks.csv)
    modules = {path: _parse(path) for path in (ROOT / "src" / "anisofast").glob("*.py")}
    bench = [_parse(path) for path in (ROOT / "bench").glob("*.py")]
    named = sum(map(_names, [*modules.values(), *bench]), Counter())
    named.update({*cli._CHECK_FUNCTIONS.values(), *cli._MEASURED})
    uncalled = sorted(
        f"{path.stem}.{qualified}"
        for path, tree in modules.items()
        for qualified, node in _public_definitions(tree)
        if named[node.name] == _names(node)[node.name] and node.name not in TEST_REFERENCES
    )
    assert uncalled == []
    assert all(named[name] == 0 for name in TEST_REFERENCES)  # each exception is still needed
