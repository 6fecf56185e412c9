"""No certificate may live in an `assert`: `python -O` strips those."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "artifact")


@pytest.mark.parametrize("module", [
    "bggcore", "certify", "jetcalc", "hodge",
    "bggcli", "gradedla", "linalg", "repmod", "rootspace",
])
def test_module_has_no_assert(module):
    path = os.path.join(SRC, f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module}.py has assert statements on lines {lines}"
