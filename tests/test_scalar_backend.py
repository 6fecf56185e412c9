"""Every rational in `linalg` is built through `Q`, the one name of the
scalar type (`fractions.Fraction`, imported as `Q`): no code names
`Fraction` itself."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "artifact")


def test_linalg_builds_rationals_through_Q():
    path = os.path.join(SRC, "linalg.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
            isinstance(h.type, ast.Name) and h.type.id == "ImportError" for h in node.handlers
        ):
            for h in node.handlers:
                for stmt in h.body:
                    # the fallback backend: Q = Fraction
                    if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name)
                            and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["Q"]):
                        allowed.add(id(stmt.value))
    stray = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "Fraction" and id(node) not in allowed
    ]
    assert stray == [], f"linalg.py uses Fraction outside the fallback on lines {stray}"
