"""`SpMat` has no arithmetic operators but ``@``.

A signed, scaled sum of matrices is one `SpMat.assemble` of its terms, so
the assembler stays the one loop that sums rows. Operators such as ``+``,
``-`` and unary ``-`` would be a second way to write a sum, and one the
reachability lint (`test_src_reachable`) cannot see, since it skips dunders.
So `SpMat` defines no dunder beyond ``__init__``, ``__eq__`` and
``__matmul__``, the last being the assembly of one product block.
"""

import ast
import os

LINALG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "src", "artifact", "linalg.py")

ALLOWED = {"__init__", "__eq__", "__matmul__"}


def extra_dunders(tree, cls: str = "SpMat") -> list[str]:
    """The dunder methods of class ``cls`` in ``tree`` outside ``ALLOWED``,
    as ``name:line``; raises LookupError when ``tree`` has no such class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return [
                f"{sub.name}:{sub.lineno}" for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and sub.name.startswith("__") and sub.name.endswith("__")
                and sub.name not in ALLOWED
            ]
    raise LookupError(f"no class {cls}")


def test_spmat_defines_no_operator_but_matmul():
    with open(LINALG, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=LINALG)
    extra = extra_dunders(tree)
    assert extra == [], f"SpMat dunders beyond {sorted(ALLOWED)}: {extra}"


def test_scan_sees_an_add_operator():
    tree = ast.parse(
        "class SpMat:\n"
        "    def __init__(self):\n        pass\n"
        "    def __eq__(self, other):\n        return True\n"
        "    def __matmul__(self, other):\n        return self\n"
        "    def __add__(self, other):\n        return self\n"
        "    def scale(self, c):\n        return self\n"
    )
    assert extra_dunders(tree) == ["__add__:8"]
