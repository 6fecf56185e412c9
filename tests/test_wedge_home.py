"""`hodge` is the one module that enumerates a wedge basis.

Every cochain matrix is built from the unit wedges of `hodge`, so no other
module under `src/artifact` may import `itertools.combinations`, either as
``from itertools import combinations`` or as ``itertools.combinations``
after ``import itertools``.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "artifact")


def combinations_sites(name: str, tree) -> list[str]:
    """``name:line`` of each import or attribute use of
    ``itertools.combinations`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            hit = any(a.name in ("combinations", "*") for a in node.names)
        elif isinstance(node, ast.Attribute):
            hit = (node.attr == "combinations" and isinstance(node.value, ast.Name)
                   and node.value.id == "itertools")
        else:
            hit = False
        if hit:
            found.append(f"{name}:{node.lineno}")
    return found


def test_only_hodge_enumerates_wedge_tuples():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        if name == "hodge.py":
            continue
        with open(path, encoding="utf-8") as fh:
            found += combinations_sites(name, ast.parse(fh.read(), filename=path))
    assert found == [], f"itertools.combinations outside hodge: {found}"


def test_scan_sees_both_import_forms():
    tree = ast.parse(
        "from itertools import accumulate\n"
        "from itertools import combinations as comb\n"
        "import itertools\n"
        "pairs = itertools.combinations(range(3), 2)\n"
    )
    assert combinations_sites("m.py", tree) == ["m.py:2", "m.py:4"]
