"""Every definition in `src/artifact` is named by other code in the package.

Test oracles and references live under `tests/` (`*_reference.py` and the
helpers of each test module), so `src/` keeps only what the pipeline runs.
A function, class or non-dunder method that no other code of the package
names is either dead or a test helper, and fails here.

The scan is by name, as in `test_row_format`: a function or class counts as
used when its name occurs, as a name or as an attribute, anywhere in the
package outside its own body, and a method only when its name occurs as an
attribute (``x.name``) there, so that a builtin of the same name (``set``)
keeps no method alive. A name shared by two definitions is kept alive by a
use of either.
"""

import ast
import glob
import os
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "artifact")

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read(), filename=path)


def _names(node, attributes_only=False) -> Counter:
    """How often each name occurs under ``node``, as a name or an attribute
    (only as an attribute, with ``attributes_only``)."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, kinds)
    )


def unreached(trees) -> list[str]:
    """``file:line name`` of each definition whose name no other code uses."""
    trees = list(trees)
    total = sum((_names(tree) for _, tree in trees), Counter())
    attrs = sum((_names(tree, True) for _, tree in trees), Counter())
    methods = {
        id(sub) for _, tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) for sub in node.body
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    found = []
    for name, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, DEFS):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            method = id(node) in methods
            uses = attrs if method else total
            if uses[node.name] == _names(node, method)[node.name]:
                found.append((name, node.lineno, node.name))
    return [f"{name}:{line} {defn}" for name, line, defn in sorted(found)]


def test_every_src_definition_is_named_elsewhere_in_src():
    dead = unreached(_trees())
    assert dead == [], f"{len(dead)} definitions no code in src/artifact names: {dead}"


def test_scan_flags_definitions_named_only_by_themselves():
    tree = ast.parse(
        "def used():\n    return 1\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else used()\n\n"
        "class C:\n    def __repr__(self):\n        return 'C'\n"
        "    def method(self):\n        return C\n"
    )
    assert unreached([("m.py", tree)]) == ["m.py:4 lonely", "m.py:7 C", "m.py:10 method"]


def test_scan_counts_a_method_only_through_attributes():
    tree = ast.parse(
        "class M:\n"
        "    def set(self):\n        return 1\n"
        "    def get(self):\n        return 2\n\n"
        "def use(m):\n    return set([m.get()])\n\n"
        "use(M())\n"
    )
    assert unreached([("m.py", tree)]) == ["m.py:2 set"]
