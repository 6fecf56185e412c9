"""The sparse row format is private to `linalg`.

Every other module builds matrices through `SpMat.assemble`, the index-map
helpers and the constructors, and reads them through `get`, `col_dict`,
`entries` and the arithmetic. So no module but `linalg` may touch an
attribute named ``rows``, pass a rows dict to ``SpMat(...)``, or accumulate
with ``m.set(i, j, m.get(i, j) + x)``.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "artifact")


def _sites(found):
    return [f"{name}:{line}" for name, line in sorted(found)]


def _trees():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        if name == "linalg.py":
            continue
        with open(path, encoding="utf-8") as fh:
            yield name, ast.parse(fh.read(), filename=path)


def _is_spmat(func) -> bool:
    return (isinstance(func, ast.Name) and func.id == "SpMat") or (
        isinstance(func, ast.Attribute) and func.attr == "SpMat"
    )


def _method_call(node, method):
    """(receiver source, argument nodes) when node is `<receiver>.<method>(...)`."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == method):
        return ast.unparse(node.func.value), node.args
    return None


def test_no_rows_attribute_outside_linalg():
    uses = _sites(
        (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "rows"
    )
    assert uses == [], f"{len(uses)} uses of .rows outside linalg: {uses}"


def test_no_raw_rows_construction_outside_linalg():
    raw = _sites(
        (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _is_spmat(node.func) and (
            len(node.args) >= 3 or any(k.arg == "rows" for k in node.keywords)
        )
    )
    assert raw == [], f"{len(raw)} SpMat(...) calls with a rows dict outside linalg: {raw}"


def test_no_set_get_accumulation_outside_linalg():
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            setter = _method_call(node, "set")
            if setter is None or len(setter[1]) != 3:
                continue
            target, (i, j, value) = setter
            for sub in ast.walk(value):
                getter = _method_call(sub, "get")
                if getter is None or getter[0] != target:
                    continue
                if [ast.unparse(a) for a in getter[1]] == [ast.unparse(i), ast.unparse(j)]:
                    found.append((name, node.lineno))
    found = _sites(found)
    assert found == [], f"{len(found)} set(i, j, get(i, j) + x) accumulations: {found}"
