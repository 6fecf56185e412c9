"""The sparse row format is private to `linalg`.

Every other module builds matrices through `SpMat.assemble`, the index-map
helpers and the constructors, and reads them through `get`, `col_dict`,
`entries` and the arithmetic. So no module but `linalg` may touch an
attribute named ``rows`` or ``dens`` (the row denominators), or pass a rows
dict to ``SpMat(...)``.
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


def test_no_rows_attribute_outside_linalg():
    uses = _sites(
        (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "rows"
    )
    assert uses == [], f"{len(uses)} uses of .rows outside linalg: {uses}"


def test_no_dens_attribute_outside_linalg():
    uses = _sites(
        (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "dens"
    )
    assert uses == [], f"{len(uses)} uses of .dens outside linalg: {uses}"


def test_no_raw_rows_construction_outside_linalg():
    raw = _sites(
        (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _is_spmat(node.func) and (
            len(node.args) >= 3 or any(k.arg in ("rows", "dens") for k in node.keywords)
        )
    )
    assert raw == [], f"{len(raw)} SpMat(...) calls with a rows dict outside linalg: {raw}"

