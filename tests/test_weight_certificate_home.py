"""The cochain complex certifies its maps' weight blocks once, in one place.

d and dstar commute with the Cartan, so each preserves the weight blocks of
C^n, and every split, kernel and projection slices the maps by weight. The
complex certifies this where it is constructed: ``CochainComplex.__init__``
reads every d_k and dstar_k, k = -1..top, once with `SpMat.rows_within`.
The spy test counts those reads over whole runs; the lint keeps every
other function under `src/artifact` from calling ``rows_within``.
"""

import ast
import glob
import os

import pytest

from artifact.bggcli import main
from artifact.hodge import CochainComplex
from artifact.linalg import SpMat

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "artifact")
HOME = ("hodge.py", "CochainComplex.__init__")

# a bench `cohomology` case (no arrows) and a bench `verify` case with 34 sources
RUNS = [
    ["--algebra", "G2", "--cross", "1", "--weight", "1,1", "cohomology"],
    ["--algebra", "A3", "--cross", "1,2,3", "--weight", "0,0,0", "verify"],
]


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: " ".join(argv[1::2]))
def test_each_map_is_certified_once_per_job(monkeypatch, capsys, argv):
    built, read = [], []
    init, rows_within = CochainComplex.__init__, SpMat.rows_within

    def spied_init(cc, *args, **kwargs):
        init(cc, *args, **kwargs)
        built.append(cc)

    def spied_rows_within(mat, allowed):
        read.append(mat)
        return rows_within(mat, allowed)

    monkeypatch.setattr(CochainComplex, "__init__", spied_init)
    monkeypatch.setattr(SpMat, "rows_within", spied_rows_within)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(built) == 1
    cc = built[0]
    maps = [*cc.dels.values(), *cc.delstars.values()]
    assert len(maps) == 2 * (cc.top + 2)
    assert len(read) == len(maps)
    assert [sum(m is r for r in read) for m in maps] == [1] * len(maps)


def rows_within_callers(name: str, tree) -> list[str]:
    """``name:line function`` of each call of ``rows_within`` in ``tree``,
    the function named by its qualified name (``<module>`` at top level),
    except those from ``HOME``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if callee == "rows_within" and (name, scope) != HOME:
                found.append(f"{name}:{node.lineno} {scope or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_the_complex_constructor_certifies_weight():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            found += rows_within_callers(os.path.basename(path),
                                         ast.parse(fh.read(), filename=path))
    assert found == [], f"rows_within called outside CochainComplex.__init__: {found}"


def test_scan_sees_every_caller():
    source = (
        "class CochainComplex:\n"
        "    def __init__(self, m):\n"
        "        m.rows_within([])\n"
        "        def inner():\n"
        "            return m.rows_within([])\n"
        "    def other(self, m):\n"
        "        return m.rows_within([])\n"
        "def hodge_decompose(cc):\n"
        "    return rows_within(cc, [])\n"
        "ok = m.rows_within\n"
        "x = m.rows_within([])\n"
    )
    tree = ast.parse(source)
    assert rows_within_callers("hodge.py", tree) == [
        "hodge.py:5 CochainComplex.__init__.inner",
        "hodge.py:7 CochainComplex.other",
        "hodge.py:9 hodge_decompose",
        "hodge.py:11 <module>",
    ]
    assert rows_within_callers("bggcore.py", tree)[0] == "bggcore.py:3 CochainComplex.__init__"
