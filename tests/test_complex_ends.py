"""The cochain complex is zero outside 0..top, and it holds both zero ends.

`CochainComplex` keys its weights, maps and wedge tuples by the level n,
builds Lambda^{-1} = Lambda^{top+1} = 0, and with it the action on
C^{-1} = C^{top+1} = 0, like any level when asked, and stores the zero maps
into and out of it, so the first and the last level read their neighbours
as every other level does.
The tests below pin those ends on every `BATTERY` case, and a scan of the
modules that read the complex keeps them from testing a level against an
end again: outside `CochainComplex`, no code in `hodge`, `certify` or
`bggcore` compares a level ``n`` (or ``n + k``, ``n - k``) with -1, 0, 1,
``d`` or a ``.top``, or tests ``n`` by truthiness.
"""

import ast
import os

import pytest

from artifact.hodge import DegreeOverflow
from artifact.linalg import SpMat
from conftest import BATTERY, complex_for, level_action, unit_wedges

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "artifact")
SCANNED = ("hodge.py", "certify.py", "bggcore.py")
CASES = [(l, s, w) for l, s, ws in BATTERY for w in ws]


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_complex_is_zero_at_both_ends(label, sigma, weight):
    cc = complex_for(label, sigma, weight)
    top = cc.top
    assert top == len(cc.g.pplus_roots)
    assert sorted(cc.weights) == sorted(cc.wedge_tuples) == list(range(-1, top + 2))
    assert sorted(cc.dels) == sorted(cc.delstars) == list(range(-1, top + 1))
    for n in (-1, top + 1):
        end = cc.wedge_module(n)
        assert cc.dim(n) == end.dim == 0
        assert cc.weights[n] == ()
        assert all(A.nrows == A.ncols == 0 for A in end.actions.values())
        assert all(level_action(cc, n, lab) == SpMat(0, 0) for lab in end.actions)
        assert cc.wedge_tuples[n] == []
    first, last = cc.dim(0), cc.dim(top)
    for m, shape in [(cc.dels[-1], (first, 0)), (cc.delstars[-1], (0, first)),
                     (cc.dels[top], (0, last)), (cc.delstars[top], (last, 0))]:
        assert (m.nrows, m.ncols) == shape
        assert m.is_zero()


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_unit_wedges_are_zero_at_both_ends(label, sigma, weight):
    """eps_a (x) 1_V, placed from the bare wedges as every reader places it,
    out of C^{-1} and out of C^top."""
    cc = complex_for(label, sigma, weight)
    for n, shape in [(-1, (cc.dim(0), 0)), (cc.top, (0, cc.dim(cc.top)))]:
        wedges = unit_wedges(cc, n)
        assert len(wedges) == len(cc.g.pplus_roots)
        assert all((w.nrows, w.ncols) == shape and w.is_zero() for w in wedges)
    for n in (-2, cc.top + 1):
        with pytest.raises(DegreeOverflow):
            unit_wedges(cc, n)


def _shifted(node, base) -> bool:
    """``base(x)``, or ``x + k`` / ``x - k`` for a constant k with base(x)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return isinstance(node.right, ast.Constant) and _shifted(node.left, base)
    return base(node)


def _is_n(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "n"


def _is_end(node) -> bool:
    """-1, 0, 1, ``d`` or an ``x.top``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value in (0, 1)
    return (isinstance(node, ast.Name) and node.id == "d") or (
        isinstance(node, ast.Attribute) and node.attr == "top")


def _truth_tests(node):
    """The expressions ``node`` tests for truth."""
    if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
        yield node.test
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node.operand
    elif isinstance(node, ast.BoolOp):
        yield from node.values
    elif isinstance(node, ast.comprehension):
        yield from node.ifs


def _outside_the_complex(tree):
    """Every node of ``tree`` but those of ``class CochainComplex``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == "CochainComplex":
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def end_sites(name: str, tree) -> list[str]:
    """``name:line`` of each comparison of a level with an end, and of each
    truth test of ``n``, outside `CochainComplex`."""
    found = set()
    for node in _outside_the_complex(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any((_shifted(a, _is_n) and _shifted(b, _is_end))
                   or (_shifted(b, _is_n) and _shifted(a, _is_end))
                   for a, b in zip(operands, operands[1:])):
                found.add(node.lineno)
        found.update(t.lineno for t in _truth_tests(node) if _is_n(t))
    return [f"{name}:{line}" for line in sorted(found)]


def test_no_reader_branches_on_an_end():
    found = []
    for name in SCANNED:
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            found += end_sites(name, ast.parse(fh.read(), filename=path))
    assert found == [], f"a level tested against an end of the complex: {found}"


def test_scan_sees_every_form():
    source = (
        "if n == d:\n"
        "    pass\n"
        "x = a if n >= 1 else b\n"
        "if n + 1 < cc.top and ok:\n"
        "    pass\n"
        "if not 0 <= n < self.top:\n"
        "    pass\n"
        "if n:\n"
        "    pass\n"
        "y = [k for k in r if n]\n"
        "z = n and w\n"
        "if cc.top - 1 > n - 1:\n"
        "    pass\n"
        "if n > -1:\n"
        "    pass\n"
        "class CochainComplex:\n"
        "    def dim(self, n):\n"
        "        return 0 if not 0 <= n <= self.top else 1\n"
        "if n != x:\n"
        "    pass\n"
        "if i >= 2 or k <= gs.r:\n"
        "    pass\n"
        "if m == 0 and n == size:\n"
        "    pass\n"
    )
    lines = [1, 3, 4, 6, 8, 10, 11, 12, 14]
    assert end_sites("m.py", ast.parse(source)) == [f"m.py:{k}" for k in lines]
