"""One path through the jet tower.

The tower starts at Jbar^0 = V, built in `jetcalc.semiholonomic`, and every
higher order, Jbar^1 included, is one `_extend` step. So every
`SemiHolonomicJet` has an index map ``phi`` (empty at order 0), and every
splitter chain has a ``jet`` (Jbar^0 when it composes no L_i). No code under
`src/artifact` may test a ``phi`` or a ``.jet`` against None, and only
`jetcalc` may construct a `SemiHolonomicJet`.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "artifact")


def _names_phi_or_jet(node) -> bool:
    """``phi``, ``x.phi`` or ``x.jet``."""
    if isinstance(node, ast.Name):
        return node.id == "phi"
    return isinstance(node, ast.Attribute) and node.attr in ("phi", "jet")


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def jet_sites(name: str, tree) -> list[str]:
    """``name:line`` of each ``is None`` / ``is not None`` test of a ``phi``
    or a ``.jet``, and, outside `jetcalc`, of each ``SemiHolonomicJet(...)``
    call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Is, ast.IsNot)):
                    continue
                if (_is_none(right) and _names_phi_or_jet(left)) or (
                        _is_none(left) and _names_phi_or_jet(right)):
                    found.append(f"{name}:{node.lineno}")
        elif isinstance(node, ast.Call) and name != "jetcalc.py":
            fn = node.func
            called = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if called == "SemiHolonomicJet":
                found.append(f"{name}:{node.lineno}")
    return sorted(found, key=lambda site: int(site.rsplit(":", 1)[1]))


def test_one_path_through_the_tower():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            found += jet_sites(os.path.basename(path), ast.parse(fh.read(), filename=path))
    assert found == [], f"a second path through the jet tower: {found}"


def test_scan_sees_every_form():
    source = (
        "if jet.phi is None:\n"
        "    pass\n"
        "x = phi if phi is not None else range(3)\n"
        "y = None is chain.jet\n"
        "sh = SemiHolonomicJet(r=0, V=V, module=V, phi=())\n"
        "sh = jetcalc.SemiHolonomicJet(0, V, V, ())\n"
        "z = other is None\n"
        "w = chain.jet.r == 0\n"
    )
    tree = ast.parse(source)
    assert jet_sites("m.py", tree) == ["m.py:1", "m.py:3", "m.py:4", "m.py:5", "m.py:6"]
    assert jet_sites("jetcalc.py", tree) == ["jetcalc.py:1", "jetcalc.py:3", "jetcalc.py:4"]
