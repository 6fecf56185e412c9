"""`gradedla` is the one home of the Lie bracket.

Every other module reads brackets through what `gradedla` derives from them:
``pplus_action`` (ad Z on p_+, whose entries are the structure constants of
p_+; those of g_- are their negatives), ``xi_brackets`` and
``action_from_simples``. So no module under `src/artifact` other than
`gradedla` may name ``bracket_labels``.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "artifact")


def bracket_sites(name: str, tree) -> list[str]:
    """``name:line``, in line order, of each use of ``bracket_labels`` outside `gradedla`,
    as a name, an attribute, an argument, a keyword, a definition or an
    imported name."""
    if name == "gradedla.py":
        return []
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            ids = [node.id]
        elif isinstance(node, ast.Attribute):
            ids = [node.attr]
        elif isinstance(node, (ast.arg, ast.keyword)):
            ids = [node.arg]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            ids = [node.name]
        elif isinstance(node, ast.ImportFrom):
            ids = [a.name for a in node.names]
        else:
            continue
        if "bracket_labels" in ids:
            lines.append(node.lineno)
    return [f"{name}:{n}" for n in sorted(lines)]


def test_only_gradedla_names_the_bracket():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            found += bracket_sites(os.path.basename(path), ast.parse(fh.read(), filename=path))
    assert found == [], f"bracket_labels outside gradedla: {found}"


def test_scan_sees_every_form():
    source = (
        "from .gradedla import bracket_labels\n"
        "def f(g, bracket_labels=None):\n"
        "    return g.bracket_labels(x, y)\n"
        "x = h(bracket_labels=1)\n"
        "def bracket_labels(): pass\n"
        "y = bracket_labels\n"
        "z = g.pplus_action\n"
    )
    tree = ast.parse(source)
    assert bracket_sites("m.py", tree) == ["m.py:1", "m.py:2", "m.py:3", "m.py:4", "m.py:5",
                                           "m.py:6"]
    assert bracket_sites("gradedla.py", tree) == []
