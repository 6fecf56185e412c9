"""`gradedla` is the one home of the E-grade.

E lies in the Cartan, so a coordinate of weight mu has E-grade
``g.e_eigenvalue(mu)``, and no module stores a grade per coordinate. So no
module under `src/artifact` may use the name ``e_grades``, and only
`gradedla` may name ``grading_element``: every other module reads the
grade through ``e_eigenvalue``.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "artifact")


def grade_sites(name: str, tree) -> list[str]:
    """``name:line`` of each use of ``e_grades``, and, outside `gradedla`,
    of ``grading_element``, as a name, an attribute, an argument, a keyword
    or an imported name."""
    banned = {"e_grades"} | ({"grading_element"} if name != "gradedla.py" else set())
    found = []
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
        if banned.intersection(ids):
            found.append(f"{name}:{node.lineno}")
    return found


def test_no_stored_grade_and_one_grading_element():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            found += grade_sites(os.path.basename(path), ast.parse(fh.read(), filename=path))
    assert found == [], f"E-grade outside e_eigenvalue: {found}"


def test_scan_sees_every_form():
    source = (
        "from .gradedla import grading_element\n"
        "def f(m, e_grades=None):\n"
        "    return m.e_grades\n"
        "x = PModule(e_grades=())\n"
        "E = g.grading_element()\n"
        "y = g.e_eigenvalue(mu)\n"
    )
    tree = ast.parse(source)
    assert grade_sites("m.py", tree) == ["m.py:1", "m.py:2", "m.py:3", "m.py:4", "m.py:5"]
    assert grade_sites("gradedla.py", tree) == ["gradedla.py:2", "gradedla.py:3", "gradedla.py:4"]
