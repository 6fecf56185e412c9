"""No accessor twins under `src/artifact`.

A method whose whole body is ``return self._name`` (or
``return self._name[key]``) is a second name for a private attribute: the
reader goes through the method, and the table lives under the private
name. A derived table has one home, a cached attribute read by its public
name. So no non-dunder method may only return a private attribute, whole
or indexed. A method that reads a public field (``grade_of``) is not a
twin.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "artifact")


def _private_self_attribute(node) -> bool:
    """``self._name``, or ``self._name[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def accessor_twins(name: str, tree) -> list[str]:
    """``name:Class.method`` of each non-dunder method whose only statement
    after its docstring returns a private attribute of ``self``."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            body = fn.body
            if ast.get_docstring(fn) is not None:
                body = body[1:]
            if (len(body) == 1 and isinstance(body[0], ast.Return)
                    and _private_self_attribute(body[0].value)):
                found.append(f"{name}:{cls.name}.{fn.name}")
    return found


def test_no_accessor_twins():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            found += accessor_twins(os.path.basename(path), ast.parse(fh.read(), filename=path))
    assert found == [], f"methods that only return a private attribute: {found}"


def test_scan_sees_every_twin():
    source = (
        "class A:\n"
        "    def whole(self):\n"
        "        '''A docstring.'''\n"
        "        return self._table\n"
        "    def keyed(self, key):\n"
        "        return self._table[key]\n"
        "    @property\n"
        "    def prop(self):\n"
        "        return self._x\n"
        "    def __len__(self):\n"
        "        return self._n\n"
        "    def public(self, label):\n"
        "        return self.grade[self.index[label]]\n"
        "    def other(self, o):\n"
        "        return o._table\n"
        "    def two(self):\n"
        "        x = 1\n"
        "        return self._table\n"
        "    @cached_property\n"
        "    def table(self):\n"
        "        return {}\n"
        "class B:\n"
        "    class C:\n"
        "        def inner(self):\n"
        "            return self._y\n"
    )
    assert accessor_twins("m.py", ast.parse(source)) == [
        "m.py:A.whole", "m.py:A.keyed", "m.py:A.prop", "m.py:C.inner",
    ]
