"""`generate_submodule` is the one home of the jet budget.

A source is partial when the Jbar^{r+1}(E/E^1) its arrows would read is
over the jet budget, and `bggcore.generate_submodule` decides that once,
at the layer of the closure that shows it. So under `src/artifact` only
`jetcalc` (which defines them) and `generate_submodule` may call
``jbar_dim`` and ``check_jet_budget``. And only `build_bgg_diagram`, which
passes the budget on, and `generate_submodule` take a jet budget: a
parameter named ``max_jet_dim``, or one whose default is ``MAX_JET_DIM``.
The CLI's job record `bggcli.JobSpec` holds the flag's value and is not
scanned as a function.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "artifact")

BUDGET_CALLS = {"jbar_dim", "check_jet_budget"}


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _takes_jet_budget(fn: ast.FunctionDef) -> bool:
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    defaults = args.defaults + [d for d in args.kw_defaults if d is not None]
    return (any(a.arg == "max_jet_dim" for a in params)
            or any(isinstance(d, ast.Name) and d.id == "MAX_JET_DIM" for d in defaults))


def budget_sites(name: str, tree) -> tuple[list[tuple], list[str]]:
    """((``module.function``, name, line) of each call of ``jbar_dim`` or
    ``check_jet_budget`` outside `jetcalc`, ``module.function`` of each
    function that takes a jet budget), with ``module`` the file's stem and
    classes other than ``JobSpec`` walked into."""
    module = name[:-3]
    calls, takers = [], []

    def walk(node, where: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if child.name != "JobSpec":
                    walk(child, f"{where}.{child.name}")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{where}.{child.name}"
                if _takes_jet_budget(child):
                    takers.append(inner)
                walk(child, inner)
                continue
            if (isinstance(child, ast.Call) and _called_name(child) in BUDGET_CALLS
                    and module != "jetcalc"):
                calls.append((where, _called_name(child), child.lineno))
            walk(child, where)

    walk(tree, module)
    return calls, takers


def scan() -> tuple[list[tuple], list[str]]:
    calls, takers = [], []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        c, t = budget_sites(os.path.basename(path), tree)
        calls += c
        takers += t
    return calls, takers


def test_budget_calls_only_in_jetcalc_and_generate_submodule():
    calls, _ = scan()
    assert {where for where, _, _ in calls} == {"bggcore.generate_submodule"}, calls
    assert [name for _, name, _ in calls].count("check_jet_budget") == 1, calls


def test_only_the_pipeline_entry_and_the_closure_take_a_jet_budget():
    _, takers = scan()
    assert sorted(takers) == ["bggcore.build_bgg_diagram", "bggcore.generate_submodule"]


def test_scan_sees_every_form():
    source = (
        "def f(cc, max_jet_dim=5):\n"
        "    return jbar_dim(1, 2, 3)\n"
        "def g(V, r, max_dim=MAX_JET_DIM):\n"
        "    jetcalc.check_jet_budget(1, 2, 3, max_dim)\n"
        "class C:\n"
        "    def h(self, *, limit=MAX_JET_DIM):\n"
        "        return [jbar_dim(1, 1, k) for k in range(3)]\n"
        "class JobSpec:\n"
        "    def __init__(self, max_jet_dim=MAX_JET_DIM):\n"
        "        jbar_dim(1, 1, 1)\n"
        "def k(max_dim=MAX_MODULE_DIM):\n"
        "    return dim(1)\n"
    )
    tree = ast.parse(source)
    assert budget_sites("m.py", tree) == (
        [("m.f", "jbar_dim", 2), ("m.g", "check_jet_budget", 4), ("m.C.h", "jbar_dim", 7)],
        ["m.f", "m.g", "m.C.h"])
    assert budget_sites("jetcalc.py", tree) == ([], ["jetcalc.f", "jetcalc.g", "jetcalc.C.h"])
