"""`generate_submodule` is the one home of the jet budget,
`repmod.check_module_budget` of the module budget, and
`hodge.check_chain_budget` of the chain budget.

A source is partial when the Jbar^{r+1}(E/E^1) its arrows would read is
over the jet budget, and `bggcore.generate_submodule` decides that once,
at the layer of the closure that shows it. So under `src/artifact` only
`jetcalc` (which defines them) and `generate_submodule` may call
``jbar_dim`` and ``check_jet_budget``. And only `build_bgg_diagram`, which
passes the budget on, and `generate_submodule` take a jet budget: a
parameter named ``max_jet_dim``, or one whose default is ``MAX_JET_DIM``.
The CLI's job record `bggcli.JobSpec` holds the flag's value and is not
scanned as a function.

The module and chain budgets are checked once each, by `build_bgg_diagram`,
through ``check_module_budget`` and then ``check_chain_budget``. Both read
only dim p_+ and Weyl's dim V, and both run before `repmod.build_irrep`, the
one call that builds V; only `build_bgg_diagram` takes a ``max_module_dim``
or a ``max_chain_dim``, and `build_irrep` takes no budget. So a job either
budget refuses builds no module matrix and no `gradedla._ChevalleyTable`.
"""

import ast
import contextlib
import glob
import inspect
import io
import os

import pytest

from artifact import bggcore, gradedla, repmod
from artifact.bggcli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "artifact")

BUDGET_CALLS = {"jbar_dim", "check_jet_budget"}
# the chain budget: its check, its parameter and its default, and no module
# whose calls of the check go unscanned
CHAIN = dict(names={"check_chain_budget"}, param="max_chain_dim", default="MAX_CHAIN_DIM",
             home=None)
MODULE = dict(names={"check_module_budget"}, param="max_module_dim", default="MAX_MODULE_DIM",
              home=None)


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _takes_budget(fn: ast.FunctionDef, param: str, default: str) -> bool:
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    defaults = args.defaults + [d for d in args.kw_defaults if d is not None]
    return (any(a.arg == param for a in params)
            or any(isinstance(d, ast.Name) and d.id == default for d in defaults))


def budget_sites(name: str, tree, names=BUDGET_CALLS, param="max_jet_dim",
                 default="MAX_JET_DIM", home="jetcalc") -> tuple[list[tuple], list[str]]:
    """((``module.function``, name, line) of each call of ``jbar_dim`` or
    ``check_jet_budget`` outside `jetcalc`, ``module.function`` of each
    function that takes a jet budget), with ``module`` the file's stem and
    classes other than ``JobSpec`` walked into. The keywords name another
    budget's checks, parameter, default and home module."""
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
                if _takes_budget(child, param, default):
                    takers.append(inner)
                walk(child, inner)
                continue
            if (isinstance(child, ast.Call) and _called_name(child) in names
                    and module != home):
                calls.append((where, _called_name(child), child.lineno))
            walk(child, where)

    walk(tree, module)
    return calls, takers


def scan(**budget) -> tuple[list[tuple], list[str]]:
    calls, takers = [], []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        c, t = budget_sites(os.path.basename(path), tree, **budget)
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


def test_the_chain_budget_is_checked_once_by_the_pipeline_entry():
    calls, takers = scan(**CHAIN)
    assert [(where, name) for where, name, _ in calls] == \
        [("bggcore.build_bgg_diagram", "check_chain_budget")], calls
    assert takers == ["bggcore.build_bgg_diagram"]


def test_scan_sees_every_chain_budget_form():
    source = (
        "def f(V, max_chain_dim=5):\n"
        "    check_chain_budget(1, V.dim, max_chain_dim)\n"
        "def g(V, limit=MAX_CHAIN_DIM):\n"
        "    hodge.check_chain_budget(1, 2, limit)\n"
    )
    assert budget_sites("hodge.py", ast.parse(source), **CHAIN) == (
        [("hodge.f", "check_chain_budget", 2), ("hodge.g", "check_chain_budget", 4)],
        ["hodge.f", "hodge.g"])


def test_the_module_budget_is_checked_once_by_the_pipeline_entry():
    calls, takers = scan(**MODULE)
    assert [(where, name) for where, name, _ in calls] == \
        [("bggcore.build_bgg_diagram", "check_module_budget")], calls
    assert takers == ["bggcore.build_bgg_diagram"]
    assert list(inspect.signature(repmod.build_irrep).parameters) == ["g", "lam"]


def test_both_budgets_are_checked_before_the_module_is_built():
    lines = []
    for names in ({"check_module_budget"}, {"check_chain_budget"}, {"build_irrep"}):
        calls, _ = scan(names=names, param=None, default=None, home=None)
        assert [where for where, _, _ in calls] == ["bggcore.build_bgg_diagram"], calls
        lines.append(calls[0][2])
    assert lines == sorted(lines)


def test_scan_sees_a_stray_module_budget():
    source = (
        "def build_irrep(g, lam, max_dim=MAX_MODULE_DIM):\n"
        "    return check_module_budget(g.rs, lam, max_dim)\n"
        "def f(V, max_module_dim=5):\n"
        "    repmod.check_module_budget(1, 2, max_module_dim)\n"
    )
    assert budget_sites("repmod.py", ast.parse(source), **MODULE) == (
        [("repmod.build_irrep", "check_module_budget", 2),
         ("repmod.f", "check_module_budget", 4)],
        ["repmod.build_irrep", "repmod.f"])


@pytest.mark.parametrize("algebra,cross,weight,err", [
    ("B4", "1,2,3,4", "0,1,0,1", "error: dim C^8 = 5559840 exceeds budget 20000\n"),
    ("B3", "1,2,3", "1,1,1", "error: dim V((1, 1, 1)) = 512 exceeds budget 500\n"),
], ids=["chain", "module"])
def test_a_budget_refusal_builds_no_module(algebra, cross, weight, err, monkeypatch):
    """A job refused by the chain or the module budget exits 1 with its one
    error line, and `repmod.build_irrep` is never called."""
    built = []

    def recording(g, lam):
        built.append(lam)
        return repmod.build_irrep(g, lam)

    monkeypatch.setattr(bggcore, "build_irrep", recording)
    out, errs = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errs):
        code = main(["--algebra", algebra, "--cross", cross, "--weight", weight, "cohomology"])
    assert (code, out.getvalue(), errs.getvalue()) == (1, "", err)
    assert built == []


def test_a_chain_budget_refusal_builds_no_structure_constants(monkeypatch):
    """``A20 {1} (0,...,0) cohomology`` is refused by the chain budget with
    its one error line, and no `gradedla._ChevalleyTable` is constructed."""
    built = []
    init = gradedla._ChevalleyTable.__init__

    def recording(self, rs):
        built.append(rs.label)
        init(self, rs)

    monkeypatch.setattr(gradedla._ChevalleyTable, "__init__", recording)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--algebra", "A20", "--cross", "1", "--weight", ",".join("0" * 20),
                     "cohomology"])
    assert (code, out.getvalue(), err.getvalue()) == \
        (1, "", "error: dim C^10 = 184756 exceeds budget 20000\n")
    assert built == []
