"""Every function the benchmark tracer wraps still exists in the package.

``bench/tracer.py`` wraps package functions by (module, attribute) name from
outside: the spans of ``SPANS`` and the three size probes of ``install``. A
rename in ``src/`` would only show when the benchmark runs; this test reads
the tracer's source (it is compiled here, not imported, so nothing is written
under ``bench/``) and resolves each name, so the rename fails here instead.
"""

import ast
import types
from pathlib import Path

import pytest

import artifact.bggcli  # noqa: F401  (imports every module the tracer wraps)
from artifact.jetcalc import semiholonomic
from conftest import components_for, diagram_for

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    src = TRACER.read_text()
    mod = types.ModuleType("bench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(src, str(TRACER), "exec"), mod.__dict__)
    return mod, ast.parse(src)


def probe_targets(tree) -> list[tuple[str, str]]:
    """The (module, attribute) keys of the ``probes`` dict in ``install``."""
    install = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    for node in ast.walk(install):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "probes"):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("install() has no probes dict")


TRACER_MOD, TRACER_AST = load_tracer()
SPAN_TARGETS = [t for targets in TRACER_MOD.SPANS.values() for t in targets]


@pytest.mark.parametrize("target", SPAN_TARGETS, ids=lambda t: ".".join(t))
def test_span_target_resolves(target):
    owner, attr = TRACER_MOD._resolve(*target)
    assert callable(getattr(owner, attr))


def test_size_probes_resolve_and_read_their_results():
    targets = probe_targets(TRACER_AST)
    assert {mod for mod, _ in targets} == {"hodge", "jetcalc", "bggcore"}
    for target in targets:
        owner, attr = TRACER_MOD._resolve(*target)
        assert callable(getattr(owner, attr))
    # the hooks read their results without error
    rec = TRACER_MOD.Recorder()
    cc, _, _ = components_for("A1", (1,), (1,))
    rec._on_cochain_complex(cc)
    rec._on_semiholonomic(semiholonomic(cc.V, 2))
    rec._on_diagram(diagram_for("A1", (1,), (1,)))
    assert rec.sizes["chain_dims"] == [cc.dim(n) for n in range(cc.top + 1)]
    assert rec.sizes["jbar_max_dim"] > cc.V.dim
    assert rec.sizes["partial"] == 0
