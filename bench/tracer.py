"""Wrappers installed from outside the package around each layer's public functions.

Nothing under ``src/`` knows about them. ``install`` replaces a function
everywhere it is bound: in the module that defines it, in every ``artifact``
module that imported it by name (``bggcore`` does ``from .jetcalc import
semiholonomic``), and on ``SpMat`` for its methods.

Two kinds of wrapper exist:

* size probes record the sizes that drive cost (cochain dims, Jbar dims,
  partial sources). They take no timings, and the untraced run installs only
  these.
* spans (traced run only) time each call with ``perf_counter``. ``s`` is the
  inclusive time, ``self_s`` the time minus that of the spans opened inside
  it, and ``calls`` the count. A call that re-enters a span already open
  counts once, in the outer span. Spans stay in memory and are reported
  when the job ends.
"""

from __future__ import annotations

import functools
import sys
import time

# metric prefix -> functions it times, as (module, attribute) under ``artifact``
SPANS = {
    "bggcli.main": [("bggcli", "main")],
    "bggcli.emit": [("bggcli", "emit_text"), ("bggcli", "emit_json")],
    "gradedla.build_graded_algebra": [("gradedla", "build_graded_algebra")],
    "repmod.build_irrep": [("repmod", "build_irrep")],
    "repmod.decompose_completely_reducible": [("repmod", "decompose_completely_reducible")],
    "hodge.build_cochain_complex": [("hodge", "build_cochain_complex")],
    "hodge.cohomology_module": [("hodge", "cohomology_module")],
    "bggcore.identities": [
        ("bggcore", "verify_cochain_identities"),
        ("bggcore", "verify_codifferential_leibniz"),
        ("bggcore", "verify_differential_commutator"),
    ],
    "bggcore.generate_submodule": [("bggcore", "generate_submodule")],
    "bggcore.compose_splitter": [("bggcore", "compose_splitter")],
    "bggcore.bgg_operator": [("bggcore", "bgg_operator")],
    "bggcore.verify_splitter": [
        ("bggcore", "verify_splitter_projection"),
        ("bggcore", "verify_splitter_defect"),
    ],
    "jetcalc.semiholonomic": [("jetcalc", "semiholonomic")],
    "jetcalc.check_equivariance": [("jetcalc", "check_equivariance")],
    "linalg.matmul": [("linalg", "SpMat.__matmul__")],
    "linalg.rref": [("linalg", "SpMat.rref")],
}


class Recorder:
    def __init__(self) -> None:
        self.spans: dict[str, dict] = {}
        self.sizes = {"chain_dims": [], "jbar_max_dim": 0, "partial": 0}
        self._open: list[list] = []  # [name, seconds of child spans]

    # size probes
    def _on_cochain_complex(self, cc) -> None:
        self.sizes["chain_dims"] = [cc.dim(n) for n in range(cc.top + 1)]

    def _on_semiholonomic(self, sh) -> None:
        self.sizes["jbar_max_dim"] = max(self.sizes["jbar_max_dim"], sh.module.dim)

    def _on_diagram(self, diagram) -> None:
        self.sizes["partial"] = len(diagram.partial)

    def probe(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(out)
            return out
        return wrapper

    def span(self, name: str, fn):
        stat = self.spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        opened = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(frame[0] == name for frame in opened):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            opened.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                opened.pop()
                stat["calls"] += 1
                stat["s"] += dt
                stat["self_s"] += dt - frame[1]
                if opened:
                    opened[-1][1] += dt
        return wrapper

    def report(self) -> dict:
        return {"sizes": self.sizes, "spans": self.spans}


def _rebind(original, replacement) -> None:
    """Point every ``artifact`` module name bound to ``original`` at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "artifact" or modname.startswith("artifact."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)


def _resolve(modname: str, attr: str):
    owner = sys.modules[f"artifact.{modname}"]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def install(timed: bool) -> Recorder:
    """Install the size probes, and with ``timed`` the spans; return the recorder."""
    rec = Recorder()
    probes = {
        ("hodge", "build_cochain_complex"): rec._on_cochain_complex,
        ("jetcalc", "semiholonomic"): rec._on_semiholonomic,
        ("bggcore", "build_bgg_diagram"): rec._on_diagram,
    }
    for target, hook in probes.items():
        owner, attr = _resolve(*target)
        fn = getattr(owner, attr)
        _rebind(fn, rec.probe(fn, hook))
    if timed:
        for name, targets in SPANS.items():
            for target in targets:
                owner, attr = _resolve(*target)
                fn = getattr(owner, attr)
                wrapped = rec.span(name, fn)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                else:
                    _rebind(fn, wrapped)
    return rec
