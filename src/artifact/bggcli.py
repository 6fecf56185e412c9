"""Command-line front end.

Grammar: flags and one command token in any order, e.g.

  bgg --algebra A3 --cross 1,3 --weight 0,0,0 diagram --emit dot,json

Commands: cohomology (columns only), diagram (columns and operator arrows),
verify (diagram pipeline, reporting the identity battery). Output is
deterministic: identical job specifications produce byte-identical reports.
Exit status is 0 exactly when every verified identity passes, 1 on a failed
identity, a budget refusal or a failed certificate (one `error:` line on
stderr, no traceback), and 2 on malformed or invalid input, an unknown
config key, or an --out path or a standard output that cannot be written.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

from .bggcore import BGGDiagram, SingularLaplacianBlock, build_bgg_diagram
from .certify import CertificationFailure
from .gradedla import AlgebraNotCertified, build_graded_algebra
from .hodge import ComplexNotCertified
from .jetcalc import MAX_JET_DIM, EqualizerNotCertified
from .linalg import qstr
from .repmod import (
    MAX_CHAIN_DIM,
    MAX_MODULE_DIM,
    DimensionOverBudget,
    ModuleNotCertified,
    NotCompletelyReducibleInput,
)
from .rootspace import (
    NotFiniteType,
    NotIrreducible,
    RootSystem,
    RootSystemNotCertified,
    build_root_system,
    parabolic,
    spec_rank,
)


class ParseError(Exception):
    """Malformed command line or config file, or an --out path or a standard
    output that cannot be written."""


class ValidationError(Exception):
    """Well-formed input naming an impossible job."""


COMMANDS = ("cohomology", "diagram", "verify")
# the flag names; a config file takes each of them but "config" as a key
FLAGS = ("algebra", "cross", "weight", "emit", "config",
         "max-module-dim", "max-jet-dim", "max-chain-dim", "out")
FORMATS = ("text", "dot", "json")
# failed certificates: exit 1 with one line naming the type
CERTIFICATE_ERRORS = (
    AlgebraNotCertified, CertificationFailure, ComplexNotCertified,
    EqualizerNotCertified, ModuleNotCertified, NotCompletelyReducibleInput,
    RootSystemNotCertified, SingularLaplacianBlock,
)


class JobSpec:
    """A job as given. ``root_system`` is the one ``validate`` builds from
    ``algebra``, kept for ``run``; it is derived, so ``==`` skips it."""

    def __init__(self, algebra: str, sigma: tuple[int, ...], weight: tuple[int, ...],
                 command: str, emit: tuple[str, ...] = ("text",),
                 max_module_dim: int = MAX_MODULE_DIM, max_jet_dim: int = MAX_JET_DIM,
                 out: str | None = None, max_chain_dim: int = MAX_CHAIN_DIM):
        self.algebra, self.sigma, self.weight, self.command = algebra, sigma, weight, command
        self.emit, self.out = emit, out
        self.max_module_dim, self.max_jet_dim = max_module_dim, max_jet_dim
        self.max_chain_dim = max_chain_dim
        self.root_system: RootSystem | None = None

    def __eq__(self, other) -> bool:
        return type(other) is JobSpec and (
            {**vars(self), "root_system": None} == {**vars(other), "root_system": None}
        )


def _ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers for {what}: {text!r}") from exc


def _read_config(path: str) -> dict[str, str]:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParseError(f"{path}:{ln}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in FLAGS or key == "config":
                    raise ParseError(f"{path}:{ln}: unknown key {key!r}")
                if key in out:
                    raise ParseError(f"{path}:{ln}: duplicate key {key!r}")
                out[key] = val.strip()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"config {path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return out


def parse_spec(argv: list[str]) -> JobSpec:
    flags: dict[str, str] = {}
    command = None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--"):
            name = tok[2:]
            if name not in FLAGS:
                raise ParseError(f"unknown flag {tok!r} at position {i}")
            if i + 1 >= len(argv):
                raise ParseError(f"flag {tok!r} at position {i} needs a value")
            if name in flags:
                raise ParseError(f"duplicate flag {tok!r} at position {i}")
            flags[name] = argv[i + 1]
            i += 2
        elif tok in COMMANDS:
            if command is not None:
                raise ParseError(f"second command {tok!r} at position {i}")
            command = tok
            i += 1
        else:
            raise ParseError(f"unexpected token {tok!r} at position {i}")
    if command is None:
        raise ValidationError(f"missing command (one of {', '.join(COMMANDS)})")
    merged: dict[str, str] = {}
    if "config" in flags:
        merged.update(_read_config(flags["config"]))
    merged.update({k: v for k, v in flags.items() if k != "config"})
    for req in ("algebra", "cross", "weight"):
        if req not in merged:
            raise ValidationError(f"missing --{req}")
    sigma = _ints(merged["cross"], "--cross")
    weight = _ints(merged["weight"], "--weight")
    emit = tuple(merged.get("emit", "text").split(","))
    try:
        mmd = int(merged.get("max-module-dim", MAX_MODULE_DIM))
        mjd = int(merged.get("max-jet-dim", MAX_JET_DIM))
        mcd = int(merged.get("max-chain-dim", MAX_CHAIN_DIM))
    except ValueError as exc:
        raise ParseError(f"budgets must be integers: {exc}") from exc
    job = JobSpec(
        algebra=merged["algebra"], sigma=sigma, weight=weight, command=command,
        emit=emit, max_module_dim=mmd, max_jet_dim=mjd,
        out=merged.get("out"), max_chain_dim=mcd,
    )
    validate(job)
    return job


def _algebra_spec(text: str):
    """A series label as given, or an explicit Cartan matrix read from JSON."""
    if not text.lstrip().startswith("["):
        return text
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad Cartan matrix {text!r}: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("bad Cartan matrix: nested too deeply") from exc


def _root_system(text: str):
    """Accept a series label or an explicit Cartan matrix in JSON form."""
    spec = _algebra_spec(text)
    rs = build_root_system(spec)
    if rs.label:
        return rs
    return RootSystem(cartan=rs.cartan, rank=rs.rank, d=rs.d, pos_roots=rs.pos_roots,
                      label=json.dumps(spec, separators=(",", ":")))


def validate(job: JobSpec) -> None:
    """Refuse an impossible job, and keep the root system it builds on the
    job. The checks that need only the rank, read off the spec, or the job as
    parsed come before the root system, whose cost grows with the rank."""
    algebra_errors = (NotFiniteType, NotIrreducible, ValueError, TypeError)
    try:
        rank = spec_rank(_algebra_spec(job.algebra))
    except algebra_errors as exc:
        raise ValidationError(f"bad algebra {job.algebra!r}: {exc}") from exc
    if not job.sigma:
        raise ValidationError("empty crossed-node set")
    for s in job.sigma:
        if not 1 <= s <= rank:
            raise ValidationError(f"crossed node {s} out of range 1..{rank}")
    if len(set(job.sigma)) != len(job.sigma):
        raise ValidationError("repeated crossed node")
    if len(job.weight) != rank:
        raise ValidationError(
            f"weight needs {rank} entries, got {len(job.weight)}"
        )
    for node, w in enumerate(job.weight, 1):
        if w < 0:
            raise ValidationError(
                f"weight must be dominant: node {node} is negative"
            )
    if job.command not in COMMANDS:
        raise ValidationError(f"unknown command {job.command!r}")
    for i, f in enumerate(job.emit):
        if f not in FORMATS or f in job.emit[:i]:
            kind = "unknown" if f not in FORMATS else "repeated"
            raise ValidationError(f"{kind} emit format {f!r}")
    for flag, budget in (("--max-module-dim", job.max_module_dim),
                         ("--max-jet-dim", job.max_jet_dim),
                         ("--max-chain-dim", job.max_chain_dim)):
        if budget < 1:
            raise ValidationError(f"{flag} must be at least 1, got {budget}")
    try:
        job.root_system = _root_system(job.algebra)
    except algebra_errors as exc:
        raise ValidationError(f"bad algebra {job.algebra!r}: {exc}") from exc


class Report:
    def __init__(self, job: JobSpec, diagram: BGGDiagram):
        self.job, self.diagram = job, diagram
        self.rendered: dict[str, str] = {}

    @property
    def ok(self) -> bool:
        return all(self.diagram.verify.values())


def run(job: JobSpec) -> Report:
    """Run a job as ``parse_spec`` returns it: validated, with its root system."""
    g = build_graded_algebra(parabolic(job.root_system, set(job.sigma)))
    diagram = build_bgg_diagram(
        g, job.weight,
        max_module_dim=job.max_module_dim,
        max_jet_dim=job.max_jet_dim,
        with_arrows=job.command in ("diagram", "verify"),
        max_chain_dim=job.max_chain_dim,
    )
    report = Report(job=job, diagram=diagram)
    for fmt in job.emit:
        if fmt == "text":
            report.rendered[fmt] = emit_text(diagram, verify_only=job.command == "verify")
        elif fmt == "dot":
            report.rendered[fmt] = emit_dot(diagram)
        elif fmt == "json":
            report.rendered[fmt] = emit_json(diagram)
    return report


def _fmt_label(label) -> str:
    return "(" + ",".join(str(x) for x in label) + ")"


def emit_text(diagram: BGGDiagram, verify_only: bool = False) -> str:
    lines = [
        f"algebra {diagram.algebra}  "
        f"sigma {{{','.join(str(s) for s in diagram.sigma)}}}  "
        f"weight {_fmt_label(diagram.weight)}"
    ]
    if not verify_only:
        for n, col in enumerate(diagram.columns):
            cells = "  ".join(
                f"{_fmt_label(c.label)} [e={qstr(c.e_eigenvalue)}, dim {c.dim}]"
                for c in col
            )
            lines.append(f"level {n}: {cells}")
        if diagram.arrows:
            lines.append("arrows:")
            for a in diagram.arrows:
                src = diagram.columns[a.level][a.source].label
                tgt = diagram.columns[a.level + 1][a.target].label
                lines.append(
                    f"  ({a.level},{a.source}) {_fmt_label(src)} -> "
                    f"({a.level + 1},{a.target}) {_fmt_label(tgt)}  order {a.order}"
                )
        if diagram.partial:
            lines.append(
                "partial: arrows omitted for sources "
                + " ".join(f"({n},{s})" for n, s in diagram.partial)
            )
    lines.append("verify:")
    for key in sorted(diagram.verify):
        lines.append(f"  {key}: {'pass' if diagram.verify[key] else 'fail'}")
    return "\n".join(lines) + "\n"


def emit_dot(diagram: BGGDiagram) -> str:
    lines = [
        "digraph bgg {",
        "  rankdir=LR;",
        "  node [shape=box];",
        f"  label=\"{diagram.algebra} sigma={{{','.join(str(s) for s in diagram.sigma)}}} "
        f"weight={_fmt_label(diagram.weight)}\";",
    ]
    for n, col in enumerate(diagram.columns):
        for k, c in enumerate(col):
            lines.append(
                f"  n{n}_{k} [label=\"{_fmt_label(c.label)}\\ndim {c.dim}\"];"
            )
    for n, col in enumerate(diagram.columns):
        if len(col) > 1:
            names = "; ".join(f"n{n}_{k}" for k in range(len(col)))
            lines.append(f"  {{ rank=same; {names}; }}")
    for a in diagram.arrows:
        lines.append(
            f"  n{a.level}_{a.source} -> n{a.level + 1}_{a.target} "
            f"[label=\"{a.order}\"];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_json(diagram: BGGDiagram) -> str:
    obj = {
        "algebra": diagram.algebra,
        "sigma": list(diagram.sigma),
        "weight": list(diagram.weight),
        "columns": [
            {
                "level": n,
                "components": [
                    {
                        "label": list(c.label),
                        "e_eigenvalue": qstr(c.e_eigenvalue),
                        "dim": c.dim,
                    }
                    for c in col
                ],
            }
            for n, col in enumerate(diagram.columns)
        ],
        "arrows": [
            {"from": [a.level, a.source], "to": [a.level + 1, a.target], "order": a.order}
            for a in diagram.arrows
        ],
        "partial": [list(p) for p in diagram.partial],
        "verify": {
            k: "pass" if v else "fail" for k, v in diagram.verify.items()
        },
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_outputs(report: Report) -> None:
    job = report.job
    ext = {"text": "txt", "dot": "dot", "json": "json"}
    if job.out is None:
        if sys.stdout is None:
            raise ParseError("cannot write stdout: stdout is closed")
        try:
            for fmt in job.emit:
                sys.stdout.write(report.rendered[fmt])
            sys.stdout.flush()
        except OSError as exc:  # a pipe whose reader has exited
            # send the rest of the buffer nowhere, or the flush at exit fails again
            with contextlib.suppress(OSError, ValueError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ParseError(f"cannot write stdout: {exc.strerror or exc}") from exc
        return
    if len(job.emit) == 1:
        paths = {job.emit[0]: job.out}
    else:
        paths = {fmt: f"{job.out}.{ext[fmt]}" for fmt in job.emit}
    for fmt, path in paths.items():
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(report.rendered[fmt])
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from exc


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        job = parse_spec(list(argv))
        report = run(job)
        _write_outputs(report)
    except (ParseError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DimensionOverBudget as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 1
    except CERTIFICATE_ERRORS as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
