"""Command-line front end.

Grammar: flags and one command token in any order, e.g.

  bgg --algebra A3 --cross 1,3 --weight 0,0,0 diagram --emit dot,json

Commands: cohomology (columns only), diagram (columns and operator arrows),
verify (diagram pipeline, reporting the identity battery). Output is
deterministic: identical job specifications produce byte-identical reports.
Exit status is 0 exactly when every verified identity passes, 1 on a failed
identity, a budget refusal or a failed certificate (one `error:` line on
stderr, no traceback), and 2 on malformed or invalid input.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace

from .bggcore import BGGDiagram, SingularLaplacianBlock, build_bgg_diagram
from .certify import CertificationFailure
from .gradedla import AlgebraNotCertified, build_graded_algebra
from .hodge import ComplexNotCertified
from .jetcalc import MAX_JET_DIM, EqualizerNotCertified
from .linalg import qstr
from .repmod import (
    MAX_MODULE_DIM,
    DimensionOverBudget,
    ModuleNotCertified,
    NotCompletelyReducibleInput,
)
from .rootspace import (
    NotFiniteType,
    NotIrreducible,
    RootSystemNotCertified,
    build_root_system,
    parabolic,
)


class ParseError(Exception):
    """Malformed command line or config file."""


class ValidationError(Exception):
    """Well-formed input naming an impossible job."""


COMMANDS = ("cohomology", "diagram", "verify")
FORMATS = ("text", "dot", "json")
# failed certificates: exit 1 with one line naming the type
CERTIFICATE_ERRORS = (
    AlgebraNotCertified, CertificationFailure, ComplexNotCertified,
    EqualizerNotCertified, ModuleNotCertified, NotCompletelyReducibleInput,
    RootSystemNotCertified, SingularLaplacianBlock,
)


@dataclass(frozen=True)
class JobSpec:
    algebra: str
    sigma: tuple[int, ...]
    weight: tuple[int, ...]
    command: str
    emit: tuple[str, ...] = ("text",)
    max_module_dim: int = MAX_MODULE_DIM
    max_jet_dim: int = MAX_JET_DIM
    out: str | None = None


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
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    return out


def parse_spec(argv: list[str]) -> JobSpec:
    flags: dict[str, str] = {}
    command = None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--"):
            name = tok[2:]
            if name not in {
                "algebra", "cross", "weight", "emit", "config",
                "max-module-dim", "max-jet-dim", "out",
            }:
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
    except ValueError as exc:
        raise ParseError(f"budgets must be integers: {exc}") from exc
    job = JobSpec(
        algebra=merged["algebra"], sigma=sigma, weight=weight, command=command,
        emit=emit, max_module_dim=mmd, max_jet_dim=mjd,
        out=merged.get("out"),
    )
    validate(job)
    return job


def _root_system(text: str):
    """Accept a series label or an explicit Cartan matrix in JSON form."""
    spec = text
    if text.lstrip().startswith("["):
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad Cartan matrix {text!r}: {exc}") from exc
    rs = build_root_system(spec)
    if not rs.label:
        rs = replace(rs, label=json.dumps(spec, separators=(",", ":")))
    return rs


def validate(job: JobSpec) -> None:
    try:
        rs = _root_system(job.algebra)
    except (NotFiniteType, NotIrreducible, ValueError, TypeError) as exc:
        raise ValidationError(f"bad algebra {job.algebra!r}: {exc}") from exc
    if not job.sigma:
        raise ValidationError("empty crossed-node set")
    for s in job.sigma:
        if not 1 <= s <= rs.rank:
            raise ValidationError(f"crossed node {s} out of range 1..{rs.rank}")
    if len(set(job.sigma)) != len(job.sigma):
        raise ValidationError("repeated crossed node")
    if len(job.weight) != rs.rank:
        raise ValidationError(
            f"weight needs {rs.rank} entries, got {len(job.weight)}"
        )
    for node, w in enumerate(job.weight, 1):
        if w < 0:
            raise ValidationError(
                f"weight must be dominant: node {node} is negative"
            )
    if job.command not in COMMANDS:
        raise ValidationError(f"unknown command {job.command!r}")
    for f in job.emit:
        if f not in FORMATS:
            raise ValidationError(f"unknown emit format {f!r}")
    for flag, budget in (("--max-module-dim", job.max_module_dim),
                         ("--max-jet-dim", job.max_jet_dim)):
        if budget < 1:
            raise ValidationError(f"{flag} must be at least 1, got {budget}")


def format_spec(job: JobSpec) -> list[str]:
    """Canonical argv that parses back to the same JobSpec."""
    argv = [
        "--algebra", job.algebra,
        "--cross", ",".join(str(s) for s in job.sigma),
        "--weight", ",".join(str(w) for w in job.weight),
        "--emit", ",".join(job.emit),
        "--max-module-dim", str(job.max_module_dim),
        "--max-jet-dim", str(job.max_jet_dim),
    ]
    if job.out is not None:
        argv += ["--out", job.out]
    argv.append(job.command)
    return argv


@dataclass
class Report:
    job: JobSpec
    diagram: BGGDiagram
    rendered: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.diagram.verify.values())


def run(job: JobSpec) -> Report:
    rs = _root_system(job.algebra)
    g = build_graded_algebra(parabolic(rs, set(job.sigma)))
    diagram = build_bgg_diagram(
        g, job.weight,
        max_module_dim=job.max_module_dim,
        max_jet_dim=job.max_jet_dim,
        with_arrows=job.command in ("diagram", "verify"),
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
            for a in sorted(diagram.arrows, key=lambda a: (a.level, a.source, a.target)):
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
    for a in sorted(diagram.arrows, key=lambda a: (a.level, a.source, a.target)):
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
            for a in sorted(diagram.arrows, key=lambda a: (a.level, a.source, a.target))
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
        for fmt in job.emit:
            sys.stdout.write(report.rendered[fmt])
        return
    if len(job.emit) == 1:
        paths = {job.emit[0]: job.out}
    else:
        paths = {fmt: f"{job.out}.{ext[fmt]}" for fmt in job.emit}
    for fmt, path in paths.items():
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.rendered[fmt])


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        job = parse_spec(list(argv))
        report = run(job)
    except (ParseError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DimensionOverBudget as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except CERTIFICATE_ERRORS as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    _write_outputs(report)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
