"""Command-line interface: parsing, emitters, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys

import pytest

from artifact import bggcore
from artifact.bggcli import (
    JobSpec,
    ParseError,
    ValidationError,
    emit_json,
    format_spec,
    main,
    parse_spec,
    run,
)
from artifact.bggcore import CertificationFailure, SingularLaplacianBlock
from artifact.gradedla import AlgebraNotCertified
from artifact.hodge import ComplexNotCertified
from artifact.jetcalc import EqualizerNotCertified
from artifact.repmod import ModuleNotCertified, NotCompletelyReducibleInput
from artifact.rootspace import RootSystemNotCertified
from conftest import diagram_for

BASE = ["--algebra", "A2", "--cross", "1", "--weight", "1,0"]


def test_parse_roundtrip():
    jobs = [
        parse_spec(BASE + ["diagram"]),
        parse_spec(BASE + ["cohomology", "--emit", "json"]),
        parse_spec(
            ["--algebra", "A3", "--cross", "1,3", "--weight", "0,0,0",
             "verify", "--emit", "text,dot,json", "--max-module-dim", "100",
             "--max-jet-dim", "5000", "--out", "report"]
        ),
    ]
    for job in jobs:
        assert parse_spec(format_spec(job)) == job


def test_flags_allowed_after_command():
    a = parse_spec(BASE + ["diagram", "--emit", "dot"])
    b = parse_spec(["--emit", "dot"] + BASE + ["diagram"])
    assert a == b


@pytest.mark.parametrize(
    "argv,exc",
    [
        (["--bogus", "1", "diagram"], ParseError),
        (["--algebra"], ParseError),
        (BASE + ["diagram", "cohomology"], ParseError),
        (BASE + BASE[:2] + ["diagram"], ParseError),
        (["nonsense"], ParseError),
        (BASE, ValidationError),
        (["--cross", "1", "--weight", "1,0", "diagram"], ValidationError),
        (["--algebra", "Q7", "--cross", "1", "--weight", "1,0", "diagram"], ValidationError),
        (["--algebra", "A2", "--cross", "0", "--weight", "1,0", "diagram"], ValidationError),
        (["--algebra", "A2", "--cross", "3", "--weight", "1,0", "diagram"], ValidationError),
        (["--algebra", "A2", "--cross", "1,1", "--weight", "1,0", "diagram"], ValidationError),
        (["--algebra", "A2", "--cross", "1", "--weight", "1", "diagram"], ValidationError),
        (["--algebra", "A2", "--cross", "1", "--weight", "-1,0", "diagram"], ValidationError),
        (BASE + ["diagram", "--emit", "pdf"], ValidationError),
        (BASE + ["diagram", "--max-jet-dim", "-1"], ValidationError),
        (BASE + ["diagram", "--max-jet-dim", "0"], ValidationError),
        (BASE + ["diagram", "--max-module-dim", "0"], ValidationError),
    ],
)
def test_rejects_bad_input(argv, exc):
    with pytest.raises(exc):
        parse_spec(argv)


def test_error_messages_name_the_position():
    with pytest.raises(ParseError, match="position 2"):
        parse_spec(["--algebra", "A2", "--frob", "x", "diagram"])


def test_run_outputs_deterministic():
    job = parse_spec(BASE + ["diagram", "--emit", "text,dot,json"])
    r1 = run(job)
    r2 = run(job)
    assert r1.rendered == r2.rendered
    for fmt in ("text", "dot", "json"):
        assert r1.rendered[fmt].endswith("\n")
        assert "\r" not in r1.rendered[fmt]


def test_json_schema():
    doc = json.loads(emit_json(diagram_for("A2", (1, 2), (1, 1))))
    assert set(doc) == {
        "algebra", "sigma", "weight", "columns", "arrows", "partial", "verify"
    }
    assert doc["algebra"] == "A2"
    assert doc["sigma"] == [1, 2]
    assert doc["weight"] == [1, 1]
    for col in doc["columns"]:
        assert set(col) == {"level", "components"}
        for comp in col["components"]:
            assert set(comp) == {"label", "e_eigenvalue", "dim"}
            assert len(comp["label"]) == 2
            assert re.fullmatch(r"-?\d+(/\d+)?", comp["e_eigenvalue"])
            assert comp["dim"] >= 1
    levels = [c["level"] for c in doc["columns"]]
    assert levels == list(range(len(levels)))
    for arrow in doc["arrows"]:
        assert set(arrow) == {"from", "to", "order"}
        lf, sf = arrow["from"]
        lt, st = arrow["to"]
        assert lt == lf + 1
        assert 0 <= sf < len(doc["columns"][lf]["components"])
        assert 0 <= st < len(doc["columns"][lt]["components"])
        assert arrow["order"] >= 1
    assert doc["partial"] == []
    assert set(doc["verify"].values()) == {"pass"}


def test_dot_output_shape():
    job = parse_spec(BASE + ["diagram", "--emit", "dot"])
    dot = run(job).rendered["dot"]
    assert dot.startswith("digraph bgg {")
    assert dot.rstrip().endswith("}")
    assert "n0_0" in dot and "->" in dot
    assert dot.count("{") == dot.count("}")


def test_text_verify_only_for_verify_command():
    job = parse_spec(BASE + ["verify"])
    text = run(job).rendered["text"]
    assert "verify:" in text
    assert "level" not in text
    job2 = parse_spec(BASE + ["diagram"])
    assert "level 0:" in run(job2).rendered["text"]


def test_cohomology_skips_splitter_identities():
    job = parse_spec(BASE + ["cohomology"])
    rep = run(job)
    keys = set(rep.diagram.verify)
    assert keys == {
        "d_squared_zero", "codifferential_squared_zero", "adjointness",
        "codifferential_leibniz", "differential_commutator", "oracle_agreement",
    }
    assert not rep.diagram.arrows


def test_explicit_cartan_matrix_algebra():
    job = parse_spec(
        ["--algebra", "[[2,-1],[-1,2]]", "--cross", "1", "--weight", "1,0", "diagram"]
    )
    assert parse_spec(format_spec(job)) == job
    by_matrix = run(job)
    by_label = run(parse_spec(BASE + ["diagram"]))
    fixed = by_matrix.rendered["text"].replace("[[2,-1],[-1,2]]", "A2")
    assert fixed == by_label.rendered["text"]
    with pytest.raises(ValidationError, match="diagonal"):
        parse_spec(["--algebra", "[[2,-1],[-1,3]]", "--cross", "1",
                    "--weight", "1,0", "diagram"])
    with pytest.raises(ValidationError, match="Cartan matrix"):
        parse_spec(["--algebra", "[[2,-1],[-1,2]", "--cross", "1",
                    "--weight", "1,0", "diagram"])


def test_main_exit_codes(capsys):
    assert main(BASE + ["diagram"]) == 0
    capsys.readouterr()
    assert main(["--algebra", "A2", "--cross", "9", "--weight", "1,0", "diagram"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # a budget below 1 is invalid input, not a run with every source partial
    assert main(["--algebra", "A1", "--cross", "1", "--weight", "1",
                 "diagram", "--max-jet-dim", "-1"]) == 2
    assert capsys.readouterr().err == "error: --max-jet-dim must be at least 1, got -1\n"
    # runtime budget failure reports and exits 1
    assert main(
        ["--algebra", "A2", "--cross", "1", "--weight", "5,5",
         "--max-module-dim", "20", "diagram"]
    ) == 1
    assert "error:" in capsys.readouterr().err


def test_out_paths(tmp_path, capsys):
    single = tmp_path / "d.json"
    assert main(BASE + ["diagram", "--emit", "json", "--out", str(single)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(single.read_text())
    assert doc["algebra"] == "A2"
    multi = tmp_path / "rep"
    assert main(BASE + ["diagram", "--emit", "text,json", "--out", str(multi)]) == 0
    assert (tmp_path / "rep.txt").exists()
    assert (tmp_path / "rep.json").read_text() == single.read_text()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("# sample\nalgebra=A2\ncross=1\nweight=9,9\nemit=text\n")
    job = parse_spec(["--config", str(cfg), "--weight", "1,0", "diagram"])
    assert job == JobSpec(
        algebra="A2", sigma=(1,), weight=(1, 0), command="diagram",
        emit=("text",),
    )
    with pytest.raises(ParseError):
        parse_spec(["--config", str(tmp_path / "absent.cfg"), "diagram"])
    bad = tmp_path / "bad.cfg"
    bad.write_text("algebra A2\n")
    with pytest.raises(ParseError, match="key=value"):
        parse_spec(["--config", str(bad), "diagram"])


def test_module_entry_point_runs_without_warnings():
    # `python -m artifact.bggcli` must not find bggcli imported by the package
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "artifact.bggcli",
         "--algebra", "A1", "--cross", "1", "--weight", "0", "cohomology"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("algebra A1")


def test_byte_identical_across_processes(tmp_path):
    # same job, two fresh invocations through main, identical bytes
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["--algebra", "B2", "--cross", "1", "--weight", "0,1", "diagram", "--emit", "json"]
    assert main(argv + ["--out", str(p1)]) == 0
    assert main(argv + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("exc", [
    CertificationFailure, SingularLaplacianBlock,
    NotCompletelyReducibleInput, EqualizerNotCertified, ComplexNotCertified,
    AlgebraNotCertified, ModuleNotCertified, RootSystemNotCertified,
])
def test_certificate_failures_exit_1_without_traceback(monkeypatch, capsys, exc):
    def refuse(*args, **kwargs):
        raise exc("refused for the test")

    monkeypatch.setattr(bggcore, "compose_splitter", refuse)
    assert main(BASE + ["verify"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {exc.__name__}: refused for the test\n"
