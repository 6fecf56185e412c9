"""Command-line interface: parsing, emitters, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import time
from math import comb

import pytest

from artifact import bggcli, bggcore, repmod
from artifact.bggcli import (
    JobSpec,
    ParseError,
    ValidationError,
    emit_json,
    main,
    parse_spec,
    run,
)
from artifact.bggcore import CertificationFailure, SingularLaplacianBlock
from artifact.gradedla import AlgebraNotCertified
from artifact.hodge import ComplexNotCertified
from artifact.jetcalc import EqualizerNotCertified
from artifact.linalg import SpMat
from artifact.repmod import MAX_CHAIN_DIM, ModuleNotCertified, NotCompletelyReducibleInput
from artifact.rootspace import RootSystemNotCertified, dominant_representative_for, weyl_dimension
from conftest import diagram_for, graded, replaced

BASE = ["--algebra", "A2", "--cross", "1", "--weight", "1,0"]


def format_spec(job: JobSpec) -> list[str]:
    """Canonical argv that parses back to the same JobSpec."""
    argv = [
        "--algebra", job.algebra,
        "--cross", ",".join(str(s) for s in job.sigma),
        "--weight", ",".join(str(w) for w in job.weight),
        "--emit", ",".join(job.emit),
        "--max-module-dim", str(job.max_module_dim),
        "--max-jet-dim", str(job.max_jet_dim),
        "--max-chain-dim", str(job.max_chain_dim),
    ]
    if job.out is not None:
        argv += ["--out", job.out]
    argv.append(job.command)
    return argv


def test_parse_roundtrip():
    jobs = [
        parse_spec(BASE + ["diagram"]),
        parse_spec(BASE + ["cohomology", "--emit", "json"]),
        parse_spec(
            ["--algebra", "A3", "--cross", "1,3", "--weight", "0,0,0",
             "verify", "--emit", "text,dot,json", "--max-module-dim", "100",
             "--max-jet-dim", "5000", "--out", "report"]
        ),
        parse_spec(BASE + ["cohomology", "--max-chain-dim", "30"]),
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


@pytest.mark.parametrize("label", ["A02", "A002", "a2", "A 2", " A2 ", "a 02"])
def test_series_label_has_one_spelling(capsys, label):
    """A series label is reported as its letter and rank, so every spelling
    of one algebra gives the report of ``A2``, byte for byte."""
    tail = ["--cross", "1", "--weight", "1,0", "verify", "--emit", "json,text,dot"]
    assert main(["--algebra", "A2", *tail]) == 0
    want = capsys.readouterr()
    assert main(["--algebra", label, *tail]) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("cartan,weight", [
    ("[[2.7]]", "1"), ("[[2,-1.9],[-1,2]]", "1,0"), ('[["2",-1],[-1,2]]', "1,0"),
])
def test_non_integer_cartan_entries_exit_2(cartan, weight, capsys):
    """Entries are not cast to int: cast, these would run as A1 and A2."""
    assert main(["--algebra", cartan, "--cross", "1", "--weight", weight, "cohomology"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: bad algebra {cartan!r}: Cartan matrix entries must be integers\n"


@pytest.mark.parametrize("algebra,cross,weight,extra,err", [
    ("A120", "1", "0", [], "weight needs 120 entries, got 1"),
    ("a 120", "121", "0", [], "crossed node 121 out of range 1..120"),
    ("[[2,-1],[-1,2]]", "1", "0,0,0", [], "weight needs 2 entries, got 3"),
    ("A60", "1", "0," * 59 + "-1", [], "weight must be dominant: node 60 is negative"),
    ("A60", "1", "0," * 59 + "0", ["--emit", "text,text"], "repeated emit format 'text'"),
    ("A60", "1", "0," * 59 + "0", ["--max-jet-dim", "0"],
     "--max-jet-dim must be at least 1, got 0"),
    ("A60", "1", "0," * 59 + "0", ["--max-module-dim", "0"],
     "--max-module-dim must be at least 1, got 0"),
], ids=["label", "spaced-label", "matrix", "negative-weight", "repeated-emit",
        "jet-budget", "module-budget"])
def test_rank_checks_build_no_root_system(monkeypatch, capsys, algebra, cross, weight,
                                          extra, err):
    """The crossed nodes and the weight length are checked against the rank
    read off the spec, and the weight signs, the --emit formats and the
    budgets against the parsed job, before the root system, whose build
    grows with the rank, is started."""
    def refuse(spec):
        raise AssertionError(f"root system of {spec!r} built before the job checks")

    monkeypatch.setattr(bggcli, "build_root_system", refuse)
    argv = ["--algebra", algebra, "--cross", cross, "--weight", weight, "cohomology"]
    assert main(argv + extra) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {err}\n")


def test_one_run_builds_the_root_system_once(monkeypatch, capsys):
    """``validate`` builds the root system to check the algebra, and ``run``
    reads it off the job instead of building it again."""
    calls = []
    build = bggcli.build_root_system

    def counted(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(bggcli, "build_root_system", counted)
    assert main(BASE + ["cohomology"]) == 0
    capsys.readouterr()
    assert calls == ["A2"]


@pytest.mark.parametrize("cartan,weight", [
    ("[[2,-2],[-2,2]]", "0,0"), ("[[2,-1,-1],[-1,2,-1],[-1,-1,2]]", "0,0,0"),
    ("[[2,-3],[-3,2]]", "0,0"), ("[[2,-1],[-4,2]]", "0,0"),
])
def test_not_positive_definite_exits_2(cartan, weight, capsys):
    assert main(["--algebra", cartan, "--cross", "1", "--weight", weight, "cohomology"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "", f"error: bad algebra {cartan!r}: symmetrized Cartan matrix is not positive definite\n")


def test_action_leaving_its_span_exits_1_without_traceback(monkeypatch, capsys):
    """A generated submodule cut to its first layer is not p-invariant: the
    action solve refuses it as ModuleNotCertified, one line, exit 1."""
    closure = bggcore.layered_closure
    monkeypatch.setattr(bggcore, "layered_closure", lambda *args: [next(closure(*args))])
    assert main(["--algebra", "A2", "--cross", "1", "--weight", "1,1", "diagram"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ModuleNotCertified: ")
    assert out.err.count("\n") == 1


def test_failed_membership_solve_exits_1_without_traceback(monkeypatch, capsys):
    """An E basis with its last column zeroed no longer holds dstar of the
    E-wedges L_i solves for: the solve against the E basis refuses it as
    CertificationFailure naming the map and the level, one line, exit 1."""
    generate = bggcore.generate_submodule

    def cut(*args):
        gs = generate(*args)
        if gs.r < 1:
            return gs
        b = gs.basis
        kept = b.select_columns(list(range(b.ncols - 1)))
        return replaced(gs, basis=SpMat.hstack([kept, SpMat(b.nrows, 1)]))

    monkeypatch.setattr(bggcore, "generate_submodule", cut)
    assert main(["--algebra", "A3", "--cross", "1,3", "--weight", "1,0,0", "verify"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert re.fullmatch(r"error: CertificationFailure: correction of L_\d+ leaves E in C\^\d+\n",
                        out.err), out.err


@pytest.mark.parametrize("algebra,cross,weight", [
    ("A2", "1,2", "1,1"), ("A3", "1,2,3", "0,0,0"),
], ids=["A2", "A3"])
def test_dependent_isotypic_pieces_exit_1(monkeypatch, capsys, algebra, cross, weight):
    """Every closure of one module made the closure of its first seed: each
    piece keeps its size and the pieces still count up to the dimension,
    but they are not independent of each other, so the one rank of all
    embeddings side by side refuses the module, one line, exit 1."""
    decompose, closure = repmod.decompose_completely_reducible, repmod.layered_closure

    def first_seed_only(m):
        first = []

        def same(seeds, ops):
            first.append(seeds)
            return closure(first[0], ops)

        with monkeypatch.context() as patch:
            patch.setattr(repmod, "layered_closure", same)
            return decompose(m)

    monkeypatch.setattr(bggcore, "decompose_completely_reducible", first_seed_only)
    assert main(["--algebra", algebra, "--cross", cross, "--weight", weight,
                 "cohomology"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: NotCompletelyReducibleInput: isotypic closures of ")
    assert out.err.count("\n") == 1


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


def test_chain_budget_refuses_before_the_complex(capsys):
    """The largest cochain space of E7 {1}, C(33, 16) = 1166803110 with the
    trivial V, is refused by the default chain budget, one line and exit 1,
    before any wedge tuple is listed."""
    start = time.perf_counter()
    assert main(["--algebra", "E7", "--cross", "1", "--weight", "0,0,0,0,0,0,0",
                 "cohomology"]) == 1
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: dim C^16 = 1166803110 exceeds budget {MAX_CHAIN_DIM}\n"


def test_chain_budget_flag(tmp_path, capsys):
    """G2 {1} (1,1): dim C^2 = 10 * 64 = 640, the largest level."""
    argv = ["--algebra", "G2", "--cross", "1", "--weight", "1,1", "cohomology"]
    assert main(argv + ["--max-chain-dim", "639"]) == 1
    assert capsys.readouterr().err == "error: dim C^2 = 640 exceeds budget 639\n"
    cfg = tmp_path / "job.cfg"
    cfg.write_text("max-chain-dim = 639\n")
    assert main(argv + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: dim C^2 = 640 exceeds budget 639\n"
    assert main(argv + ["--max-chain-dim", "0"]) == 2
    assert capsys.readouterr().err == "error: --max-chain-dim must be at least 1, got 0\n"
    assert main(argv + ["--max-chain-dim", "640", "--emit", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verify"]["adjointness"] == "pass"


@pytest.mark.parametrize("algebra,cross,weight,widest", [
    ("D4", (1, 2, 3, 4), (0, 0, 0, 0), 924),
    ("A4", (1, 2, 3, 4), (1, 0, 0, 0), 1260),
    ("C3", (2,), (1, 0, 1), 2450),
    ("A5", (1, 2, 3, 4, 5), (0, 0, 0, 0, 0), 6435),
    ("B4", (1, 2, 3, 4), (0, 0, 0, 0), 12870),
])
def test_default_chain_budget_admits(algebra, cross, weight, widest):
    """The largest golden cases, and the all-crossed A5 and B4, whose largest
    levels the default admits; they are checked here on the budget alone."""
    g = graded(algebra, cross)
    d = len(g.pplus_roots)
    lam_mod = dominant_representative_for(g.rs, range(1, g.rs.rank + 1),
                                          tuple(-x for x in weight))
    assert comb(d, d // 2) * weyl_dimension(g.rs, lam_mod) == widest <= MAX_CHAIN_DIM


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


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("algebra=A2\nemitt=json\nmax-jet-dimm=5\n")
    with pytest.raises(ParseError, match=re.escape(f"{cfg}:2: unknown key 'emitt'")):
        parse_spec(["--config", str(cfg), "--cross", "1", "--weight", "1,0", "diagram"])
    nested = tmp_path / "nested.cfg"
    nested.write_text(f"config={cfg}\n")
    with pytest.raises(ParseError, match="unknown key 'config'"):
        parse_spec(["--config", str(nested), "diagram"])
    assert main(["--config", str(cfg), "--cross", "1", "--weight", "1,0", "diagram"]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: unknown key 'emitt'\n"


def test_config_file_refuses_a_key_given_twice(tmp_path, capsys):
    """As a flag given twice is: the second value is not taken silently."""
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("algebra=A2\ncross=1\nweight=1,0\n# again\nweight=0,1\n")
    with pytest.raises(ParseError, match=re.escape(f"{cfg}:5: duplicate key 'weight'")):
        parse_spec(["--config", str(cfg), "cohomology"])
    assert main(["--config", str(cfg), "cohomology"]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:5: duplicate key 'weight'\n"


@pytest.mark.parametrize("emit,written", [("json", ""), ("json,text", ".json")])
def test_unwritable_out_exits_2_without_traceback(tmp_path, capsys, emit, written):
    out = tmp_path / "absent" / "x"
    argv = ["--algebra", "A1", "--cross", "1", "--weight", "0", "cohomology",
            "--emit", emit, "--out", str(out)]
    assert main(argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"error: cannot write {out}{written}: No such file or directory\n"


@pytest.mark.parametrize("emit", ["text,text", "json,text,json"])
@pytest.mark.parametrize("to_file", [False, True])
def test_repeated_emit_format_exits_2_with_one_line(tmp_path, capsys, emit, to_file):
    """A format named twice would print its report twice on stdout but
    write one file with --out; it is refused as the crossed nodes are."""
    out = tmp_path / "rep"
    argv = BASE + ["diagram", "--emit", emit] + (["--out", str(out)] if to_file else [])
    assert main(argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"error: repeated emit format {emit.split(',')[0]!r}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("case", ["non_utf8_config", "deeply_nested_algebra"])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, case):
    """A config file that is not UTF-8, and an --algebra nested past the
    JSON parser's recursion limit, are malformed input, not crashes."""
    argv = ["--cross", "1", "--weight", "1", "cohomology"]
    if case == "non_utf8_config":
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff")
        argv += ["--config", str(cfg), "--algebra", "A1"]
        want = f"error: config {cfg} is not UTF-8: invalid start byte at byte 0\n"
    else:
        argv += ["--algebra", "[" * 60000]
        want = "error: bad Cartan matrix: nested too deeply\n"
    assert main(argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == want


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


@pytest.mark.parametrize("buffered", [True, False])
def test_a_closed_stdout_pipe_exits_2_with_one_line(buffered):
    """The reader of stdout has exited before the run: the report cannot be
    written, which is one `error:` line and exit 2, as for an --out path,
    with no traceback and no complaint from the flush at exit. Buffered and
    unbuffered stdout fail at different calls."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, **({} if buffered else {"PYTHONUNBUFFERED": "1"}))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "artifact.bggcli", *BASE, "cohomology", "--emit", "json"],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write stdout: Broken pipe\n")


def test_a_closed_stdout_exits_2_with_one_line():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m artifact.bggcli "$@" >&-', sys.executable,
         *BASE, "cohomology", "--emit", "json"],
        stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src), text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write stdout: stdout is closed\n")


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


@pytest.mark.parametrize("stage", ["build_cochain_complex", "compose_splitter"])
def test_memory_exhaustion_exits_1_with_one_line(monkeypatch, capsys, stage):
    """A stage that runs out of memory ends the run with exit 1 and one
    `error:` line. The stage raises MemoryError itself: nothing here
    allocates to exhaustion."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(bggcore, stage, exhausted)
    assert main(BASE + ["verify"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory\n"
