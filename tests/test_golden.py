"""Pinned `--emit` reports, compared byte for byte.

The files under golden/ were written by an earlier version of the package;
any change to the pipeline must reproduce them exactly.
"""

import os

import pytest

from artifact.bggcli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = [
    ("G2", "1", "1,0"),        # two sources refused by the jet budget
    ("A3", "1,3", "1,0,0"),
    ("A3", "1,2", "0,0,0"),
]

OTHER_COMMANDS = [
    ("A2", "1", "1,1", "cohomology", "json,text"),
    ("A2", "1,2", "1,1", "diagram", "json,text,dot"),   # arrows in text and dot
]

EXTENSION = {"json": "json", "text": "txt", "dot": "dot"}


def expect_golden(tmp_path, algebra, cross, weight, command, emit):
    name = f"{algebra}_{cross.replace(',', '-')}_{weight.replace(',', '-')}_{command}"
    out = tmp_path / name
    argv = ["--algebra", algebra, "--cross", cross, "--weight", weight,
            command, "--emit", emit, "--out", str(out)]
    assert main(argv) == 0
    for fmt in emit.split(","):
        ext = EXTENSION[fmt]
        with open(os.path.join(GOLDEN, f"{name}.{ext}"), "rb") as fh:
            want = fh.read()
        assert (tmp_path / f"{name}.{ext}").read_bytes() == want, ext


@pytest.mark.parametrize("algebra,cross,weight", CASES)
def test_verify_report_matches_golden(tmp_path, algebra, cross, weight):
    expect_golden(tmp_path, algebra, cross, weight, "verify", "json,text")


@pytest.mark.parametrize("algebra,cross,weight,command,emit", OTHER_COMMANDS)
def test_report_matches_golden(tmp_path, algebra, cross, weight, command, emit):
    expect_golden(tmp_path, algebra, cross, weight, command, emit)
