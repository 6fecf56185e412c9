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
    ("A1", "1", "2", "diagram", "json,text,dot"),     # top = 1: every level is at an end
    ("A2", "1", "1,1", "cohomology", "json,text"),
    ("A2", "1,2", "1,1", "diagram", "json,text,dot"),   # arrows in text and dot
    ("G2", "1", "1,1", "cohomology", "json,text"),
    ("A4", "2", "1,0,0,1", "cohomology", "json,text"),
    ("B3", "1", "0,0,1", "verify", "json,text"),        # two root lengths: d_a differ
    ("B2", "1,2", "1,0", "verify", "json,text"),        # the same, one partial source
    ("D4", "1,2,3,4", "0,0,0,0", "cohomology", "json,text"),  # 12 levels, chain dims up to 924
    ("A4", "1,2,3,4", "1,0,0,0", "cohomology", "json,text"),  # chain dims up to 1260
    ("C3", "2", "1,0,1", "verify", "json,text"),        # 3 arrows of order 1-2, 8 of 11 partial
    ("G2", "2", "2,1", "verify", "json,text"),          # 2 arrows of order 2-3, 3 of 5 partial
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
