"""Pinned `--emit json,text` reports, compared byte for byte.

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


@pytest.mark.parametrize("algebra,cross,weight", CASES)
def test_verify_report_matches_golden(tmp_path, algebra, cross, weight):
    name = f"{algebra}_{cross.replace(',', '-')}_{weight.replace(',', '-')}_verify"
    out = tmp_path / name
    argv = ["--algebra", algebra, "--cross", cross, "--weight", weight,
            "verify", "--emit", "json,text", "--out", str(out)]
    assert main(argv) == 0
    for ext in ("json", "txt"):
        with open(os.path.join(GOLDEN, f"{name}.{ext}"), "rb") as fh:
            want = fh.read()
        assert (tmp_path / f"{name}.{ext}").read_bytes() == want, ext
