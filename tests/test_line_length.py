"""No line of the package or of its tests is longer than 100 columns.

The scan covers `src/artifact/*.py` and `tests/*.py`, and counts the
characters of each line without its line break.
"""

import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMIT = 100


def long_lines(paths) -> list[str]:
    """``name:line (columns)`` of each line of ``paths`` over ``LIMIT``."""
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for k, line in enumerate(fh, 1):
                width = len(line.rstrip("\r\n"))
                if width > LIMIT:
                    found.append(f"{os.path.relpath(path, ROOT)}:{k} ({width})")
    return found


def test_no_line_over_the_limit():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "artifact", "*.py"))
                   + glob.glob(os.path.join(ROOT, "tests", "*.py")))
    assert len(paths) > 40
    assert long_lines(paths) == []


def test_scan_counts_columns(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("x = 1\n" + "#" * LIMIT + "\n" + "y" * (LIMIT + 1) + "\r\n"
                    + "∩" * (LIMIT + 1), encoding="utf-8")
    assert [s.split(":")[1] for s in long_lines([str(path)])] == ["3 (101)", "4 (101)"]
