"""Importing the CLI loads neither `dataclasses` nor `inspect`.

Every `bgg` call is a fresh process, so each call pays for the package import.
Each `@dataclass` decorator `exec`s generated methods at import, and
`dataclasses` itself loads `inspect`, which loads `ast`, `dis` and
`tokenize`. The record classes are plain classes with explicit `__init__`s
instead. A fresh interpreter imports `artifact.bggcli` and reports which of
the named modules it has loaded.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def loaded_by_import(module: str, names: tuple[str, ...]) -> list[str]:
    """The modules among ``names`` that a fresh interpreter has loaded
    after ``import <module>``."""
    code = f"import sys, {module}\nprint(*[m for m in {names!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_loads_no_dataclasses_or_inspect():
    found = loaded_by_import("artifact.bggcli", ("dataclasses", "inspect"))
    assert found == [], f"import artifact.bggcli loads {found}"


def test_probe_sees_what_the_import_loads():
    # bggcli imports json itself, so the probe must report it
    assert loaded_by_import("artifact.bggcli", ("json",)) == ["json"]
