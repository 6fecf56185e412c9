"""The contract corpus: every small job's report, pinned by its hashes.

The behaviour contract is byte-identical output and the same exit codes.
`golden/corpus.json` maps each job, its argv joined by spaces, to the exit
code and the sha256 of the stdout and the stderr that ``bggcli.main`` gives
it in-process. The jobs:

* ``diagram --emit json,text,dot`` on A1, A2, A3, B2, C2 and G2 with every
  crossed-node set and every weight in {0,1}^rank, except the two that take
  over 0.3 s in-process (``SLOW``);
* the 37 ``diagram`` jobs of B3 and C3, weights in {0,1}^3, that run in
  under 0.3 s in-process (``RANK3``);
* refusals by the module budget (``B3 {1,2,3} (1,1,1)``) and by the chain
  budget (``E7 {1}``, ``A17 {1}``);
* inputs refused with exit 2: a malformed weight, an unknown flag and a
  crossed node out of range;
* a few ``cohomology`` and ``verify`` commands, among them both cases of the
  benchmark's ``cohomology`` workload.

Every job runs once per test process (``outputs``): the hashes are compared
with the record, and `test_corpus_properties` checks the report each
exit-0 job prints. ``python tests/contract_corpus.py`` runs every job and
rewrites the file. A change that alters output re-records it in the same
commit and names every job whose hashes moved.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import sys

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "corpus.json")
EMIT = ["--emit", "json,text,dot"]
SERIES = {"A1": 1, "A2": 2, "A3": 3, "B2": 2, "C2": 2, "G2": 2}
# over 0.3 s in-process (0.54 and 0.62 s; Python 3.11, Fraction backend)
SLOW = {("A3", "1,2,3", "1,1,1"), ("G2", "1,2", "1,1")}
# the rank-3 diagram jobs under 0.3 s in-process, weights by crossed-node set
# (Python 3.11, Fraction backend; 6.4 s together)
RANK3 = {
    ("B3", "1"): ["0,0,0", "0,0,1", "0,1,0", "1,0,0"],
    ("B3", "2"): ["0,0,0", "0,0,1"],
    ("B3", "3"): ["0,0,0", "0,0,1", "0,1,0", "1,0,0"],
    ("B3", "1,2"): ["0,0,0", "0,0,1", "1,0,0"],
    ("B3", "1,3"): ["0,0,0", "0,0,1", "1,0,0"],
    ("B3", "2,3"): ["0,0,0", "1,0,0"],
    ("B3", "1,2,3"): ["0,0,0"],
    ("C3", "1"): ["0,0,0", "0,0,1", "0,1,0", "1,0,0", "1,0,1", "1,1,0"],
    ("C3", "2"): ["0,0,0", "0,0,1", "1,0,0"],
    ("C3", "3"): ["0,0,0", "0,0,1", "0,1,0", "1,0,0"],
    ("C3", "1,2"): ["0,0,0"],
    ("C3", "1,3"): ["0,0,0"],
    ("C3", "2,3"): ["0,0,0", "1,0,0"],
    ("C3", "1,2,3"): ["0,0,0"],
}


def _argv(algebra: str, cross: str, weight: str, command: str) -> list[str]:
    return ["--algebra", algebra, "--cross", cross, "--weight", weight, command, *EMIT]


def jobs() -> list[list[str]]:
    """The argv of every corpus job, in a fixed order."""
    out = []
    for algebra, rank in SERIES.items():
        nodes = range(1, rank + 1)
        for k in nodes:
            for sigma in itertools.combinations(nodes, k):
                for weight in itertools.product((0, 1), repeat=rank):
                    job = (algebra, ",".join(map(str, sigma)), ",".join(map(str, weight)))
                    if job not in SLOW:
                        out.append(_argv(*job, "diagram"))
    out += [_argv(algebra, cross, weight, "diagram")
            for (algebra, cross), weights in RANK3.items() for weight in weights]
    out += [
        _argv("B3", "1,2,3", "1,1,1", "cohomology"),    # module budget
        _argv("E7", "1", ",".join("0" * 7), "cohomology"),    # chain budget
        _argv("A17", "1", ",".join("0" * 17), "cohomology"),  # chain budget
        _argv("A2", "1", "1,x", "diagram"),             # malformed weight
        _argv("A2", "1", "1,1", "diagram") + ["--depth", "2"],  # unknown flag
        _argv("A2", "3", "1,1", "diagram"),             # crossed node out of range
        _argv("A2", "1", "1,1", "cohomology"),
        _argv("G2", "1", "1,1", "cohomology"),
        _argv("A4", "2", "1,0,0,1", "cohomology"),
        _argv("A3", "1,2", "0,0,0", "verify"),
        _argv("A3", "1,3", "1,0,0", "verify"),
        _argv("B2", "1,2", "1,0", "verify"),
        _argv("G2", "1", "1,0", "verify"),
    ]
    return out


def execute(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``bggcli.main`` on argv, run
    in-process."""
    from artifact.bggcli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def hashed(code: int, out: str, err: str) -> dict:
    """An ``execute`` result as the record keeps it: the exit code and the
    sha256 of the stdout and of the stderr."""
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": hashlib.sha256(err.encode()).hexdigest(),
    }


@functools.cache
def outputs() -> dict[str, tuple[int, str, str]]:
    """``execute`` of every job of the record, each run once per process:
    the hash check and the property check both read these."""
    return {job: execute(job.split(" ")) for job in load()}


def moved(corpus: dict[str, dict], runs: dict[str, tuple[int, str, str]]) -> list[str]:
    """Each job of ``corpus`` whose run in ``runs`` (job to ``execute``
    result) differs from its record, with the fields that moved."""
    out = []
    for job, want in corpus.items():
        got = hashed(*runs[job])
        fields = [k for k in ("exit", "stdout", "stderr") if got[k] != want[k]]
        if fields:
            out.append(f"{job}: {', '.join(fields)} moved")
    return out


def load() -> dict[str, dict]:
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def record() -> None:
    corpus = {" ".join(argv): hashed(*execute(argv)) for argv in jobs()}
    with open(CORPUS, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")
    print(f"{len(corpus)} jobs written to {CORPUS}")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    record()
