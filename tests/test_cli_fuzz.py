"""The front end over random jobs under tight budgets.

Every job starts in `gradedla`, so this runs ``bggcli.main`` in-process on
series up to rank 4, a random nonempty crossed-node set, weights 0-2 and
the ``cohomology`` or ``verify`` command, with budgets small enough that
many jobs are refused. Each job must exit 0, or exit 1 with exactly one
``error: ... exceeds budget ...`` line on stderr: an exit 1 with no line is
a failed identity, and an uncaught exception fails the test. On exit 0,
every arrow must lie on a Bruhat edge.
"""

import contextlib
import io
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.bggcli import main
from artifact.rootspace import build_root_system
from test_bruhat_edges import edge_targets

SERIES = ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2"]
BUDGET_LINE = re.compile(r"error: .* exceeds budget \d+\n")


@st.composite
def jobs(draw):
    label = draw(st.sampled_from(SERIES))
    rank = int(label[1:])
    sigma = draw(st.sets(st.integers(1, rank), min_size=1))
    weight = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank))
    return [
        "--algebra", label,
        "--cross", ",".join(map(str, sorted(sigma))),
        "--weight", ",".join(map(str, weight)),
        draw(st.sampled_from(["cohomology", "verify"])),
        "--emit", "json",
        "--max-chain-dim", str(draw(st.sampled_from([30, 300, 1500]))),
        "--max-module-dim", str(draw(st.sampled_from([10, 100, 500]))),
        "--max-jet-dim", str(draw(st.sampled_from([50, 2000]))),
    ]


@settings(max_examples=200)
@given(jobs())
def test_every_job_is_done_or_refused_by_a_budget(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 1:
        assert BUDGET_LINE.fullmatch(err.getvalue()), (argv, err.getvalue())
        assert out.getvalue() == ""
        return
    assert (code, err.getvalue()) == (0, ""), argv
    report = json.loads(out.getvalue())
    rs = build_root_system(report["algebra"])
    cols = [[c["label"] for c in col["components"]] for col in report["columns"]]
    for a in report["arrows"]:
        (n, s), (_, t) = a["from"], a["to"]
        assert tuple(cols[n + 1][t]) in edge_targets(rs, cols[n][s]), (argv, a)
