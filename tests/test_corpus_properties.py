"""Every exit-0 report of the contract corpus has the diagram's properties.

`test_contract_corpus` compares hashes only, and a re-recorded hash checks
nothing about the new output. This reads the stdout the corpus run already
produced (``contract_corpus.outputs``, one run per job and process): with
``--emit json,text,dot`` the JSON report comes first. On every job that
exits 0:

* every arrow joins w and s_beta w (`bruhat_graph.check_arrows`);
* on a Borel job, every edge out of a built source carries an arrow;
* every ``verify`` value is ``pass``, ``oracle_agreement`` included.

The self-test moves one arrow of one parsed report off its edge.
"""

import json

import pytest

import contract_corpus
from bruhat_graph import check_arrows, edge_targets, is_borel, report_parts


def reports() -> dict[str, dict]:
    """The parsed JSON report of each corpus job that exits 0."""
    return {job: json.JSONDecoder().raw_decode(out)[0]
            for job, (code, out, _) in contract_corpus.outputs().items() if code == 0}


def check_report(report: dict) -> None:
    rs, columns, arrows, partial = report_parts(report)
    check_arrows(rs, is_borel(report), columns, arrows, partial)
    assert set(report["verify"].values()) == {"pass"}, report["verify"]


def test_every_report_has_the_properties():
    parsed = reports()
    assert any(is_borel(r) and r["arrows"] for r in parsed.values())
    failed = []
    for job, report in parsed.items():
        try:
            check_report(report)
        except AssertionError as exc:
            failed.append(f"{job}: {exc!r}")
    assert failed == []


def test_an_arrow_moved_off_its_edge_is_seen():
    """The first arrow of the corpus that can be moved to a label of the
    next column with no Bruhat edge from its source is moved there."""
    for job, report in reports().items():
        rs, columns, _, _ = report_parts(report)
        for arrow in report["arrows"]:
            (n, s), (_, t) = arrow["from"], arrow["to"]
            edges = edge_targets(rs, columns[n][s])
            off = [u for u, nu in enumerate(columns[n + 1]) if tuple(nu) not in edges]
            if off:
                check_report(report)
                arrow["to"] = [n + 1, off[0]]
                with pytest.raises(AssertionError):
                    check_report(report)
                return
    pytest.fail("no corpus arrow can be moved off its edge")
