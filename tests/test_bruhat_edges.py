"""Every arrow of a BGG diagram lies on an edge of the Bruhat graph.

The check is `bruhat_graph`'s. On a Borel subalgebra every edge between
adjacent columns carries an arrow. For other parabolics a standard map can
vanish on an edge (Boe, Trans. AMS 288, 1985), so whether every edge
carries an arrow is pinned per case.

The diagrams checked are every `BATTERY` case and every golden report that
has arrows.
"""

import glob
import json
import os

import pytest

from artifact.rootspace import build_root_system
from bruhat_graph import check_arrows, is_borel, missed_edges, report_parts
from conftest import BATTERY, diagram_for

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden_report(name: str) -> dict:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return json.load(fh)


# corpus.json holds the contract corpus's hashes, not a report
GOLDEN_WITH_ARROWS = sorted(
    name for name in map(os.path.basename, glob.glob(os.path.join(GOLDEN, "*.json")))
    if name != "corpus.json" and golden_report(name)["arrows"]
)


def diagram_parts(case):
    """(root system, columns, arrows, partial) of a `BATTERY` case (a
    tuple) or of a golden report (a file name), in ``check_arrows``' form."""
    if isinstance(case, str):
        return report_parts(golden_report(case))
    diagram = diagram_for(*case)
    return (
        build_root_system(case[0]),
        [[c.label for c in col] for col in diagram.columns],
        [(a.level, a.source, a.target) for a in diagram.arrows],
        set(diagram.partial),
    )


@pytest.mark.parametrize("label,sigma,weight",
                         [(l, s, w) for l, s, ws in BATTERY for w in ws])
def test_battery_arrows_are_bruhat_edges(label, sigma, weight):
    rs, columns, arrows, partial = diagram_parts((label, sigma, weight))
    check_arrows(rs, len(sigma) == rs.rank, columns, arrows, partial)


@pytest.mark.parametrize("name", GOLDEN_WITH_ARROWS)
def test_golden_arrows_are_bruhat_edges(name):
    rs, columns, arrows, partial = diagram_parts(name)
    check_arrows(rs, is_borel(golden_report(name)), columns, arrows, partial)


def test_borel_edges_are_checked():
    """The Borel cases among the diagrams: A1 {1}, A2 {1,2} and B2 {1,2}."""
    borel = {(l, s) for l, s, _ in BATTERY if len(s) == build_root_system(l).rank}
    for name in GOLDEN_WITH_ARROWS:
        report = golden_report(name)
        if is_borel(report):
            borel.add((report["algebra"], tuple(report["sigma"])))
    assert borel == {("A1", (1,)), ("A2", (1, 2)), ("B2", (1, 2))}


# The non-Borel diagrams: whether the arrows out of each built source are
# all of its Bruhat edges into the next column, at the default jet budget.
# Equality held on each of them when pinned; a case that changes to False
# names a vanishing standard map (or a missed arrow) to look into.
EVERY_EDGE_CARRIED = {
    ("A2", (1,), (0, 0)): True,
    ("A2", (1,), (1, 0)): True,
    ("A2", (1,), (1, 1)): True,
    ("A3", (1, 3), (0, 0, 0)): True,
    ("A3", (1, 3), (1, 0, 0)): True,
    ("A3", (1, 3), (1, 0, 1)): True,
    ("A3", (2,), (0, 0, 0)): True,
    ("A3", (2,), (1, 0, 0)): True,
    ("A3", (2,), (1, 0, 1)): True,
    ("B2", (1,), (0, 0)): True,
    ("B2", (1,), (1, 0)): True,
    ("B2", (1,), (0, 2)): True,
    "A3_1-2_0-0-0_verify.json": True,
    "A3_1-3_1-0-0_verify.json": True,
    "B3_1_0-0-1_verify.json": True,
    "C3_2_1-0-1_verify.json": True,
    "G2_1_1-0_verify.json": True,
    "G2_2_2-1_verify.json": True,
}


def test_every_non_borel_diagram_is_pinned():
    cases = {(l, s, w) for l, s, ws in BATTERY for w in ws
             if len(s) != build_root_system(l).rank}
    cases |= {name for name in GOLDEN_WITH_ARROWS if not is_borel(golden_report(name))}
    assert cases == set(EVERY_EDGE_CARRIED)


@pytest.mark.parametrize("case", EVERY_EDGE_CARRIED, ids=str)
def test_non_borel_edges_carried_as_pinned(case):
    missed = missed_edges(*diagram_parts(case))
    assert (not missed) == EVERY_EDGE_CARRIED[case], missed
