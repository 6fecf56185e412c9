"""Every arrow of a BGG diagram lies on an edge of the Bruhat graph.

Column n of the diagram holds the labels w.lambda for the length-n elements
w of W^p. An arrow joins w.lambda to w'.lambda only when w' = s_beta w for a
positive root beta, that is when its labels mu, mu' satisfy
mu' + rho = s_beta(mu + rho). The reflections are computed from the root
system's inner products, with no Weyl word. On a Borel subalgebra (every
node crossed) every such edge between adjacent columns carries an arrow, so
the arrows out of each built source are exactly the edges. For other
parabolics a standard map can vanish on an edge (Boe, Trans. AMS 288,
1985), so whether every edge carries an arrow is pinned per case.

The diagrams checked are every `BATTERY` case and every golden report that
has arrows.
"""

import glob
import json
import os

import pytest

from artifact.linalg import Q
from artifact.rootspace import build_root_system
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


def edge_targets(rs, mu) -> set[tuple[int, ...]]:
    """The labels mu' != mu with mu' + rho = s_beta(mu + rho) for a positive
    root beta; weights in fundamental coordinates."""
    x = tuple(m + r for m, r in zip(mu, rs.rho))
    out = set()
    for beta in rs.pos_roots:
        k = Q(2) * rs.ip_weight_root(x, beta) / rs.ip_root_root(beta, beta)
        assert k.denominator == 1, (mu, beta)
        if k:
            bw = rs.root_to_weight(beta)
            out.add(tuple(int(xi - k * b) - r for xi, b, r in zip(x, bw, rs.rho)))
    return out


def missed_edges(rs, columns, arrows, partial) -> list[tuple[int, int]]:
    """The built sources (n, s) some of whose Bruhat edges into column n + 1
    carry no arrow. ``columns[n]`` holds the labels of column n, ``arrows``
    the (n, s, t) of an arrow from source s of column n to target t of
    column n + 1, and ``partial`` the (n, s) of the sources built without
    arrows."""
    missed = []
    for n in range(len(columns) - 1):
        for s, mu in enumerate(columns[n]):
            if (n, s) in partial:
                continue
            got = {t for m, src, t in arrows if (m, src) == (n, s)}
            edges = edge_targets(rs, mu)
            if got != {t for t, nu in enumerate(columns[n + 1]) if tuple(nu) in edges}:
                missed.append((n, s))
    return missed


def check_arrows(rs, borel, columns, arrows, partial):
    """Every arrow lies on an edge; on a Borel case every edge out of a
    built source carries one (``missed_edges``)."""
    for n, s, t in arrows:
        assert tuple(columns[n + 1][t]) in edge_targets(rs, columns[n][s]), (n, s, t)
    if borel:
        assert missed_edges(rs, columns, arrows, partial) == []


def diagram_parts(case):
    """(root system, columns, arrows, partial) of a `BATTERY` case (a
    tuple) or of a golden report (a file name), in ``check_arrows``' form."""
    if isinstance(case, str):
        report = golden_report(case)
        return (
            build_root_system(report["algebra"]),
            [[c["label"] for c in col["components"]] for col in report["columns"]],
            [(a["from"][0], a["from"][1], a["to"][1]) for a in report["arrows"]],
            {tuple(p) for p in report["partial"]},
        )
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
    check_arrows(rs, len(golden_report(name)["sigma"]) == rs.rank, columns, arrows, partial)


def test_borel_edges_are_checked():
    """The Borel cases among the diagrams: A1 {1}, A2 {1,2} and B2 {1,2}."""
    borel = {(l, s) for l, s, _ in BATTERY if len(s) == build_root_system(l).rank}
    for name in GOLDEN_WITH_ARROWS:
        report = golden_report(name)
        if len(report["sigma"]) == build_root_system(report["algebra"]).rank:
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
    cases |= {name for name in GOLDEN_WITH_ARROWS
              if len(golden_report(name)["sigma"]) != build_root_system(
                  golden_report(name)["algebra"]).rank}
    assert cases == set(EVERY_EDGE_CARRIED)


@pytest.mark.parametrize("case", EVERY_EDGE_CARRIED, ids=str)
def test_non_borel_edges_carried_as_pinned(case):
    missed = missed_edges(*diagram_parts(case))
    assert (not missed) == EVERY_EDGE_CARRIED[case], missed
