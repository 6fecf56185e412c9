"""Every arrow of a BGG diagram lies on an edge of the Bruhat graph.

Column n of the diagram holds the labels w.lambda for the length-n elements
w of W^p. An arrow joins w.lambda to w'.lambda only when w' = s_beta w for a
positive root beta, that is when its labels mu, mu' satisfy
mu' + rho = s_beta(mu + rho). The reflections are computed from the root
system's inner products, with no Weyl word. On a Borel subalgebra (every
node crossed) every such edge between adjacent columns carries an arrow, so
the arrows out of each built source are exactly the edges.

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


GOLDEN_WITH_ARROWS = sorted(
    name for name in map(os.path.basename, glob.glob(os.path.join(GOLDEN, "*.json")))
    if golden_report(name)["arrows"]
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


def check_arrows(rs, borel, columns, arrows, partial):
    """``columns[n]`` the labels of column n, ``arrows`` the (n, s, t) of an
    arrow from source s of column n to target t of column n + 1, and
    ``partial`` the (n, s) of the sources built without arrows."""
    for n, s, t in arrows:
        assert tuple(columns[n + 1][t]) in edge_targets(rs, columns[n][s]), (n, s, t)
    if borel:
        for n in range(len(columns) - 1):
            for s, mu in enumerate(columns[n]):
                if (n, s) in partial:
                    continue
                got = {t for m, src, t in arrows if (m, src) == (n, s)}
                edges = edge_targets(rs, mu)
                want = {t for t, nu in enumerate(columns[n + 1]) if tuple(nu) in edges}
                assert got == want, (n, s)


@pytest.mark.parametrize("label,sigma,weight",
                         [(l, s, w) for l, s, ws in BATTERY for w in ws])
def test_battery_arrows_are_bruhat_edges(label, sigma, weight):
    diagram = diagram_for(label, sigma, weight)
    rs = build_root_system(label)
    check_arrows(
        rs, len(sigma) == rs.rank,
        [[c.label for c in col] for col in diagram.columns],
        [(a.level, a.source, a.target) for a in diagram.arrows],
        set(diagram.partial),
    )


@pytest.mark.parametrize("name", GOLDEN_WITH_ARROWS)
def test_golden_arrows_are_bruhat_edges(name):
    report = golden_report(name)
    rs = build_root_system(report["algebra"])
    check_arrows(
        rs, len(report["sigma"]) == rs.rank,
        [[c["label"] for c in col["components"]] for col in report["columns"]],
        [(a["from"][0], a["from"][1], a["to"][1]) for a in report["arrows"]],
        {tuple(p) for p in report["partial"]},
    )


def test_borel_edges_are_checked():
    """The Borel cases among the diagrams: A1 {1}, A2 {1,2} and B2 {1,2}."""
    borel = {(l, s) for l, s, _ in BATTERY if len(s) == build_root_system(l).rank}
    for name in GOLDEN_WITH_ARROWS:
        report = golden_report(name)
        if len(report["sigma"]) == build_root_system(report["algebra"]).rank:
            borel.add((report["algebra"], tuple(report["sigma"])))
    assert borel == {("A1", (1,)), ("A2", (1, 2)), ("B2", (1, 2))}
