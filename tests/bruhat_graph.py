"""The Bruhat-graph check of a BGG diagram's arrows, shared by the tests.

Column n of the diagram holds the labels w.lambda for the length-n elements
w of W^p. An arrow joins w.lambda to w'.lambda only when w' = s_beta w for a
positive root beta, that is when its labels mu, mu' satisfy
mu' + rho = s_beta(mu + rho). The reflections are computed from the root
system's inner products, with no Weyl word. On a Borel subalgebra (every
node crossed) every such edge between adjacent columns carries an arrow, so
the arrows out of each built source are exactly the edges.

A diagram is read in one form, (root system, columns, arrows, partial):
``columns[n]`` holds the labels of column n, ``arrows`` the (n, s, t) of an
arrow from source s of column n to target t of column n + 1, and
``partial`` the (n, s) of the sources built without arrows.
"""

from artifact.linalg import Q
from artifact.rootspace import build_root_system


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
    carry no arrow."""
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


def report_parts(report: dict):
    """(root system, columns, arrows, partial) of a parsed JSON report."""
    return (
        build_root_system(report["algebra"]),
        [[c["label"] for c in col["components"]] for col in report["columns"]],
        [(a["from"][0], a["from"][1], a["to"][1]) for a in report["arrows"]],
        {tuple(p) for p in report["partial"]},
    )


def is_borel(report: dict) -> bool:
    """Whether a parsed report's crossed nodes are all of its algebra's."""
    return len(report["sigma"]) == build_root_system(report["algebra"]).rank
