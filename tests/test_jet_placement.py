"""Blocks are placed through phi: the pipeline builds no J^1 matrix.

Every map the pipeline composes with iota: Jbar^k -> J^1(Jbar^{k-1}) is
assembled with its columns placed through phi, the index map of iota, and
every map out of J^1 is assembled from blocks of its factors. So the action
of an ambient J^1(Jbar^j), j >= 1, a square matrix of side
(1 + dim p_+) dim Jbar^j, is never assembled: the tower, the splitter and
the operator use only the blocks of the J^1 formula (`jetcalc._jet1_terms`).
(At j = 0, J^1(Jbar^0) is Jbar^1 itself, whose action the tower keeps.)
The references in `jet_reference` still build J^1(V), J^1(f) and d_V in
full, to check what the pipeline places against them.
"""

import pytest

from artifact import bggcore, jetcalc
from artifact.bggcore import (
    build_bgg_diagram,
    compose_splitter,
    generate_submodule,
    operator_jet_order,
    operator_on_jet1,
)
from artifact.jetcalc import jbar_dim, semiholonomic
from artifact.linalg import SpMat
from artifact.repmod import DimensionOverBudget, build_irrep, restrict_to_parabolic
from conftest import BATTERY, components_for, graded, record_assembled_shapes
from jet_reference import iota, jet1_map_matrix, twisted_matrix


def ambient_sides(d: int, dv: int, r: int) -> set[int]:
    """The sides (1 + d) dim Jbar^j(W) of the J^1(Jbar^j) actions, 1 <= j < r,
    that a tower up to Jbar^r over a dv-dim W would need in full."""
    return {(1 + d) * jbar_dim(d, dv, j) for j in range(1, r)}


def test_tower_assembles_no_ambient_action(monkeypatch):
    g = graded("A2", (1,))
    V = restrict_to_parabolic(build_irrep(g.rs, (1, 0)), g)
    d = len(g.pplus_roots)
    shapes = record_assembled_shapes(monkeypatch)
    sh = semiholonomic(V, 3)
    monkeypatch.undo()
    sides = ambient_sides(d, V.dim, 3)
    assert sides == {3 * 3 * 3, 3 * 7 * 3}
    # no J^1 side coincides with the side of a Jbar the tower does build
    assert not sides & {jbar_dim(d, V.dim, k) for k in range(4)}
    assert not [s for s in shapes if s[0] == s[1] and s[0] in sides]
    # A o iota was assembled on the ambient rows, one matrix per label, at
    # each step above Jbar^1
    for j in (1, 2):
        amb, new = (1 + d) * jbar_dim(d, V.dim, j), jbar_dim(d, V.dim, j + 1)
        assert shapes.count((amb, new)) == len(g.p_labels)
    assert sh.module.dim == jbar_dim(d, V.dim, 3)


def test_diagram_assembles_no_ambient_action(monkeypatch):
    g = graded("A3", (1, 2, 3))
    d = len(g.pplus_roots)
    towers = []
    honest = jetcalc.semiholonomic

    def spy(V, r, *args, **kwargs):
        towers.append((V.dim, r))
        return honest(V, r, *args, **kwargs)

    for mod in (jetcalc, bggcore):
        monkeypatch.setattr(mod, "semiholonomic", spy)
    shapes = record_assembled_shapes(monkeypatch)
    diagram = build_bgg_diagram(g, (0, 0, 0))
    monkeypatch.undo()
    assert diagram.arrows and all(diagram.verify.values())
    sides = set().union(*(ambient_sides(d, dv, r + 1) for dv, r in towers))
    # the diagram climbs above Jbar^1, so the parent's tower would have
    # built J^1(Jbar^1) in full
    assert (1 + d) * jbar_dim(d, 1, 1) in sides
    assert not [s for s in shapes if s[0] == s[1] and s[0] in sides]


def battery_sources():
    """(gs, chain, coh_next) for every source of every `BATTERY` case within
    the default jet budget, with the splitter at the order the diagram builds
    it."""
    for label, sigma, ws in BATTERY:
        for w in ws:
            cc, cohs, comps = components_for(label, sigma, w)
            for n in range(cc.top):
                for comp in comps[n]:
                    try:
                        gs = generate_submodule(cc, cohs[n], comp)
                    except DimensionOverBudget:
                        continue
                    k = operator_jet_order(gs, comps[n + 1]) - 1
                    yield gs, compose_splitter(gs, k), cohs[n + 1]


def test_operator_values_are_d_V_of_the_jet_of_the_splitter():
    sources = 0
    for gs, chain, coh_next in battery_sources():
        cc, n = gs.cc, gs.n
        lead = gs.basis.select_columns(list(range(chain.composite.nrows)))
        want = twisted_matrix(cc, n) @ jet1_map_matrix(cc.g, lead @ chain.composite)
        dt, values = operator_on_jet1(gs, chain, coh_next)
        assert values == want, (gs.n, gs.comp.label)
        assert dt == coh_next.harmonic_projection() @ want
        sources += 1
    assert sources > 50


@pytest.mark.parametrize("label,sigma,weight", [("A2", (1,), (1, 0)), ("B2", (1,), (0, 0))])
def test_prolong_is_J1_of_the_map_times_iota(label, sigma, weight):
    """`prolong` places the 1 + d copies of f through phi's slices; that is
    J^1(f) o iota with both factors built in full."""
    g = graded(label, sigma)
    cc, _, _ = components_for(label, sigma, weight)
    V = cc.V
    for r in (1, 2, 3):
        jet = semiholonomic(V, r)
        below = jbar_dim(len(g.pplus_roots), V.dim, r - 1)
        f = SpMat.from_entries(2, below, {
            (i, j): (1 + i + 2 * j) * (-1) ** j for i in range(2) for j in range(below)
            if (i + j) % 3
        })
        assert jetcalc.prolong(f, jet) == jet1_map_matrix(g, f) @ iota(jet), r
