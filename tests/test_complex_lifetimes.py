"""How long the exponential tables of a cochain complex live.

The complex keeps the p-actions of two levels, the two built last, and the
unit wedges of one level, the last one asked for, and builds each G_n where
it is read instead of keeping it. `build_bgg_diagram` makes one pass over
the levels: step n builds H^{n+1}, then runs level n's checks and sources,
which read C^n and C^{n+1} only; and the Leibniz check on C^n reads the
wedges of level n - 1 before level n. So a whole run builds each level's
action and its wedges once. These tests watch both caches during whole
diagram builds, count the levels built, and look for a G_n among the
complex's attributes.
"""

import pytest

from artifact.bggcore import build_bgg_diagram
from artifact.hodge import CochainComplex, DegreeOverflow
from artifact.linalg import SpMat
from conftest import complex_for, graded


@pytest.fixture
def wedge_log(monkeypatch):
    """Wrap ``CochainComplex.unit_wedges``; the log gets, for each call,
    (level, built, number of levels the complex holds afterwards), where
    ``built`` tells whether the call had to build the level."""
    log = []
    unit_wedges = CochainComplex.unit_wedges

    def logged(cc, n):
        built = n not in cc._wedges
        out = unit_wedges(cc, n)
        log.append((n, built, len(cc._wedges)))
        return out

    monkeypatch.setattr(CochainComplex, "unit_wedges", logged)
    return log


@pytest.fixture
def level_log(monkeypatch):
    """Wrap ``CochainComplex.level``; the log gets, for each call, (level,
    built, number of levels the complex holds afterwards)."""
    log = []
    level = CochainComplex.level

    def logged(cc, n):
        built = n not in cc._levels
        out = level(cc, n)
        log.append((n, built, len(cc._levels)))
        return out

    monkeypatch.setattr(CochainComplex, "level", logged)
    return log


# G2 {1} (1,1) is a bench `cohomology` case (no arrows); A3 {1,2,3} (0,0,0)
# is a bench `verify` case with 34 sources
RUNS = [("G2", (1,), (1, 1), False), ("A3", (1, 2, 3), (0, 0, 0), True)]


@pytest.mark.parametrize("label,sigma,weight,with_arrows", RUNS)
def test_complex_holds_one_wedge_level(wedge_log, label, sigma, weight, with_arrows):
    build_bgg_diagram(graded(label, sigma), weight, with_arrows=with_arrows)
    assert wedge_log
    assert max(held for _, _, held in wedge_log) == 1


@pytest.mark.parametrize("label,sigma,weight,with_arrows", RUNS)
def test_identity_battery_builds_each_level_once(wedge_log, label, sigma, weight, with_arrows):
    """And so does the whole run, with arrows too: the sources of level n
    read only level n, which the level's checks have just built. The
    Leibniz check on C^0 reads level -1, whose wedges are zero maps.
    A3 {1,2,3} (0,0,0) builds 7 levels, -1 to 5."""
    diagram = build_bgg_diagram(graded(label, sigma), weight, with_arrows=with_arrows)
    top = len(diagram.columns) - 1
    builds = [n for n, built, _ in wedge_log if built]
    assert builds == list(range(-1, top))
    if with_arrows:
        assert len(builds) == 7


def test_no_attribute_holds_an_inner_product():
    cc = complex_for("B2", (1,), (0, 1))
    assert "inner" not in vars(cc)
    grams = [cc.inner(n) for n in range(cc.top + 1)]
    assert all(G.nrows == G.ncols == cc.dim(n) for n, G in enumerate(grams))

    def matrices(value):
        if isinstance(value, SpMat):
            yield value
        elif isinstance(value, (list, tuple)):
            for v in value:
                yield from matrices(v)
        elif isinstance(value, dict):
            for v in value.values():
                yield from matrices(v)

    held = [m for value in vars(cc).values() for m in matrices(value)]
    assert held
    assert not any(m == G for m in held for G in grams)


@pytest.mark.parametrize("label,sigma,weight,with_arrows", RUNS)
def test_complex_holds_two_levels(level_log, label, sigma, weight, with_arrows):
    build_bgg_diagram(graded(label, sigma), weight, with_arrows=with_arrows)
    assert level_log
    assert max(held for _, _, held in level_log) == 2


@pytest.mark.parametrize("label,sigma,weight,with_arrows", RUNS)
def test_run_builds_each_level_action_once(level_log, label, sigma, weight, with_arrows):
    """Levels 0..top, each once and in order; the zero ends C^{-1} and
    C^{top+1} are never built, since no reader needs their actions."""
    diagram = build_bgg_diagram(graded(label, sigma), weight, with_arrows=with_arrows)
    top = len(diagram.columns) - 1
    builds = [n for n, built, _ in level_log if built]
    assert builds == list(range(0, top + 1))
    assert not {-1, top + 1} & {n for n, _, _ in level_log}


@pytest.mark.parametrize("label,sigma,weight,with_arrows", RUNS)
def test_levels_outside_the_complex_are_refused(label, sigma, weight, with_arrows):
    cc = complex_for(label, sigma, weight)
    for n in (-2, cc.top + 2):
        with pytest.raises(DegreeOverflow):
            cc.level(n)
