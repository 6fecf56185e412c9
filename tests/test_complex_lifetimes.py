"""How long the exponential tables of a cochain complex live.

The complex never stores the p-action of a level: each reader places
A^n_Z = L_Z (x) 1 + 1 (x) M_Z as blocks of Lambda^n p_+'s matrices and V's.
It keeps Lambda^n p_+ for two levels, the two built last, and the unit
wedges of one level, the last one asked for, and builds each G_n where it
is read instead of keeping it. `build_bgg_diagram` makes one pass over the
levels: step n builds H^{n+1}, then runs level n's checks and sources,
which read Lambda^n and Lambda^{n+1} only; and the Leibniz check on C^n
reads the wedges of level n - 1 before level n. So a whole run builds each
Lambda^n and each level's wedges once. The pass holds two cohomology
records, H^n and H^{n+1}, since level n reads no other. These tests watch
both caches during whole diagram builds, count the levels built, count the
live cohomology records, look for a G_n among the complex's attributes, and
look, whenever a reader asks for a level, for a held matrix of the shape of
a level's action. The bench `cohomology` cases run under ``tracemalloc``,
each with its own bound on the traced peak.
"""

import gc
import tracemalloc
import weakref

import pytest

from artifact import bggcore
from artifact.bggcli import main
from artifact.bggcore import build_bgg_diagram
from artifact.hodge import CochainComplex, DegreeOverflow
from artifact.linalg import SpMat
from artifact.repmod import PModule
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
    """Wrap ``CochainComplex.wedge_module``; the log gets, for each call,
    (level, built, number of levels the complex holds afterwards)."""
    log = []
    wedge_module = CochainComplex.wedge_module

    def logged(cc, n):
        built = n not in cc._lambdas
        out = wedge_module(cc, n)
        log.append((n, built, len(cc._lambdas)))
        return out

    monkeypatch.setattr(CochainComplex, "wedge_module", logged)
    return log


def held_matrices(value, path=()):
    """(path, matrix) for each SpMat reachable from ``value`` through lists,
    tuples, dicts and the attributes of a PModule."""
    if isinstance(value, SpMat):
        yield path, value
    elif isinstance(value, (list, tuple)):
        for k, v in enumerate(value):
            yield from held_matrices(v, (*path, k))
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from held_matrices(v, (*path, k))
    elif isinstance(value, PModule):
        yield from held_matrices(vars(value), path)


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
    held = [m for _, m in held_matrices({k: v for k, v in vars(cc).items() if k != "V"})]
    assert held
    assert not any(m == G for m in held for G in grams)


@pytest.mark.parametrize("label,sigma,weight,with_arrows", RUNS)
def test_complex_holds_two_levels(level_log, label, sigma, weight, with_arrows):
    """Of Lambda^n p_+, the factor of C^n's action the complex keeps."""
    build_bgg_diagram(graded(label, sigma), weight, with_arrows=with_arrows)
    assert level_log
    assert max(held for _, _, held in level_log) == 2


@pytest.mark.parametrize("label,sigma,weight,with_arrows", RUNS)
def test_run_builds_each_level_action_once(level_log, label, sigma, weight, with_arrows):
    """Lambda^n p_+ for levels 0..top, each once and in order; the zero ends
    Lambda^{-1} and Lambda^{top+1} are never built, since no reader needs
    their actions."""
    diagram = build_bgg_diagram(graded(label, sigma), weight, with_arrows=with_arrows)
    top = len(diagram.columns) - 1
    builds = [n for n, built, _ in level_log if built]
    assert builds == list(range(0, top + 1))
    assert not {-1, top + 1} & {n for n, _, _ in level_log}


@pytest.mark.parametrize("label,sigma,weight,with_arrows", RUNS)
def test_run_holds_two_cohomology_records(monkeypatch, label, sigma, weight, with_arrows):
    """Level n's checks and sources read H^n and H^{n+1} only, and the
    columns read their components: at each call of ``cohomology_module``,
    on entry and on return, at most two ``Cohomology`` records are alive,
    and each level's is built once, in order."""
    records, alive, levels = [], [], []
    build = bggcore.cohomology_module

    def count_alive():
        gc.collect()
        alive.append(sum(r() is not None for r in records))

    def watched(cc, n):
        count_alive()
        levels.append(n)
        coh = build(cc, n)
        records.append(weakref.ref(coh))
        count_alive()
        return coh

    monkeypatch.setattr(bggcore, "cohomology_module", watched)
    diagram = build_bgg_diagram(graded(label, sigma), weight, with_arrows=with_arrows)
    assert levels == list(range(len(diagram.columns)))
    assert len(levels) > 3
    assert max(alive) <= 2, alive


# cases with dim V > 1, where no matrix the complex is meant to hold has the
# shape of an action on a level of dim Lambda^n > 1: G2 {1} (1,1) is a bench
# `cohomology` case, and A2 {1,2} (1,1) has arrows
SHAPE_RUNS = [("G2", (1,), (1, 1), False), ("A2", (1, 2), (1, 1), True)]


@pytest.mark.parametrize("label,sigma,weight,with_arrows", SHAPE_RUNS)
def test_no_attribute_holds_a_level_action(monkeypatch, label, sigma, weight, with_arrows):
    """Whenever a reader asks for Lambda^n p_+ or a level's wedges during a
    whole run, no matrix reachable from the complex's attributes is
    dim C^k x dim C^k for a level k with dim Lambda^k > 1, but d, dstar and
    the unit wedges, which map C^k to a neighbour of the same dimension."""
    scans = []

    def scanning(method):
        def wrapper(cc, n):
            out = method(cc, n)
            squares = {cc.dim(k) for k in range(cc.top + 1)
                       if len(cc.wedge_tuples[k]) > 1}
            scans.append([
                path for path, m in held_matrices(vars(cc))
                if path[0] not in ("dels", "delstars", "_wedges")
                and m.nrows == m.ncols and m.nrows in squares
            ])
            return out
        return wrapper

    for name in ("wedge_module", "unit_wedges"):
        monkeypatch.setattr(CochainComplex, name, scanning(getattr(CochainComplex, name)))
    build_bgg_diagram(graded(label, sigma), weight, with_arrows=with_arrows)
    assert len(scans) > 10
    assert not any(scans), [p for p in scans if p][:3]


@pytest.mark.parametrize("label,sigma,weight,with_arrows", RUNS)
def test_levels_outside_the_complex_are_refused(label, sigma, weight, with_arrows):
    cc = complex_for(label, sigma, weight)
    for n in (-2, cc.top + 2):
        with pytest.raises(DegreeOverflow):
            cc.wedge_module(n)


# the bench `cohomology` cases, each with its bound on the traced peak, in
# bytes. Traced peaks: 3.63 and 2.71 MB with each weight block certified on
# its own and two cohomology records held; 3.88 and 3.13 MB with one
# level-wide certificate and every record held; 6.6 and 5.7 MB when each
# level's action was stored
GUARDED = [(["--algebra", "G2", "--cross", "1", "--weight", "1,1", "cohomology"], 3.70e6),
           (["--algebra", "A4", "--cross", "2", "--weight", "1,0,0,1", "cohomology"], 2.85e6)]


@pytest.mark.parametrize("argv,bound", GUARDED, ids=["G2", "A4"])
def test_cohomology_peak_memory(capsys, argv, bound):
    """A stored level action, a level-wide certificate matrix or a held
    cohomology record shows here as a traced peak over the bound."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < bound, f"traced peak {peak / 1e6:.3f} MB"
