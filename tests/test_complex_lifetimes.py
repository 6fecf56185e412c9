"""How long the exponential tables of a cochain complex live.

The complex never stores the p-action of a level, nor the wedge on it:
each reader places A^n_Z = L_Z (x) 1 + 1 (x) M_Z as blocks of
Lambda^n p_+'s matrices and V's, and eps_a (x) 1_V as blocks of the bare
wedge eps_a. It keeps one cache, a window of two levels, the two built
last: record n holds Lambda^n p_+ and the bare wedges
eps_a: Lambda^{n-1} -> Lambda^n, built together (``CochainComplex._level``).
It builds each G_n where it is read instead of keeping it.
`build_bgg_diagram` makes one pass over the levels: step n builds H^{n+1},
then runs level n's checks and sources, which read records n and n + 1
only. So a whole run builds each record once, from 0 to top. The pass holds
two cohomology records, H^n and H^{n+1}, since level n reads no other.
These tests watch the window during whole diagram builds, count the levels
built, count the live cohomology records, look for a G_n among the
complex's attributes, and look, whenever a reader asks for a level, for a
held matrix of the shape of a level's action or of a wedge on C^n. The
bench `cohomology` cases run under ``tracemalloc``, each with its own bound
on the traced peak.
"""

import gc
import inspect
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
def window_log(monkeypatch):
    """Wrap ``CochainComplex._level``, through which every reader of the
    window goes; the log gets, for each call, (level, built, number of
    levels the window holds afterwards), where ``built`` tells whether the
    call had to build the level."""
    log = []
    level = CochainComplex._level

    def logged(cc, n):
        built = n not in cc._window
        out = level(cc, n)
        log.append((n, built, len(cc._window)))
        return out

    monkeypatch.setattr(CochainComplex, "_level", logged)
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
def test_complex_holds_one_wedge_level(monkeypatch, label, sigma, weight, with_arrows):
    """The wedges out of a level are held in one place: whenever a reader
    asks for those out of level n during a whole run, each is held once, in
    record n + 1 of the window, and no attribute but d, dstar and the window
    holds a matrix dim C^{k+1} x dim C^k, the shape of a wedge
    eps_a (x) 1_V on C^k, for any level k."""
    reads = []
    bare_wedges = CochainComplex.bare_wedges

    def logged(cc, n):
        out = bare_wedges(cc, n)
        held = list(held_matrices(vars(cc)))
        shapes = {(cc.dim(k + 1), cc.dim(k)) for k in range(-1, cc.top + 1)}
        reads.append((
            n,
            [path for path, m in held if any(m is e for e in out)],
            [path for path, m in held if path[0] not in ("dels", "delstars", "_window")
             and (m.nrows, m.ncols) in shapes],
            [("_window", n + 1, 1, a) for a in range(len(out))],
        ))
        return out

    monkeypatch.setattr(CochainComplex, "bare_wedges", logged)
    build_bgg_diagram(graded(label, sigma), weight, with_arrows=with_arrows)
    assert reads
    for n, places, strays, record in reads:
        assert places == record, n
        assert strays == [], n


@pytest.mark.parametrize("label,sigma,weight,with_arrows", RUNS)
def test_identity_battery_builds_each_level_once(window_log, label, sigma, weight, with_arrows):
    """The wedges out of each level are built once in the whole run, with
    arrows too: those out of level k live in record k + 1, which the pass
    builds once, and the sources of level n read only records n and n + 1,
    which the level's checks have just read. The Leibniz check on C^0 reads
    the wedges out of level -1, zero maps. A3 {1,2,3} (0,0,0) builds the
    wedges out of 7 levels, -1 to 5."""
    diagram = build_bgg_diagram(graded(label, sigma), weight, with_arrows=with_arrows)
    top = len(diagram.columns) - 1
    builds = [n - 1 for n, built, _ in window_log if built]
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
def test_complex_holds_two_levels(window_log, label, sigma, weight, with_arrows):
    """The window, of Lambda^n p_+ (the factor of C^n's action) and the bare
    wedges into it, holds at most two levels whoever reads it."""
    build_bgg_diagram(graded(label, sigma), weight, with_arrows=with_arrows)
    assert window_log
    assert max(held for _, _, held in window_log) == 2


@pytest.mark.parametrize("label,sigma,weight,with_arrows", RUNS)
def test_run_builds_each_level_action_once(window_log, label, sigma, weight, with_arrows):
    """The window's records for levels 0..top, each once and in order; the
    zero ends Lambda^{-1} and Lambda^{top+1} are never built, since no
    reader needs their actions, and no reader of the wedges asks for them:
    the wedges out of C^{-1} are in record 0, and those out of C^top are
    never read."""
    diagram = build_bgg_diagram(graded(label, sigma), weight, with_arrows=with_arrows)
    top = len(diagram.columns) - 1
    builds = [n for n, built, _ in window_log if built]
    assert builds == list(range(0, top + 1))
    assert not {-1, top + 1} & {n for n, _, _ in window_log}


def test_complex_keeps_one_cache():
    """Of the complex's attributes, all but the constructor's are its one
    cache, the window."""
    cc = complex_for("G2", (1,), (1, 1))
    params = inspect.signature(CochainComplex).parameters
    assert [k for k in vars(cc) if k not in params] == ["_window"]


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
    dim C^k x dim C^k for a level k with dim Lambda^k > 1, or
    dim C^{k+1} x dim C^k, the shape of a wedge eps_a (x) 1_V on C^k, but d
    and dstar (dstar_k has the shape of d_{top-1-k}, and d_k may be square)."""
    scans = []

    def scanning(method):
        def wrapper(cc, n):
            out = method(cc, n)
            squares = {(cc.dim(k), cc.dim(k)) for k in range(cc.top + 1)
                       if len(cc.wedge_tuples[k]) > 1}
            wedges = {(cc.dim(k + 1), cc.dim(k)) for k in range(cc.top)}
            scans.append([
                path for path, m in held_matrices(vars(cc))
                if path[0] not in ("dels", "delstars")
                and (m.nrows, m.ncols) in squares | wedges
            ])
            return out
        return wrapper

    for name in ("wedge_module", "bare_wedges"):
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
# bytes. Traced peaks: 3.31 and 2.03 MB with no unit wedge stored and one
# window of Lambda^n and its bare wedges; 3.63 and 2.71 MB with the unit
# wedges of one level stored; 3.88 and 3.13 MB with one level-wide
# certificate and every cohomology record held; 6.6 and 5.7 MB when each
# level's action was stored
GUARDED = [(["--algebra", "G2", "--cross", "1", "--weight", "1,1", "cohomology"], 3.45e6),
           (["--algebra", "A4", "--cross", "2", "--weight", "1,0,0,1", "cohomology"], 2.35e6)]


@pytest.mark.parametrize("argv,bound", GUARDED, ids=["G2", "A4"])
def test_cohomology_peak_memory(capsys, argv, bound):
    """A stored level action or unit wedge, a level-wide certificate matrix
    or a held cohomology record shows here as a traced peak over the
    bound."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < bound, f"traced peak {peak / 1e6:.3f} MB"
