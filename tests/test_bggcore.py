"""Splitting operators, tilde towers, operator diagrams."""

import os
import subprocess
import sys

import pytest

from artifact.bggcore import (
    bgg_operator,
    build_bgg_diagram,
    build_Li,
    compose_splitter,
    generate_submodule,
    operator_order,
    verify_splitter_defect,
    verify_splitter_projection,
)
from artifact.jetcalc import MAX_JET_DIM, check_equivariance, jbar_dim
from artifact.linalg import SpMat
from artifact.repmod import layered_closure
from conftest import (
    BATTERY,
    NO_JET_BUDGET,
    components_for,
    diagram_for,
    graded,
    replaced,
    splitters_for,
)
from hodge_reference import reference_level
from jet_reference import jet1, jet1_map_matrix, reference_splitter
from linalg_reference import bumped, reference_closure
from tilde_reference import (
    tilde_bases,
    tilde_jet_submodule,
    twisted_d_hom,
    verify_tower_containments,
)

SPLITTER_CASES = [
    ("A1", (1,), (3,)),
    ("A2", (1,), (1, 1)),
    ("A2", (1, 2), (1, 1)),
    ("B2", (1,), (0, 1)),
    ("G2", (1,), (0, 0)),
]


def submodules_for(label, sigma, weight):
    cc, cohs, comps = components_for(label, sigma, weight)
    for n in range(cc.top):
        for comp in comps[n]:
            yield generate_submodule(cc, cohs[n], comp, max_jet_dim=NO_JET_BUDGET)


@pytest.mark.parametrize("label,sigma,weight", SPLITTER_CASES)
def test_generated_submodule_certified(label, sigma, weight):
    cc, _, _ = components_for(label, sigma, weight)
    for gs in submodules_for(label, sigma, weight):
        level = reference_level(cc, gs.n)
        assert check_equivariance(gs.basis, gs.module, level) == ()
        if gs.n >= 1:
            assert (cc.delstars[gs.n - 1] @ gs.basis).is_zero()
        # degree filtration starts at the harmonic degree and is exhaustive
        assert gs.offsets[0] == 0
        assert gs.quotient(gs.r + 1).dim == gs.module.dim
        for i in range(1, gs.r + 1):
            assert gs.box_inverse(i) is not None


@pytest.mark.parametrize("label,sigma,weight",
                         [(l, s, w) for l, s, ws in BATTERY for w in ws],
                         ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else x)
def test_layered_closure_spans_the_naive_fixpoint(label, sigma, weight):
    cc, cohs, comps = components_for(label, sigma, weight)
    g = cc.g
    for n in range(cc.top):
        level = reference_level(cc, n)
        raising = [(level.actions[l], g.grade_of(l)) for l in g.p_labels if g.grade_of(l) >= 1]
        ops = [(A.__matmul__, s) for A, s in raising]
        for comp in comps[n]:
            seeds = cohs[n].ker_box @ comp.embedding
            layers = SpMat.hstack([b for _, b in layered_closure(seeds, ops)])
            want = reference_closure(seeds, [A for A, _ in raising])
            assert layers.rank() == layers.ncols == want.ncols
            assert SpMat.hstack([layers, want]).rank() == want.ncols


# dims of the layers of E, [len(gs.block_columns(j)) for j in range(gs.r + 1)],
# for each source in level order, as recorded before the closure was layered
LAYER_SIZES = {
    ("A3", (1, 3), (1, 0, 1)): [
        [1, 4, 5, 4, 1], [3, 6, 7, 4, 1], [3, 6, 7, 4, 1], [2, 4, 8, 7, 2],
        [2, 4, 8, 7, 2], [5, 8, 9, 4], [5, 8, 3], [2, 1], [2, 1], [3, 2], [3, 2]],
    ("G2", (1,), (1, 0)): [
        [1, 2, 1, 2, 1], [3, 2, 4, 4, 4, 2], [4, 3, 6, 7, 4, 1], [4, 3, 2, 1], [3, 2]],
    ("B2", (1, 2), (1, 0)): [
        [1, 1, 1, 1, 1], [1, 1, 2, 2, 2, 2, 1], [1, 1, 1, 2, 2, 1], [1, 1, 1, 2, 2, 1],
        [1, 1, 1], [1, 1], [1]],
    ("A3", (1, 2, 3), (0, 0, 0)): [
        [1], [1, 1, 1], [1, 1, 1], [1, 2, 1], [1, 1, 3, 2], [1, 1, 1], [1, 1, 1],
        [1, 1, 1], [1, 1, 1], [1, 1, 2, 1], [1, 1, 2, 1], [1, 1, 1], [1, 2, 1], [1],
        [1], [1, 1], [1, 1], [1, 1], [1, 1], [1], [1], [1], [1]],
}


@pytest.mark.parametrize("case", LAYER_SIZES, ids=lambda c: f"{c[0]}-{','.join(map(str, c[1]))}")
def test_generated_submodule_layer_sizes(case):
    got = [[len(gs.block_columns(j)) for j in range(gs.r + 1)] for gs in submodules_for(*case)]
    assert got == LAYER_SIZES[case]


@pytest.mark.parametrize("label,sigma,weight", SPLITTER_CASES)
def test_Li_projection_and_defect(label, sigma, weight):
    for gs in submodules_for(label, sigma, weight):
        chain = compose_splitter(gs)
        assert check_equivariance(chain.composite, chain.jet.module, gs.module) == ()
        assert verify_splitter_projection(gs, chain)
        assert verify_splitter_defect(gs, chain)


@pytest.mark.parametrize(
    "label,sigma,weight", SPLITTER_CASES + [("A3", (1, 3), (1, 0, 0))]
)
def test_splitter_matches_stagewise_reference(label, sigma, weight):
    d = len(graded(label, sigma).pplus_roots)
    for gs in submodules_for(label, sigma, weight):
        if gs.r == 0 or jbar_dim(d, gs.quotient(1).dim, gs.r + 1) > MAX_JET_DIM:
            continue  # no stages, or a source the diagram leaves partial
        chain = compose_splitter(gs)
        assert chain.composite == reference_splitter(gs, chain.maps)


@pytest.mark.parametrize("label,sigma,weight", SPLITTER_CASES)
def test_splitter_splits_the_footpoint(label, sigma, weight):
    for gs in submodules_for(label, sigma, weight):
        chain = compose_splitter(gs)
        q1 = gs.quotient(1)
        for k in range(q1.dim):
            assert chain.composite.col_dict(k).get(k) == 1
        for k in range(q1.dim):
            row = {
                j: chain.composite.get(k, j)
                for j in range(chain.composite.ncols)
                if chain.composite.get(k, j)
            }
            assert row == {k: 1}


def test_li_equivariance_only_at_stage_one():
    # L_1 is a P-map; later stages have the controlled defect, which cancels
    # in the semi-holonomic composite (test_Li_projection_and_defect).
    seen_defect = False
    for gs in submodules_for("G2", (1,), (0, 0)):
        for i in range(1, gs.r + 1):
            res = check_equivariance(
                build_Li(gs, i), jet1(gs.quotient(i)), gs.quotient(i + 1)
            )
            if i == 1:
                assert res == (), (gs.n, i)
            else:
                assert res != (), (gs.n, i)
                seen_defect = True
    assert seen_defect


TAMPER_CASES = [("G2", (1,), (0, 0)), ("A3", (1, 3), (1, 0, 0)), ("B2", (1, 2), (1, 0))]


def tamper_verdicts(check, row_of):
    """For every L_i of every source of TAMPER_CASES, the verdicts of
    ``check`` on the chain and on the chain with 1 added to L_i at
    (row_of(gs, i), last column)."""
    for case in TAMPER_CASES:
        for gs, chain in splitters_for(*case):
            for i, li in enumerate(chain.maps, 1):
                maps = list(chain.maps)
                maps[i - 1] = bumped(li, row_of(gs, i), li.ncols - 1)
                yield check(gs, chain), check(gs, replaced(chain, maps=tuple(maps)))


def test_tampered_splitter_fails_the_defect_check():
    # the first row of block i, where L_i takes its corrections
    verdicts = list(tamper_verdicts(
        verify_splitter_defect, lambda gs, i: gs.block_columns(i)[0]
    ))
    assert verdicts == [(True, False)] * 46


def test_tampered_splitter_fails_the_projection_check():
    verdicts = list(tamper_verdicts(verify_splitter_projection, lambda gs, i: 0))
    assert verdicts == [(True, False)] * 46


def test_twisted_d_hom_certified():
    cc, _, _ = components_for("A2", (1,), (1, 0))
    for n in range(cc.top):
        twisted_d_hom(cc, n)  # raises CertificationFailure unless a P-map


@pytest.mark.parametrize(
    "label,sigma,weight",
    [("A1", (1,), (2,)), ("A2", (1, 2), (1, 1)), ("G2", (1,), (0, 0))],
)
def test_tilde_submodules(label, sigma, weight):
    g = graded(label, sigma)
    for gs in submodules_for(label, sigma, weight):
        chain = compose_splitter(gs)
        bases = tilde_bases(gs, chain.maps, gs.r)
        for i in range(gs.r + 1):
            T = tilde_jet_submodule(gs, i, bases)
            res = check_equivariance(T.basis, T.module, T.ambient)
            assert res == (), (gs.n, i)
            if i >= 1:
                # defining equations of the constrained jet space
                d = len(g.pplus_roots)
                qn, qn1 = gs.quotient(i), gs.quotient(i + 1)
                proj = SpMat.identity(qn.dim, qn1.dim)
                jp = jet1_map_matrix(g, proj)
                foot = SpMat.identity(qn1.dim, (1 + d) * qn1.dim)
                assert chain.maps[i - 1] @ (jp @ T.basis) == foot @ T.basis, (gs.n, i)


@pytest.mark.parametrize("label,sigma,weight", SPLITTER_CASES)
def test_tower_containments(label, sigma, weight):
    for gs in submodules_for(label, sigma, weight):
        chain = compose_splitter(gs)
        assert verify_tower_containments(gs, chain, tilde_bases(gs, chain.maps, gs.r))


def test_a1_family_single_arrow():
    for m in range(6):
        d = diagram_for("A1", (1,), (m,))
        assert [len(col) for col in d.columns] == [1, 1]
        assert len(d.arrows) == 1
        a = d.arrows[0]
        assert (a.level, a.source, a.target) == (0, 0, 0)
        assert a.order == m + 1
        assert d.columns[0][0].label == (m,)
        assert d.columns[1][0].label == (-m - 2,)
        assert all(d.verify.values())
        assert not d.partial


def test_borel_a2_hexagon_orders():
    d = diagram_for("A2", (1, 2), (1, 1))
    assert [len(c) for c in d.columns] == [1, 2, 2, 1]
    orders = sorted((a.level, a.order) for a in d.arrows)
    assert orders == [(0, 2), (0, 2), (1, 4), (1, 4), (1, 4), (1, 4), (2, 2), (2, 2)]
    assert all(d.verify.values())


def test_g2_contact_chain_orders():
    d = diagram_for("G2", (1,), (0, 0))
    assert [len(c) for c in d.columns] == [1] * 6
    assert [a.order for a in sorted(d.arrows, key=lambda a: a.level)] == [1, 3, 2, 3, 1]
    assert [c[0].dim for c in d.columns] == [1, 2, 3, 3, 2, 1]
    assert all(d.verify.values())


def test_b2_conformal_trivial_is_de_rham():
    d = diagram_for("B2", (1,), (0, 0))
    assert [c[0].dim for c in d.columns] == [1, 3, 3, 1]
    assert [a.order for a in sorted(d.arrows, key=lambda a: a.level)] == [1, 1, 1]


def test_grassmannian_trivial_diamond():
    d = diagram_for("A3", (2,), (0, 0, 0))
    assert [len(c) for c in d.columns] == [1, 1, 2, 1, 1]
    assert [c.dim for col in d.columns for c in col] == [1, 4, 3, 3, 4, 1]
    assert sorted((a.level, a.source, a.target, a.order) for a in d.arrows) == [
        (0, 0, 0, 1),
        (1, 0, 0, 1),
        (1, 0, 1, 1),
        (2, 0, 0, 1),
        (2, 1, 0, 1),
        (3, 0, 0, 1),
    ]


def test_a2_projective_orders():
    d = diagram_for("A2", (1,), (1, 0))
    assert [len(c) for c in d.columns] == [1, 1, 1]
    assert [c[0].dim for c in d.columns] == [1, 3, 2]
    assert [a.order for a in sorted(d.arrows, key=lambda a: a.level)] == [2, 1]


@pytest.mark.parametrize("label,sigma,weight", [(l, s, w) for l, s, ws in BATTERY for w in ws])
def test_arrows_come_out_in_report_order(label, sigma, weight):
    """The diagram holds its arrows by level, then source, then target, the
    order the reports print them in without sorting."""
    keys = [(a.level, a.source, a.target) for a in diagram_for(label, sigma, weight).arrows]
    assert keys == sorted(set(keys))


def test_operator_order_api():
    _, _, comps = components_for("A2", (1, 2), (1, 1))
    assert operator_order(comps[0][0], comps[1][0]) == 2


def test_non_integral_order_raises_under_python_O():
    # the order certificate is an explicit check, so -O keeps it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from artifact.bggcore import _as_int\n"
        "from artifact.certify import CertificationFailure\n"
        "if sys.flags.optimize < 1: sys.exit(3)\n"
        "if _as_int(Fraction(4, 2)) != 2: sys.exit(5)\n"
        "try:\n"
        "    _as_int(Fraction(3, 2))\n"
        "except CertificationFailure:\n"
        "    sys.exit(0)\n"
        "sys.exit(4)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)


def test_lift_top_block_refuses_rows_outside_the_block():
    gs = next(gs for gs in submodules_for("A2", (1,), (1, 1)) if gs.r >= 1)
    top = gs.block_columns(1)
    below = gs.block_columns(0)
    x = SpMat.from_columns(gs.module.dim, [{top[0]: 1}, {top[-1]: 2}])
    y = gs.lift_top_block(1, x)
    # box^{-1} on the block rows, placed back at those rows of E/E^2
    assert (y.nrows, y.ncols) == (gs.quotient(2).dim, 2)
    expect = gs.box_inverse(1) @ x.submatrix(top, [0, 1])
    assert y.submatrix(top, [0, 1]) == expect
    assert y.submatrix(below, [0, 1]).is_zero()
    escaped = bumped(x, below[0], 0)
    assert gs.lift_top_block(1, escaped) is None


def test_bgg_operator_fields():
    cc, cohs, comps = components_for("A2", (1,), (1, 0))
    gs = generate_submodule(cc, cohs[0], comps[0][0])
    chain = compose_splitter(gs)
    op = bgg_operator(gs, chain, cohs[1], comps[1], source_index=0)
    assert op.in_kernel
    assert len(op.arrows) == 1
    assert op.arrows[0].order == 2
    blk = op.arrows[0].block
    assert blk.nrows == comps[1][0].dim
    assert not blk.is_zero()


def test_bgg_operator_budget():
    # the diagram decides the jet budget once: source (0,0) of A2 {1} (1,0)
    # has r = 1 and dim Jbar^2 = 7, so it is partial at 6 and has its
    # order-2 arrow at 7
    g = graded("A2", (1,))
    cc, cohs, comps = components_for("A2", (1,), (1, 0))
    gs = generate_submodule(cc, cohs[0], comps[0][0])
    assert (gs.r, jbar_dim(len(g.pplus_roots), gs.quotient(1).dim, 2)) == (1, 7)
    under = build_bgg_diagram(g, (1, 0), max_jet_dim=6)
    assert (0, 0) in under.partial
    assert not [a for a in under.arrows if (a.level, a.source) == (0, 0)]
    at = build_bgg_diagram(g, (1, 0), max_jet_dim=7)
    assert (0, 0) not in at.partial
    assert [(a.target, a.order) for a in at.arrows if (a.level, a.source) == (0, 0)] == [(0, 2)]


def test_diagram_rejects_nondominant():
    g = graded("A2", (1,))
    with pytest.raises(ValueError):
        build_bgg_diagram(g, (-1, 0))


def test_diagram_budget_partial():
    g = graded("A2", (1, 2))
    d = build_bgg_diagram(g, (1, 1), max_jet_dim=40)
    assert d.partial  # arrows skipped, columns still complete
    assert [len(c) for c in d.columns] == [1, 2, 2, 1]
    skipped = set(d.partial)
    for a in d.arrows:
        assert (a.level, a.source) not in skipped
