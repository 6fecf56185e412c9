"""Splitting operators, tilde towers, operator diagrams."""

import os
import subprocess
import sys

import pytest

from artifact.bggcore import (
    NonAdjacentLevels,
    bgg_operator,
    build_bgg_diagram,
    build_Li,
    compose_splitter,
    generate_submodule,
    operator_order,
    verify_splitter_defect,
    verify_splitter_projection,
)
from artifact.certify import tilde_jet_submodule, twisted_d_hom, verify_tower_containments
from artifact.jetcalc import MAX_JET_DIM, check_equivariance, jbar_dim, jet1_map_matrix
from artifact.linalg import SpMat
from conftest import components_for, diagram_for, graded
from jet_reference import reference_splitter

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
            yield generate_submodule(cc, cohs[n], comp)


@pytest.mark.parametrize("label,sigma,weight", SPLITTER_CASES)
def test_generated_submodule_certified(label, sigma, weight):
    cc, _, _ = components_for(label, sigma, weight)
    for gs in submodules_for(label, sigma, weight):
        level = cc.levels[gs.n]
        res = check_equivariance(gs.basis, gs.module, level)
        assert res.ok
        if gs.n >= 1:
            assert (cc.delstars[gs.n - 1] @ gs.basis).is_zero()
        # degree filtration starts at the harmonic degree and is exhaustive
        assert gs.offsets[0] == 0
        assert gs.quotient(gs.r + 1).dim == gs.module.dim
        for i in range(1, gs.r + 1):
            assert gs.box_inverse(i) is not None


@pytest.mark.parametrize("label,sigma,weight", SPLITTER_CASES)
def test_Li_projection_and_defect(label, sigma, weight):
    for gs in submodules_for(label, sigma, weight):
        chain = compose_splitter(gs)
        assert chain.certificate.ok
        assert verify_splitter_projection(gs, chain)
        assert verify_splitter_defect(gs, chain)


@pytest.mark.parametrize(
    "label,sigma,weight", SPLITTER_CASES + [("A3", (1, 3), (1, 0, 0))]
)
def test_splitter_matches_stagewise_reference(label, sigma, weight):
    d = len(graded(label, sigma).pplus_roots())
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
    # in the semi-holonomic composite (chain.certificate above).
    from artifact.jetcalc import jet1

    seen_defect = False
    for gs in submodules_for("G2", (1,), (0, 0)):
        for i in range(1, gs.r + 1):
            lm = build_Li(gs, i)
            res = check_equivariance(
                lm.mat, jet1(gs.quotient(i)), gs.quotient(i + 1)
            )
            if i == 1:
                assert res.ok, (gs.n, i)
            else:
                assert not res.ok, (gs.n, i)
                seen_defect = True
    assert seen_defect


def test_twisted_d_hom_certified():
    cc, _, _ = components_for("A2", (1,), (1, 0))
    for n in range(cc.top):
        assert twisted_d_hom(cc, n).ok


@pytest.mark.parametrize(
    "label,sigma,weight",
    [("A1", (1,), (2,)), ("A2", (1, 2), (1, 1)), ("G2", (1,), (0, 0))],
)
def test_tilde_submodules(label, sigma, weight):
    g = graded(label, sigma)
    for gs in submodules_for(label, sigma, weight):
        chain = compose_splitter(gs)
        for i in range(gs.r + 1):
            T = tilde_jet_submodule(gs, i, chain.maps)
            res = check_equivariance(T.basis, T.module, T.ambient)
            assert res.ok, (gs.n, i)
            if i >= 1:
                # defining equations of the constrained jet space
                d = len(g.pplus_roots())
                qn, qn1 = gs.quotient(i), gs.quotient(i + 1)
                proj = SpMat(qn.dim, qn1.dim)
                for k in range(qn.dim):
                    proj.set(k, k, 1)
                jp = jet1_map_matrix(g, proj)
                foot = SpMat(qn1.dim, (1 + d) * qn1.dim)
                for k in range(qn1.dim):
                    foot.set(k, k, 1)
                lhs = (chain.maps[i - 1].mat @ jp - foot) @ T.basis
                assert lhs.is_zero(), (gs.n, i)


@pytest.mark.parametrize("label,sigma,weight", SPLITTER_CASES)
def test_tower_containments(label, sigma, weight):
    for gs in submodules_for(label, sigma, weight):
        chain = compose_splitter(gs)
        assert verify_tower_containments(gs, chain)


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


def test_operator_order_api():
    _, _, comps = components_for("A2", (1, 2), (1, 1))
    assert operator_order(0, comps[0][0], 1, comps[1][0]) == 2
    with pytest.raises(NonAdjacentLevels):
        operator_order(0, comps[0][0], 2, comps[2][0])


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
    escaped = x + SpMat.from_columns(gs.module.dim, [{below[0]: 1}, {}])
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
    assert blk.nrows == comps[1][0].dim * comps[1][0].multiplicity
    assert not blk.is_zero()


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
