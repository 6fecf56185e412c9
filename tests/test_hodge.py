"""Cochain complexes, Hodge splits, harmonic cohomology."""

import pytest

from artifact.hodge import (
    DegreeOverflow,
    hodge_decompose,
    kostant_oracle,
    laplacian,
    wedge_insert_matrix,
)
from artifact.linalg import Q, SpMat
from conftest import (
    GOLDEN_DIMS,
    complex_for,
    complex_for_module,
    components_for,
    graded,
)

CASES = [
    ("A1", (1,), (3,)),
    ("A2", (1,), (1, 0)),
    ("A2", (1, 2), (0, 0)),
    ("B2", (1,), (0, 1)),
    ("A3", (2,), (1, 0, 0)),
]


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_nilpotency_and_adjointness(label, sigma, weight):
    cc = complex_for(label, sigma, weight)
    for n in range(cc.top - 1):
        assert (cc.dels[n + 1] @ cc.dels[n]).is_zero()
        assert (cc.delstars[n] @ cc.delstars[n + 1]).is_zero()
    for n in range(cc.top):
        lhs = cc.delstars[n].transpose() @ cc.inner[n]
        rhs = cc.inner[n + 1] @ cc.dels[n]
        assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("key", sorted(GOLDEN_DIMS))
def test_golden_dimensions(key):
    label, sigma, lam_mod = key
    chain, harm = GOLDEN_DIMS[key]
    cc = complex_for_module(label, sigma, lam_mod)
    assert [cc.dim(n) for n in range(cc.top + 1)] == chain
    got = [hodge_decompose(cc, n).ker_box.ncols for n in range(cc.top + 1)]
    assert got == harm


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_hodge_counting_identity(label, sigma, weight):
    cc = complex_for(label, sigma, weight)
    for n in range(cc.top + 1):
        sp = hodge_decompose(cc, n)
        rank_prev = cc.dels[n - 1].rank() if n >= 1 else 0
        rank_next = cc.delstars[n].rank() if n < cc.top else 0
        assert sp.im_del.ncols == rank_prev
        assert sp.im_delstar.ncols == rank_next
        assert rank_prev + sp.ker_box.ncols + rank_next == cc.dim(n)


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_harmonic_is_joint_kernel(label, sigma, weight):
    cc = complex_for(label, sigma, weight)
    for n in range(cc.top + 1):
        sp = hodge_decompose(cc, n)
        K = sp.ker_box
        rows = []
        if n < cc.top:
            rows.append(cc.dels[n])
            assert (cc.dels[n] @ K).is_zero()
        if n >= 1:
            rows.append(cc.delstars[n - 1])
            assert (cc.delstars[n - 1] @ K).is_zero()
        joint = SpMat.vstack(rows) if rows else SpMat(cc.dim(n), cc.dim(n))
        assert joint.kernel_basis().ncols == K.ncols


def test_laplacian_selfadjoint_and_weight_diagonal():
    cc = complex_for("B2", (1,), (0, 1))
    for n in range(cc.top + 1):
        box = laplacian(cc, n)
        gb = cc.inner[n] @ box
        assert (gb - gb.transpose()).is_zero()
        ws = cc.levels[n].weights
        for r, c, _ in box.entries():
            assert ws[r] == ws[c]


def test_borel_sl3_normalization_pins():
    # regression pins for the chosen dual-basis normalization
    cc = complex_for("A2", (1, 2), (0, 0))
    assert cc.wedge_tuples[1] == [(0,), (1,), (2,)]
    assert cc.wedge_tuples[2] == [(0, 1), (0, 2), (1, 2)]
    # theta = alpha_1 + alpha_2 sits at slot 2
    assert cc.dels[1].col_dict(2) == {0: Q(-1, 3)}
    assert cc.delstars[1].col_dict(0) == {2: Q(1)}


def test_sl2_box_pins():
    cc = complex_for("A1", (1,), (1,))
    assert laplacian(cc, 0).to_dense() == [[Q(-1, 4), 0], [0, 0]]
    assert laplacian(cc, 1).to_dense() == [[0, 0], [0, Q(-1, 4)]]


def test_cohomology_module_structure():
    _, cohs, _ = components_for("A2", (1,), (1, 1))
    cc = complex_for("A2", (1,), (1, 1))
    for coh in cohs:
        mod = coh.module
        K = coh.embedding
        for l in cc.g.p_labels():
            if cc.g.grade_of(l) > 0:
                assert mod.actions[l].is_zero()
            else:
                # embedding intertwines the level action with the quotient
                assert (cc.levels[coh.n].actions[l] @ K - K @ mod.actions[l]).is_zero()
        assert mod.weights == coh.split.harmonic_weights


@pytest.mark.parametrize(
    "label,sigma,weight",
    [("A2", (1,), (1, 0)), ("B2", (1,), (0, 1)), ("A3", (1, 3), (0, 0, 0))],
)
def test_kostant_oracle_matches_harmonics(label, sigma, weight):
    from artifact.rootspace import dominant_representative

    g = graded(label, sigma)
    cc, cohs, comps = components_for(label, sigma, weight)
    lam_mod = dominant_representative(g.rs, tuple(-x for x in weight))
    predicted = kostant_oracle(g, lam_mod)
    assert len(predicted) == cc.top + 1
    for n in range(cc.top + 1):
        got = sorted(c.label for c in comps[n])
        assert got == list(predicted[n])
        assert all(c.multiplicity == 1 for c in comps[n])


def test_wedge_insert_anticommutes():
    cc = complex_for("B2", (1,), (0, 0))
    d = len(cc.g.pplus_roots())
    for a in range(d):
        for b in range(d):
            Wa0 = wedge_insert_matrix(cc, 0, {a: Q(1)})
            Wb0 = wedge_insert_matrix(cc, 0, {b: Q(1)})
            Wa1 = wedge_insert_matrix(cc, 1, {a: Q(1)})
            Wb1 = wedge_insert_matrix(cc, 1, {b: Q(1)})
            assert (Wa1 @ Wb0 + Wb1 @ Wa0).is_zero()


def test_wedge_overflow():
    cc = complex_for("A1", (1,), (0,))
    with pytest.raises(DegreeOverflow):
        wedge_insert_matrix(cc, cc.top, {0: Q(1)})
