"""Graded Lie algebra structure: brackets, Killing form, grading element."""

import pytest

from artifact.linalg import Q
from conftest import graded


def vec(g, label):
    return {label: Q(1)}


def add_vec(v1, v2):
    out = dict(v1)
    for k, c in v2.items():
        s = out.get(k, Q(0)) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def scale_vec(v, c):
    return {k: c * x for k, x in v.items() if c * x}


@pytest.mark.parametrize("label,sigma", [("A2", (1,)), ("B2", (1,))])
def test_jacobi_identity_full_basis(label, sigma):
    g = graded(label, sigma)
    vs = [vec(g, l) for l in g.basis]
    for x in vs:
        for y in vs:
            for z in vs:
                lhs = g.bracket_vec(x, g.bracket_vec(y, z))
                lhs = add_vec(lhs, g.bracket_vec(y, g.bracket_vec(z, x)))
                lhs = add_vec(lhs, g.bracket_vec(z, g.bracket_vec(x, y)))
                assert not lhs


def test_antisymmetry():
    g = graded("A2", (1, 2))
    for l1 in g.basis:
        for l2 in g.basis:
            b12 = g.bracket_labels(l1, l2)
            b21 = g.bracket_labels(l2, l1)
            assert b12 == {k: -c for k, c in b21.items()}
        assert not g.bracket_labels(l1, l1)


def test_bracket_respects_grading():
    g = graded("A3", (1, 3))
    for l1 in g.basis:
        for l2 in g.basis:
            s = g.grade_of(l1) + g.grade_of(l2)
            for k in g.bracket_labels(l1, l2):
                assert g.grade_of(k) == s


def test_killing_form_is_trace_form():
    g = graded("A1", (1,))
    ads = {l: g.adjoint_matrix(l) for l in g.basis}
    K = g.killing_form()
    for i, l1 in enumerate(g.basis):
        for j, l2 in enumerate(g.basis):
            tr = sum(
                (ads[l1] @ ads[l2]).get(k, k) for k in range(g.dim)
            )
            assert K.get(i, j) == tr
    # sl2 normalizations
    ih = g.index[("h", 0)]
    ie = g.index[("e", (1,))]
    iff = g.index[("f", (1,))]
    assert K.get(ih, ih) == 8
    assert K.get(ie, iff) == 4


def test_killing_form_invariance():
    g = graded("A2", (1,))
    K = g.killing_form()

    def pair(v1, v2):
        return sum(
            c1 * c2 * K.get(g.index[l1], g.index[l2])
            for l1, c1 in v1.items()
            for l2, c2 in v2.items()
        )

    for lx in g.basis:
        for ly in g.basis:
            for lz in g.basis:
                x, y, z = vec(g, lx), vec(g, ly), vec(g, lz)
                assert pair(g.bracket_vec(x, y), z) + pair(
                    y, g.bracket_vec(x, z)
                ) == 0


def test_grading_element_eigenvalues():
    for label, sigma in [("A2", (1,)), ("A3", (1, 3)), ("G2", (1,)), ("B2", (1,))]:
        g = graded(label, sigma)
        E = g.grading_element()
        for l in g.basis:
            br = g.bracket_vec(E, vec(g, l))
            expect = scale_vec(vec(g, l), Q(g.grade_of(l)))
            assert br == expect


def test_dual_bases_pairing():
    g = graded("B2", (1,))
    K = g.killing_form()
    dual = g.dual_bases()
    for a, ra in enumerate(dual.roots):
        for b, rb in enumerate(dual.roots):
            # B(eta_a, xi_b) = B(e_{ra}, f_{rb}) / d_b
            val = K.get(g.index[("e", ra)], g.index[("f", rb)]) / dual.d[b]
            assert val == (1 if a == b else 0)


def test_adjoint_matrix_matches_bracket():
    g = graded("A2", (1, 2))
    for l in g.basis:
        ad = g.adjoint_matrix(l)
        for j, l2 in enumerate(g.basis):
            br = g.bracket_labels(l, l2)
            col = {g.index[k]: c for k, c in br.items()}
            assert {i: ad.get(i, j) for i in range(g.dim) if ad.get(i, j)} == col


def test_p_labels_partition():
    g = graded("A3", (2,))
    p = g.p_labels()
    assert len(set(p)) == len(p)
    assert all(g.grade_of(l) >= 0 for l in p)
    n_nonneg = sum(1 for l in g.basis if g.grade_of(l) >= 0)
    assert len(p) == n_nonneg
    assert len(g.pplus_roots()) == sum(1 for l in p if g.grade_of(l) > 0)
