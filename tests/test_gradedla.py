"""Graded Lie algebra structure: brackets, Killing form, grading element."""

import pytest

from artifact import gradedla
from artifact.bggcli import main
from artifact.linalg import Q
from artifact.rootspace import sigma_height
from conftest import BATTERY, graded
from gradedla_reference import adjoint_matrix, bracket_vec, killing_form, trace


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
                lhs = bracket_vec(g, x, bracket_vec(g, y, z))
                lhs = add_vec(lhs, bracket_vec(g, y, bracket_vec(g, z, x)))
                lhs = add_vec(lhs, bracket_vec(g, z, bracket_vec(g, x, y)))
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
    ads = {l: adjoint_matrix(g, l) for l in g.basis}
    K = killing_form(g)
    for i, l1 in enumerate(g.basis):
        for j, l2 in enumerate(g.basis):
            assert K.get(i, j) == trace(ads[l1] @ ads[l2])
    # sl2 normalizations
    ih = g.index[("h", 0)]
    ie = g.index[("e", (1,))]
    iff = g.index[("f", (1,))]
    assert K.get(ih, ih) == 8
    assert K.get(ie, iff) == 4
    # the pipeline's pairing of each root is the same trace, and an int
    for label in ("A1", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "E6", "G2",
                  "F4"):
        g = graded(label, (1,))
        for r in g.rs.pos_roots:
            tr = trace(adjoint_matrix(g, ("e", r)) @ adjoint_matrix(g, ("f", r)))
            got = g.killing_pairing(r)
            assert (got, type(got)) == (tr, int), (label, r)


def test_killing_form_invariance():
    g = graded("A2", (1,))
    K = killing_form(g)

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
                assert pair(bracket_vec(g, x, y), z) + pair(
                    y, bracket_vec(g, x, z)
                ) == 0


def test_grading_element_eigenvalues():
    for label, sigma in [("A2", (1,)), ("A3", (1, 3)), ("G2", (1,)), ("B2", (1,))]:
        g = graded(label, sigma)
        E = g.grading_element
        for l in g.basis:
            br = bracket_vec(g, E, vec(g, l))
            expect = scale_vec(vec(g, l), Q(g.grade_of(l)))
            assert br == expect


@pytest.mark.parametrize("label,sigma", [
    ("A1", (1,)), ("A3", (2,)), ("B3", (1,)), ("C3", (2,)), ("G2", (1, 2)), ("D4", (1, 3)),
])
def test_e_eigenvalue_is_the_pairing_with_e(label, sigma):
    """mu(E) summed over E's coordinates as Q, on a box of weights; the
    integer path returns an int exactly when the value is integral."""
    g = graded(label, sigma)
    E = g.grading_element
    rank = g.rs.rank
    for k in range(3 ** rank):
        mu = tuple((k // 3 ** j) % 3 - 1 for j in range(rank))
        want = sum((E.get(("h", j), Q(0)) * mu[j] for j in range(rank)), Q(0))
        got = g.e_eigenvalue(mu)
        assert got == want, mu
        assert (type(got) is int) == (want.denominator == 1), mu


# h^vee of each type, as tabulated in Kac, Infinite-dimensional Lie algebras, 6.1
DUAL_COXETER = {
    "A1": 2, "A2": 3, "A3": 4, "A4": 5, "A5": 6, "A6": 7, "A7": 8, "A8": 9,
    "B2": 3, "B3": 5, "B4": 7, "B5": 9, "B6": 11, "B7": 13, "B8": 15,
    "C2": 3, "C3": 4, "C4": 5, "C5": 6, "C6": 7, "C7": 8, "C8": 9,
    "D4": 6, "D5": 8, "D6": 10, "D7": 12, "D8": 14,
    "E6": 12, "E7": 18, "E8": 30, "F4": 9, "G2": 4,
}


def test_dual_bases_pairing():
    # Re-pinned when the pairing moved from B to (x|y) = B(x, y) / 2h^vee:
    # (eta_a|xi_b) = B(e_{ra}, f_{rb}) / (2h^vee d_b) is the Kronecker delta.
    for label in ("B2", "G2", "A3"):
        g = graded(label, (1,))
        K = killing_form(g)
        two_hv = 2 * DUAL_COXETER[label]
        for a, ra in enumerate(g.pplus_roots):
            for b, rb in enumerate(g.pplus_roots):
                val = Q(K.get(g.index[("e", ra)], g.index[("f", rb)]), two_hv * g.pairing_d[b])
                assert val == (1 if a == b else 0), (label, ra, rb)


@pytest.mark.parametrize("label", sorted(DUAL_COXETER))
def test_pairing_is_normalised_by_the_long_root(label):
    """B(e_r, f_r) = 2h^vee on every long root r, and d_r = B(e_r, f_r) / 2h^vee
    is 1 on long roots, 2 on the short roots of B, C and F and 3 on those
    of G2; p_+ is every positive root, since every node is crossed."""
    g = graded(label, tuple(range(1, int(label[1:]) + 1)))
    rs = g.rs
    assert g.pplus_roots == rs.pos_roots
    long2 = max(rs.ip_root_root(r, r) for r in rs.pos_roots)
    short_d = {"B": 2, "C": 2, "F": 2, "G": 3}.get(label[0], 1)
    for r, d in zip(g.pplus_roots, g.pairing_d):
        if rs.ip_root_root(r, r) == long2:
            assert (g.killing_pairing(r), d) == (2 * DUAL_COXETER[label], 1), r
        else:
            assert d == short_d, r
    assert set(g.pairing_d) == {1, short_d}


def test_pairing_refuses_a_pairing_the_long_root_does_not_divide(monkeypatch):
    """An explicit check, kept under python -O: a Killing pairing of p_+
    that 2h^vee does not divide raises AlgebraNotCertified."""
    g = gradedla.build_graded_algebra(graded("A3", (1, 3)).par)
    top = g.rs.pos_roots[-1]
    raw = gradedla.GradedLieAlgebra.killing_pairing
    monkeypatch.setattr(gradedla.GradedLieAlgebra, "killing_pairing",
                        lambda self, r: raw(self, r) + (r != top))
    with pytest.raises(gradedla.AlgebraNotCertified, match="does not divide"):
        g.pairing_d


def test_adjoint_matrix_matches_bracket():
    g = graded("A2", (1, 2))
    for l in g.basis:
        ad = adjoint_matrix(g, l)
        for j, l2 in enumerate(g.basis):
            br = g.bracket_labels(l, l2)
            col = {g.index[k]: c for k, c in br.items()}
            assert {i: ad.get(i, j) for i in range(g.dim) if ad.get(i, j)} == col


def test_p_labels_partition():
    g = graded("A3", (2,))
    p = g.p_labels
    assert len(set(p)) == len(p)
    assert all(g.grade_of(l) >= 0 for l in p)
    n_nonneg = sum(1 for l in g.basis if g.grade_of(l) >= 0)
    assert len(p) == n_nonneg
    assert len(g.pplus_roots) == sum(1 for l in p if g.grade_of(l) > 0)


@pytest.mark.parametrize("label,sigma", [
    ("A3", (1, 3)), ("B3", (1,)), ("C3", (2,)), ("D4", (2,)), ("E6", (1,)), ("F4", (4,)),
    ("G2", (1, 2)),
])
def test_structure_constants_are_exact(label, sigma):
    # the root lengths are ints (test_rootspace), and every quotient of
    # them must stay exact: an int divided by an int with / is a float
    g = graded(label, sigma)
    exact = (int, Q)
    assert all(type(c) is int for r in g.rs.pos_roots for c in g.coroot_coeffs(r).values())
    roots = [(kind, r) for kind in "ef" for r in g.rs.pos_roots]
    assert all(type(v) in exact for l1 in roots for l2 in roots
               for v in g.bracket_labels(l1, l2).values())
    for lab in g.p_labels:
        assert all(type(c) in exact for _, _, c in g.xi_brackets[lab])
    for m in g.pplus_action.values():
        assert all(type(v) in exact for _, _, v in m.entries())


@pytest.mark.parametrize("label,sigma", sorted({(l, s) for l, s, _ in BATTERY}
                                                | {("G2", (1,)), ("A4", (2,))}))
def test_gminus_brackets_are_minus_the_pplus_structure_constants(label, sigma):
    """[f_a, f_b] = -sum_m e^m_ab f_m for a < b, e^m_ab the entry (m, b) of
    ad e_a on p_+: the Chevalley involution the cochain differential relies
    on (`hodge.build_cochain_complex` reads no bracket of g_-)."""
    g = graded(label, sigma)
    roots = g.pplus_roots
    for a, ra in enumerate(roots):
        ad = g.pplus_action[("e", ra)]
        for b in range(a + 1, len(roots)):
            want = {("f", roots[m]): -c for m, bb, c in ad.entries() if bb == b}
            assert g.bracket_labels(("f", ra), ("f", roots[b])) == want, (a, b)


@pytest.mark.parametrize("label", ["A1", "A4", "B3", "C4", "D5", "E6", "F4", "G2"])
def test_table_keeps_only_positive_pairs_with_root_sum(label):
    """The one structure-constant table holds N_{r,s} on exactly the ordered
    pairs of positive roots whose sum is a root; every other pair is read
    through the sign rules."""
    g = graded(label, (1,))
    pos = g.rs.pos_roots
    want = {(r, s) for r in pos for s in pos if tuple(x + y for x, y in zip(r, s)) in pos}
    assert set(g.table.N) == want


def test_label_tuples_are_built_once_per_algebra():
    """``pplus_roots``, ``g0_labels`` and ``p_labels`` return one tuple per
    algebra, in the order their definitions give."""
    g = graded("B3", (2,))
    assert g.p_labels is g.p_labels
    assert g.g0_labels is g.g0_labels
    assert g.pplus_roots is g.pplus_roots
    level = {r: sigma_height(g.par, r) for r in g.rs.pos_roots}
    assert g.pplus_roots == tuple(r for r in g.rs.pos_roots if level[r] >= 1)
    g0 = [r for r in g.rs.pos_roots if level[r] == 0]
    assert g.g0_labels == (tuple(("h", i) for i in range(g.rs.rank))
                           + tuple(("e", r) for r in g0) + tuple(("f", r) for r in g0))
    assert g.p_labels == g.g0_labels + tuple(("e", r) for r in g.pplus_roots)


def test_one_run_reads_sigma_heights_once(monkeypatch, capsys):
    """A ``verify`` run with 34 sources asks for the Sigma-height of each
    root a bounded number of times (3486 calls when the label tuples were
    rebuilt on every call)."""
    calls = []
    height = gradedla.sigma_height

    def counted(par, r):
        calls.append(r)
        return height(par, r)

    monkeypatch.setattr(gradedla, "sigma_height", counted)
    assert main(["--algebra", "A3", "--cross", "1,2,3", "--weight", "0,0,0", "verify"]) == 0
    capsys.readouterr()
    assert 0 < len(calls) < 100
