"""Root systems, Weyl groups, parabolic data."""

import pytest

from artifact.rootspace import (
    NotFiniteType,
    affine_dot_action,
    build_root_system,
    cartan_matrix_from_series,
    dominant_representative,
    dominant_representative_for,
    enumerate_weyl,
    grading_depth,
    identity_weyl,
    parabolic,
    parabolic_hasse,
    simple_reflection,
    weyl_dimension,
)

from conftest import graded


def test_cartan_matrices():
    assert cartan_matrix_from_series("A2") == [[2, -1], [-1, 2]]
    assert cartan_matrix_from_series("B2") == [[2, -1], [-2, 2]]
    assert cartan_matrix_from_series("G2") == [[2, -3], [-1, 2]]
    C = cartan_matrix_from_series("A3")
    assert C == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def test_rejects_non_finite_labels():
    for bad in ["A0", "E9", "Z3", "C1x"]:
        with pytest.raises(NotFiniteType):
            build_root_system(bad)


@pytest.mark.parametrize(
    "label,npos,worder,adjdim",
    [("A1", 1, 2, 3), ("A2", 3, 6, 8), ("A3", 6, 24, 15),
     ("B2", 4, 8, 10), ("G2", 6, 12, 14)],
)
def test_counts_and_adjoint_dim(label, npos, worder, adjdim):
    rs = build_root_system(label)
    assert len(rs.pos_roots) == npos
    W = enumerate_weyl(rs)
    assert len(W) == worder
    assert max(w.length for w in W) == npos
    assert weyl_dimension(rs, rs.root_to_weight(rs.highest_root)) == adjdim


def test_positive_roots_sorted_by_height():
    rs = build_root_system("G2")
    hts = [sum(r) for r in rs.pos_roots]
    assert hts == sorted(hts)
    assert rs.pos_roots[-1] == rs.highest_root
    assert all(rs.is_root(r) and rs.is_positive(r) for r in rs.pos_roots)


def test_rho_is_all_ones():
    for label in ["A2", "B2", "G2"]:
        assert build_root_system(label).rho == (1,) * build_root_system(label).rank


def test_reflections():
    rs = build_root_system("B2")
    lam = (3, -2)
    for i in range(rs.rank):
        assert rs.reflect_weight(i, rs.reflect_weight(i, lam)) == lam
        # s_i permutes the positive roots other than alpha_i
        alpha = tuple(1 if j == i else 0 for j in range(rs.rank))
        others = [r for r in rs.pos_roots if r != alpha]
        imgs = [rs.reflect_root(i, r) for r in others]
        assert sorted(imgs) == sorted(others)
        assert rs.reflect_root(i, alpha) == tuple(-c for c in alpha)


def weyl_inverse(w):
    """w^{-1} = s_{i_k}...s_{i_1} for w = s_{i_1}...s_{i_k}: the reference
    the package's tests of W^p compare with."""
    out = identity_weyl(w.rs)
    for i in reversed(w.word):
        out = out.mul_simple_right(i)
    return out


def test_weyl_words_and_inverses():
    rs = build_root_system("A2")
    for w in enumerate_weyl(rs):
        assert w.length == w.inversion_count()
        winv = weyl_inverse(w)
        lam = (2, 5)
        assert winv.act_weight(w.act_weight(lam)) == lam


def test_weyl_dimension_pins():
    rsA1 = build_root_system("A1")
    for m in range(7):
        assert weyl_dimension(rsA1, (m,)) == m + 1
    rsA2 = build_root_system("A2")
    assert weyl_dimension(rsA2, (1, 0)) == 3
    assert weyl_dimension(rsA2, (1, 1)) == 8
    assert weyl_dimension(rsA2, (3, 0)) == 10
    rsB2 = build_root_system("B2")
    assert weyl_dimension(rsB2, (1, 0)) == 5
    assert weyl_dimension(rsB2, (0, 1)) == 4
    assert weyl_dimension(rsB2, (0, 2)) == 10
    rsG2 = build_root_system("G2")
    assert weyl_dimension(rsG2, (1, 0)) == 7
    assert weyl_dimension(rsG2, (0, 1)) == 14
    rsA3 = build_root_system("A3")
    assert weyl_dimension(rsA3, (0, 1, 0)) == 6
    assert weyl_dimension(rsA3, (1, 0, 1)) == 15


@pytest.mark.parametrize(
    "label,sigma,sizes,depth",
    [
        ("A1", (1,), [1, 1], 1),
        ("A2", (1,), [1, 1, 1], 1),
        ("A2", (1, 2), [1, 2, 2, 1], 2),
        ("A3", (1, 3), [1, 2, 3, 3, 2, 1], 2),
        ("A3", (2,), [1, 1, 2, 1, 1], 1),
        ("B2", (1,), [1, 1, 1, 1], 1),
        ("G2", (1,), [1, 1, 1, 1, 1, 1], 3),
    ],
)
def test_hasse_levels_and_depth(label, sigma, sizes, depth):
    p = parabolic(build_root_system(label), set(sigma))
    levels = parabolic_hasse(p)
    assert [len(l) for l in levels] == sizes
    assert grading_depth(p) == depth
    for n, lvl in enumerate(levels):
        for w in lvl:
            assert w.length == n


def test_hasse_elements_are_minimal_coset_reps():
    p = parabolic(build_root_system("A3"), {1, 3})
    for lvl in parabolic_hasse(p):
        for w in lvl:
            winv = weyl_inverse(w)
            for j in p.uncrossed:
                alpha = tuple(
                    1 if k == j - 1 else 0 for k in range(p.rs.rank)
                )
                assert p.rs.is_positive(winv.act_root(alpha))


def _hasse_by_inverse(p):
    """W^p by its definition, w^{-1}(alpha_j) > 0 for every uncrossed j, with
    the inverse built (``weyl_inverse``): the words of each length, sorted."""
    levels = {}
    for w in enumerate_weyl(p.rs):
        winv = weyl_inverse(w)
        if all(
            p.rs.is_positive(winv.act_root(tuple(int(k == j - 1) for k in range(p.rs.rank))))
            for j in p.uncrossed
        ):
            levels.setdefault(w.length, []).append(w.word)
    return [sorted(levels[n]) for n in range(len(levels))]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"])
def test_hasse_matches_the_inverse_definition(label):
    rs = build_root_system(label)
    for mask in range(2 ** rs.rank):
        sigma = {i + 1 for i in range(rs.rank) if mask >> i & 1}
        p = parabolic(rs, sigma)
        got = [[w.word for w in lvl] for lvl in parabolic_hasse(p)]
        assert got == _hasse_by_inverse(p), sigma


def test_affine_dot_action():
    rs = build_root_system("A2")
    lam = (1, 0)
    assert affine_dot_action(identity_weyl(rs), lam) == lam
    s1 = simple_reflection(rs, 1)
    # s_i . lam = lam - (lam_i + 1) alpha_i in fundamental coordinates
    alpha1 = rs.root_to_weight((1, 0))
    expect = tuple(lam[j] - (lam[0] + 1) * alpha1[j] for j in range(2))
    assert affine_dot_action(s1, lam) == expect == (-3, 2)


def test_dominant_representative_linear_orbit():
    rs = build_root_system("B2")
    lam = (-3, 1)
    dom = dominant_representative(rs, lam)
    assert all(x >= 0 for x in dom)
    orbit = {w.act_weight(lam) for w in enumerate_weyl(rs)}
    assert dom in orbit
    # already-dominant weights are fixed
    assert dominant_representative(rs, (2, 0)) == (2, 0)


def test_dominant_representative_for_subgroup():
    rs = build_root_system("A3")
    # representative dominant only on the requested nodes
    lam = (5, -1, -2)
    dom = dominant_representative_for(rs, (2,), lam)
    assert dom[1] >= 0


def test_grading_element_pairs_with_sigma_height():
    g = graded("A3", (1, 3))
    E = g.grading_element()
    for r in g.pplus_roots():
        mu = g.rs.root_to_weight(r)
        val = sum(E.get(("h", j), 0) * mu[j] for j in range(g.rs.rank))
        assert val == r[0] + r[2]  # height over the crossed nodes
