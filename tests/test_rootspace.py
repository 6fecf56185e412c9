"""Root systems, Weyl groups, parabolic data."""

import random

import pytest

from artifact import rootspace
from artifact.rootspace import (
    NotFiniteType,
    WeylElt,
    _matmul_int,
    affine_dot_action,
    build_root_system,
    cartan_matrix_from_series,
    dominant_representative_for,
    identity_weyl,
    parabolic,
    parabolic_hasse,
    sigma_height,
    simple_reflection,
    weyl_dimension,
)

from conftest import BATTERY, graded
from rootspace_reference import (
    enumerate_weyl,
    leading_minors,
    reference_parabolic_hasse,
    reference_positive_roots,
)


def reflect_root(rs, i, c):
    """s_{i+1} acting on simple-root coordinates (0-based i)."""
    out = list(c)
    out[i] -= rs.coroot_pairing(i, c)
    return tuple(out)


def act_root(w, c):
    """w acting on simple-root coordinates: the simple reflections of its
    word, the last letter first."""
    for i in reversed(w.word):
        c = reflect_root(w.rs, i - 1, c)
    return c


def inversion_count(w):
    """The number of positive roots w sends negative."""
    return sum(1 for beta in w.rs.pos_roots if sum(act_root(w, beta)) < 0)


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


def test_symmetrizers_are_ints():
    assert build_root_system("G2").d == (1, 3)
    assert build_root_system("B3").d == (2, 2, 1)
    assert all(type(x) is int for x in build_root_system("F4").d)
    # d_0 C_01 = d_1 C_10 gives d = (3/2, 1): no finite type has that ratio
    with pytest.raises(NotFiniteType, match="not integral"):
        build_root_system([[2, -2], [-3, 2]])


@pytest.mark.parametrize("label,npos", [
    ("A3", 6), ("B4", 16), ("C5", 25), ("D6", 30), ("E6", 36), ("E7", 63), ("E8", 120),
    ("F4", 24), ("G2", 6), ("A30", 465),
])
def test_positive_roots_match_the_root_string_walk(label, npos):
    """Carrying each root's pairings and string lengths finds the roots the
    walk down every root string found, in the same (height, lex) order."""
    rs = build_root_system(label)
    assert rs.pos_roots == reference_positive_roots(rs.cartan)
    assert len(rs.pos_roots) == npos


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
    assert max(len(w.word) for w in W) == npos
    assert weyl_dimension(rs, rs.root_to_weight(rs.pos_roots[-1])) == adjdim


def test_positive_roots_sorted_by_height():
    rs = build_root_system("G2")
    hts = [sum(r) for r in rs.pos_roots]
    assert hts == sorted(hts)
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
        imgs = [reflect_root(rs, i, r) for r in others]
        assert sorted(imgs) == sorted(others)
        assert reflect_root(rs, i, alpha) == tuple(-c for c in alpha)


def weyl_inverse(w):
    """w^{-1} = s_{i_k}...s_{i_1} for w = s_{i_1}...s_{i_k}: the reference
    the package's tests of W^p compare with."""
    out = identity_weyl(w.rs)
    for i in reversed(w.word):
        s = simple_reflection(w.rs, i)
        out = WeylElt(rs=w.rs, word=out.word + (i,),
                      mat_weight=_matmul_int(out.mat_weight, s.mat_weight))
    return out


def test_weyl_words_and_inverses():
    rs = build_root_system("A2")
    for w in enumerate_weyl(rs):
        assert len(w.word) == inversion_count(w)
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
    assert max(sigma_height(p, r) for r in p.rs.pos_roots) == depth
    for n, lvl in enumerate(levels):
        for w in lvl:
            assert len(w.word) == n


def test_hasse_elements_are_minimal_coset_reps():
    p = parabolic(build_root_system("A3"), {1, 3})
    for lvl in parabolic_hasse(p):
        for w in lvl:
            winv = weyl_inverse(w)
            for j in p.uncrossed:
                alpha = tuple(
                    1 if k == j - 1 else 0 for k in range(p.rs.rank)
                )
                assert p.rs.is_positive(act_root(winv, alpha))


def _hasse_by_inverse(p):
    """W^p by its definition, w^{-1}(alpha_j) > 0 for every uncrossed j, with
    the inverse built (``weyl_inverse``): the words of each length, sorted."""
    levels = {}
    for w in enumerate_weyl(p.rs):
        winv = weyl_inverse(w)
        if all(
            p.rs.is_positive(act_root(winv, tuple(int(k == j - 1) for k in range(p.rs.rank))))
            for j in p.uncrossed
        ):
            levels.setdefault(len(w.word), []).append(w.word)
    return [sorted(levels[n]) for n in range(len(levels))]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"])
def test_hasse_matches_the_inverse_definition(label):
    rs = build_root_system(label)
    for mask in range(2 ** rs.rank):
        sigma = {i + 1 for i in range(rs.rank) if mask >> i & 1}
        p = parabolic(rs, sigma)
        got = [[w.word for w in lvl] for lvl in parabolic_hasse(p)]
        assert got == _hasse_by_inverse(p), sigma


HASSE_CASES = [(l, s) for l, s, _ in BATTERY] + [("D4", (2,)), ("F4", (4,))]


@pytest.mark.parametrize("label,sigma", HASSE_CASES,
                         ids=[f"{l}-{','.join(map(str, s))}" for l, s in HASSE_CASES])
def test_hasse_equals_the_full_weyl_filter(label, sigma):
    """W^p grown level by level is the filter of all of W: the same levels,
    words, and weight matrices."""
    p = parabolic(build_root_system(label), set(sigma))
    want = reference_parabolic_hasse(p)
    got = parabolic_hasse(p)
    assert [[w.word for w in lvl] for lvl in got] == [[w.word for w in lvl] for lvl in want]
    for lg, lw in zip(got, want):
        for a, b in zip(lg, lw):
            assert a.mat_weight == b.mat_weight


def test_hasse_cap_raises_not_finite_type(monkeypatch):
    p = parabolic(build_root_system("A3"), {2})
    assert sum(len(lvl) for lvl in parabolic_hasse(p)) == 6
    monkeypatch.setattr(rootspace, "MAX_HASSE_ELEMENTS", 6)
    parabolic_hasse(p)
    monkeypatch.setattr(rootspace, "MAX_HASSE_ELEMENTS", 5)
    with pytest.raises(NotFiniteType, match="larger than cap 5"):
        parabolic_hasse(p)


NOT_POSITIVE_DEFINITE = [
    [[2, -2], [-2, 2]],
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    [[2, -3], [-3, 2]],
    [[2, -1], [-4, 2]],
]


@pytest.mark.parametrize("cartan", NOT_POSITIVE_DEFINITE, ids=str)
def test_not_positive_definite_is_refused(cartan):
    assert min(leading_minors([[d * c for c in row] for d, row in
                               zip(rootspace._symmetrizers(cartan), cartan)])) <= 0
    with pytest.raises(NotFiniteType, match="not positive definite"):
        build_root_system(cartan)


SERIES_UP_TO_RANK_8 = [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)] + [
    f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"]
POSITIVE_ROOTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n, "C": lambda n: n * n,
                  "D": lambda n: n * (n - 1), "E": {6: 36, 7: 63, 8: 120}.get,
                  "F": lambda n: 24, "G": lambda n: 6}


@pytest.mark.parametrize("label", SERIES_UP_TO_RANK_8)
def test_every_series_label_builds(label):
    rs = build_root_system(label)
    assert len(rs.pos_roots) == POSITIVE_ROOTS[label[0]](rs.rank)
    S = [[d * c for c in row] for d, row in zip(rs.d, rs.cartan)]
    assert min(leading_minors(S)) > 0


def test_positive_definite_check_agrees_with_sylvester_minors():
    """The Bareiss pass refuses a symmetric integer matrix exactly when one
    of its leading principal minors, each eliminated on its own, is <= 0."""
    rng = random.Random(20)
    refused = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        S = [[0] * n for _ in range(n)]
        for i in range(n):
            S[i][i] = rng.randint(1, 8)
            for j in range(i):
                S[i][j] = S[j][i] = rng.randint(-3, 2)
        want = min(leading_minors(S)) > 0
        try:
            rootspace._check_positive_definite(S, [1] * n)
        except NotFiniteType:
            assert not want, S
            refused += 1
        else:
            assert want, S
    assert 30 < refused < 270


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
    dom = dominant_representative_for(rs, range(1, rs.rank + 1), lam)
    assert all(x >= 0 for x in dom)
    orbit = {w.act_weight(lam) for w in enumerate_weyl(rs)}
    assert dom in orbit
    # already-dominant weights are fixed
    assert dominant_representative_for(rs, range(1, rs.rank + 1), (2, 0)) == (2, 0)


def test_dominant_representative_for_subgroup():
    rs = build_root_system("A3")
    # representative dominant only on the requested nodes
    lam = (5, -1, -2)
    dom = dominant_representative_for(rs, (2,), lam)
    assert dom[1] >= 0


def test_grading_element_pairs_with_sigma_height():
    g = graded("A3", (1, 3))
    E = g.grading_element
    for r in g.pplus_roots:
        mu = g.rs.root_to_weight(r)
        val = sum(E.get(("h", j), 0) * mu[j] for j in range(g.rs.rank))
        assert val == r[0] + r[2]  # height over the crossed nodes
        assert g.e_eigenvalue(mu) == val
