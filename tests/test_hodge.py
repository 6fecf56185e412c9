"""Cochain complexes, Hodge splits, harmonic cohomology."""

import pytest

from artifact.hodge import (
    ComplexNotCertified,
    DegreeOverflow,
    check_weight_blocks,
    hodge_decompose,
    kostant_oracle,
    laplacian,
    wedge_insert_matrix,
)
from artifact.linalg import Q, SpMat
from conftest import (
    BATTERY,
    GOLDEN_DIMS,
    complex_for,
    complex_for_module,
    components_for,
    graded,
)
from linalg_reference import row_dicts, to_dense, with_row

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
    assert to_dense(laplacian(cc, 0)) == [[Q(-1, 4), 0], [0, 0]]
    assert to_dense(laplacian(cc, 1)) == [[0, 0], [0, Q(-1, 4)]]


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


def test_harmonic_projection_inverts_the_hodge_basis():
    """P_H @ full_basis = [0 | 1 | 0], so P_H is the ker box rows of the
    inverse of the Hodge basis; it is computed once and kept."""
    _, cohs, _ = components_for("A2", (1,), (1, 1))
    for coh in cohs:
        sp = coh.split
        P = sp.harmonic_projection()
        off, h = sp.im_del.ncols, sp.ker_box.ncols
        want = SpMat.identity(h).transpose().place_rows(
            list(range(off, off + h)), sp.full_basis.ncols).transpose()
        assert P @ sp.full_basis == want
        assert sp.harmonic_projection() is P


def test_cohomology_command_computes_no_projection(monkeypatch, capsys):
    import artifact.bggcli as bggcli
    from artifact.hodge import HodgeSplit

    def refuse(self):
        raise AssertionError("harmonic projection computed")

    monkeypatch.setattr(HodgeSplit, "harmonic_projection", refuse)
    argv = ["--algebra", "A2", "--cross", "1", "--weight", "1,1", "cohomology"]
    assert bggcli.main(argv) == 0
    capsys.readouterr()


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


def test_weight_block_certificate_refuses_moved_column():
    cc = complex_for("A2", (1,), (1, 1))
    n = 1
    weights = cc.levels[n].weights
    basis = hodge_decompose(cc, n).full_basis
    check_weight_blocks(weights, basis, n)
    # column 0 moved onto a row of another weight: one block loses a column,
    # the other gains one, and the rank of the whole basis may not show it
    cols = basis.transpose()
    rows = row_dicts(cols)
    mu = weights[min(rows[0])]
    other = next(i for i, w in enumerate(weights) if w != mu)
    moved = with_row(cols, 0, {other: 1})
    with pytest.raises(ComplexNotCertified, match="not a basis"):
        check_weight_blocks(weights, moved.transpose(), n)
    # one column too many: its block keeps full rank but is not square
    with pytest.raises(ComplexNotCertified, match="not a basis"):
        check_weight_blocks(weights, SpMat.hstack([basis, basis.column_vec(0)]), n)
    # column 0 spread over two weights
    spread = with_row(cols, 0, {**rows[0], other: 1})
    with pytest.raises(ComplexNotCertified, match="not a weight vector"):
        check_weight_blocks(weights, spread.transpose(), n)
    # a block of the right size but singular
    seen = {}
    for c in sorted(rows):
        w = weights[min(rows[c])]
        if w in seen:
            break
        seen[w] = c
    singular = with_row(cols, c, dict(rows[seen[w]]))
    with pytest.raises(ComplexNotCertified, match="not a basis"):
        check_weight_blocks(weights, singular.transpose(), n)


@pytest.mark.parametrize("label,sigma,weights", BATTERY,
                         ids=[f"{l}-{','.join(map(str, s))}" for l, s, _ in BATTERY])
def test_complex_entries_are_exact_and_normalized(label, sigma, weights):
    """No stored entry is a float, and integral entries are stored as int."""
    for weight in weights:
        cc, cohs, _ = components_for(label, sigma, weight)
        mats = cc.dels + cc.delstars + cc.inner
        for coh in cohs:
            sp = coh.split
            mats += [sp.im_del, sp.ker_box, sp.im_delstar, coh.embedding]
            mats += list(coh.module.actions.values())
        for M in mats:
            for _, _, v in M.entries():
                assert not isinstance(v, float)
                assert type(v) is int or v.denominator != 1, (label, weight, v)
