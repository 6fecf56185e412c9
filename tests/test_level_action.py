"""The p-action on C^n and the wedge on C^n are placed as blocks of
Kronecker products by one helper, `linalg.kron_blocks`.

P acts on C^n = Lambda^n p_+ (x) V through the tensor product, so
A^n_Z = L_Z (x) 1 + 1 (x) M_Z. The complex stores neither A^n_Z nor any
matrix of its size: every reader places it with `linalg.kron_blocks`, as the
pairs (L_Z, dim V) and (dim Lambda^n, M_Z), either as plain blocks or as the
blocks of A^n_Z @ X. These tests check both forms against dense Kronecker
products, and, on every `BATTERY` case and level (both zero ends
included), against the tensor module of ``hodge_reference.reference_level``.
The wedge eps_a (x) 1_V is placed by the same helper, as the pair
(eps_a, dim V), checked against the dense product too. They also pin the
measured design of the helper: a 1x1 factor is one block, a zero one places
nothing before any entry is read, and the row blocks of the right factor are
gathered once per call.
"""

import random

import pytest

from artifact.linalg import Q, SpMat, kron_blocks
from conftest import BATTERY, complex_for
from hodge_reference import reference_level
from linalg_reference import reference_assemble, reference_kron, reference_matmul

RNG = random.Random(20261019)
CASES = [(l, s, w) for l, s, ws in BATTERY for w in ws]


def rand_mat(nr, nc, density=0.6, rng=RNG):
    return SpMat.from_entries(nr, nc, {
        (i, j): Q(rng.randint(-4, 4), rng.randint(1, 3))
        for i in range(nr) for j in range(nc) if rng.random() < density
    })


def fixed_matrix(nrows: int, ncols: int = 3) -> SpMat:
    """Every entry distinct, so a row block read from the wrong place shows."""
    return SpMat.from_entries(nrows, ncols, {
        (i, j): Q(1 + i + 2 * j, 1 + j) for i in range(nrows) for j in range(ncols)
        if (i + j) % 3
    })


def kron_sum(L: SpMat, M: SpMat) -> SpMat:
    dim = L.nrows * M.nrows
    return reference_assemble(dim, dim, [
        (0, 0, 1, reference_kron(L, SpMat.identity(M.nrows))),
        (0, 0, 1, reference_kron(SpMat.identity(L.nrows), M)),
    ])


@pytest.mark.parametrize("l,m", [(1, 1), (3, 1), (4, 1), (1, 3), (3, 2), (4, 3), (0, 2), (0, 1)])
def test_both_forms_match_the_dense_kronecker_sum(l, m):
    """The pairs (L, m) and (l, M), alone, scaled at a column offset, and
    times a matrix on the right; m = 1 with M = (mu), mu zero or not, takes
    the one-block path."""
    for L, M in [(rand_mat(l, l), rand_mat(m, m)), (rand_mat(l, l), SpMat(m, m)),
                 (SpMat(l, l), rand_mat(m, m, density=1.0))]:
        want = kron_sum(L, M)
        dim = l * m
        c = Q(-2, 3)
        pairs = ((L, m), (l, M))
        assert SpMat.assemble(dim, dim, kron_blocks(*pairs)) == want
        assert SpMat.assemble(dim, dim + 2, kron_blocks(*pairs, c=c, col_off=2)) == \
            reference_assemble(dim, dim + 2, [(0, 2, c, want)])
        X = rand_mat(dim, 4)
        assert SpMat.assemble(dim, 4, kron_blocks(*pairs, right=X)) == reference_matmul(want, X)
        assert SpMat.assemble(dim, 5, kron_blocks(*pairs, c=c, right=X, col_off=1)) == \
            reference_assemble(dim, 5, [(0, 1, c, reference_matmul(want, X))])


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("l,k", [(3, 2), (2, 4), (1, 1), (0, 2), (2, 0)])
def test_unit_blocks_are_the_kronecker_product_times_right(l, k, m):
    """The blocks of c (L (x) 1_m) @ right, for rectangular L (l x k), at a
    column offset, equal the dense product, for a right with empty row
    blocks (rows of block 0 and of the last block cleared), a zero right,
    and a full one; m = 1 is one product block. Without right, the pair
    (L, m) is L (x) 1_m."""
    c = Q(-5, 3)
    one = SpMat.identity(m)
    for L in (rand_mat(l, k), SpMat(l, k)):
        assert SpMat.assemble(l * m, k * m, kron_blocks((L, m))) == reference_kron(L, one)
        full = rand_mat(k * m, 3, density=1.0)
        holes = SpMat.from_entries(k * m, 3, {
            (i, j): v for i, j, v in full.entries() if not (i < m or i >= (k - 1) * m)
        })
        for right in (full, holes, SpMat(k * m, 3)):
            want = reference_assemble(l * m, 5, [
                (0, 2, c, reference_matmul(reference_kron(L, one), right)),
            ])
            got = SpMat.assemble(l * m, 5, kron_blocks((L, m), c=c, right=right, col_off=2))
            assert got == want, (L, right)
            if m == 1:
                assert [b[3] for b in kron_blocks((L, m), c=c, right=right, col_off=2)] == \
                    [(L, right)]


def test_a_one_by_one_factor_is_one_block(monkeypatch):
    """M = (mu) places the one block mu L, or the product block (L, right),
    whatever L's size; a zero (mu) places nothing and reads no entry."""
    L, X = rand_mat(5, 5, density=1.0), rand_mat(5, 2)
    mu = SpMat.from_dense([[Q(3, 4)]])
    assert list(kron_blocks((L, mu), c=2)) == [(0, 0, Q(3, 2), L)]
    assert list(kron_blocks((L, mu), right=X, col_off=1)) == [(0, 1, Q(3, 4), (L, X))]
    assert list(kron_blocks((5, mu), right=X)) == [(0, 0, Q(3, 4), X)]

    def no_entry(*args):
        raise AssertionError("an entry of a zero factor was read")

    monkeypatch.setattr(SpMat, "get", no_entry)
    assert list(kron_blocks((L, SpMat(1, 1)), (5, SpMat(1, 1)), c=Q(1, 3), right=X)) == []


def test_right_row_blocks_are_gathered_once_per_call(monkeypatch):
    """The Kronecker sum times right gathers each nonzero row block of right
    once, and both pairs place blocks of the same gathered rows."""
    l, m = 4, 3
    L, M = rand_mat(l, l, density=1.0), rand_mat(m, m, density=1.0)
    X = SpMat.from_entries(l * m, 2, {(i, 0): i + 1 for i in range(l * m) if i // m != 2})
    calls = []
    gather = SpMat.gather_rows

    def counting(self, idx):
        calls.append(list(idx))
        return gather(self, idx)

    monkeypatch.setattr(SpMat, "gather_rows", counting)
    blocks = list(kron_blocks((L, m), (l, M), right=X))
    assert sorted(calls) == [[0, 1, 2], [3, 4, 5], [9, 10, 11]]
    plain = {id(b[3]) for b in blocks if type(b[3]) is not tuple}
    products = {id(b[3][1]) for b in blocks if type(b[3]) is tuple}
    assert len(plain) == 3 and plain == products
    assert SpMat.assemble(l * m, 2, blocks) == reference_matmul(kron_sum(L, M), X)


@pytest.mark.parametrize("label,sigma,weight", CASES)
def test_placed_action_is_the_tensor_action(label, sigma, weight):
    """Plain form: A^n_Z; product form: A^n_Z times a fixed matrix, alone and
    side by side (``cc.act``), for every label of p and every level
    -1 <= n <= top + 1."""
    cc = complex_for(label, sigma, weight)
    labels = cc.g.p_labels
    for n in range(-1, cc.top + 2):
        dim = cc.dim(n)
        if n >= 0:
            want = reference_level(cc, n).actions
        else:
            want = {lab: SpMat(0, 0) for lab in labels}
        X = fixed_matrix(dim)
        for lab in labels:
            assert SpMat.assemble(dim, dim, cc.action_blocks(n, lab)) == want[lab]
            assert SpMat.assemble(dim, 3, cc.action_blocks(n, lab, right=X)) == want[lab] @ X
        assert cc.act(n, labels, X) == SpMat.hstack(
            [SpMat(dim, 0)] + [want[lab] @ X for lab in labels])


def test_cases_include_a_one_dimensional_coefficient_module():
    assert any(complex_for(*case).V.dim == 1 for case in CASES)
    assert any(complex_for(*case).V.dim > 1 for case in CASES)
