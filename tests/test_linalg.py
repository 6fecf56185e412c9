"""Exact sparse linear algebra."""

import os
import random
from fractions import Fraction
from math import gcd
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import artifact.linalg as linalg
from artifact.linalg import LinAlgError, Q, SpMat, kron_blocks, qstr
from linalg_reference import (
    nnz,
    qparse,
    reference_assemble,
    reference_kernel_basis,
    reference_kron,
    reference_matmul,
    reference_merge_columns,
    reference_rref,
    reference_solve,
    reference_transpose,
    to_dense,
)

RNG = random.Random(20240817)


def rand_mat(nr, nc, density=0.6, rng=RNG):
    return SpMat.from_entries(nr, nc, {
        (i, j): Q(rng.randint(-4, 4), rng.randint(1, 3))
        for i in range(nr) for j in range(nc) if rng.random() < density
    })


def test_qstr_qparse_roundtrip():
    for v in [Q(0), Q(3), Q(-3), Q(1, 2), Q(-7, 3), Q(22, 4)]:
        assert qparse(qstr(v)) == v
    assert qstr(Q(5)) == "5"
    assert qstr(Q(-1, 2)) == "-1/2"


def test_basic_ops_match_dense():
    A = rand_mat(4, 5)
    B = rand_mat(4, 5)
    C = rand_mat(5, 3)
    da, db, dc = to_dense(A), to_dense(B), to_dense(C)
    assert to_dense(SpMat.assemble(4, 5, [(0, 0, 1, A), (0, 0, 1, B)])) == [
        [da[i][j] + db[i][j] for j in range(5)] for i in range(4)
    ]
    assert to_dense(SpMat.assemble(4, 5, [(0, 0, 1, A), (0, 0, -1, B)])) == [
        [da[i][j] - db[i][j] for j in range(5)] for i in range(4)
    ]
    assert to_dense(SpMat.assemble(4, 5, [(0, 0, Q(-3, 2), A)])) == [
        [Q(-3, 2) * da[i][j] for j in range(5)] for i in range(4)
    ]
    assert to_dense(A @ C) == [
        [sum(da[i][k] * dc[k][j] for k in range(5)) for j in range(3)]
        for i in range(4)
    ]
    assert to_dense(A.transpose()) == [
        [da[i][j] for i in range(4)] for j in range(5)
    ]


def test_identity_and_zero():
    I = SpMat.identity(4)
    A = rand_mat(4, 4)
    assert to_dense(I @ A) == to_dense(A)
    assert to_dense(A @ I) == to_dense(A)
    assert SpMat(3, 4).is_zero()
    assert not A.is_zero() or nnz(A) == 0


def test_rectangular_identity_is_a_prefix():
    # truncation to the first two coordinates, and inclusion as them
    assert to_dense(SpMat.identity(2, 4)) == [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert to_dense(SpMat.identity(3, 2)) == [[1, 0], [0, 1], [0, 0]]
    assert SpMat.identity(2, 4) @ SpMat.identity(4, 2) == SpMat.identity(2)


def kron(L, M):
    """L (x) M, assembled from `kron_blocks`."""
    return SpMat.assemble(L.nrows * M.nrows, L.ncols * M.ncols, kron_blocks((L, M)))


def test_kron_shapes_and_values():
    A = rand_mat(2, 3)
    B = rand_mat(3, 2)
    K = kron(A, B)
    assert (K.nrows, K.ncols) == (6, 6)
    da, db = to_dense(A), to_dense(B)
    for i in range(6):
        for j in range(6):
            assert K.get(i, j) == da[i // 3][j // 2] * db[i % 3][j % 2]
    # a 1x1 factor on either side, the one-block path included
    for m in (SpMat.from_dense([[Q(-2, 3)]]), SpMat(1, 1), SpMat.identity(1)):
        assert kron(A, m) == reference_kron(A, m)
        assert kron(m, A) == reference_kron(m, A)


def test_rref_shape_and_rank():
    A = rand_mat(5, 7)
    R, piv = A.rref()
    assert len(piv) == A.rank()
    assert list(piv) == sorted(piv)
    for k, p in enumerate(piv):
        assert R.get(k, p) == 1
        col = [R.get(i, p) for i in range(5)]
        assert col == [1 if i == k else 0 for i in range(5)]


def test_kernel_basis_annihilates():
    A = rand_mat(4, 6)
    K = A.kernel_basis()
    assert K.ncols == 6 - A.rank()
    assert (A @ K).is_zero()
    assert K.rank() == K.ncols


def test_solve_consistent_and_inconsistent():
    A = rand_mat(5, 3)
    X = rand_mat(3, 2)
    B = A @ X
    S = A.solve(B)
    assert to_dense(A @ S) == to_dense(B)
    # loaded full-rank column outside a rank-deficient image
    bad = SpMat.from_entries(2, 1, {(1, 0): 1})
    M = SpMat.from_entries(2, 1, {(0, 0): 1})
    with pytest.raises(LinAlgError):
        M.solve(bad)


def test_stack_and_block_diag():
    A = rand_mat(2, 3)
    B = rand_mat(2, 2)
    H = SpMat.hstack([A, B])
    assert (H.nrows, H.ncols) == (2, 5)
    assert H.get(1, 4) == B.get(1, 1)
    V = SpMat.vstack([A, rand_mat(1, 3)])
    assert (V.nrows, V.ncols) == (3, 3)
    D = SpMat.block_diag([A, B])
    assert (D.nrows, D.ncols) == (4, 5)
    assert D.get(0, 4) == 0
    assert D.get(2, 3) == B.get(0, 0)


def test_submatrix_and_select_columns():
    A = rand_mat(4, 4)
    S = A.submatrix([1, 3], [0, 2])
    assert to_dense(S) == [
        [A.get(1, 0), A.get(1, 2)],
        [A.get(3, 0), A.get(3, 2)],
    ]
    C = A.select_columns([2, 0])
    assert C.get(1, 0) == A.get(1, 2)
    assert C.get(1, 1) == A.get(1, 0)


def test_rows_within_reads_each_row_against_its_set():
    A = SpMat.from_dense([[1, 0, Q(1, 2)], [0, 0, 0], [0, 3, 0]])
    assert A.rows_within([{0, 2}, set(), {1}])
    assert A.rows_within([{0, 1, 2}, set(), {0, 1}])
    assert not A.rows_within([{0}, {0, 1, 2}, {1}])
    assert not A.rows_within([{0, 2}, {0, 1, 2}, frozenset()])
    assert SpMat(2, 2).rows_within([set(), set()])


def test_column_space_basis_spans():
    A = rand_mat(5, 6, density=0.4)
    B = A.column_space_basis()
    assert B.rank() == B.ncols == A.rank()
    # every column of A solvable against the basis
    B.solve(A)


small_q = st.builds(
    Q,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=1, max_value=3),
)


def mat_strategy(nr, nc):
    return st.lists(
        st.lists(small_q, min_size=nc, max_size=nc), min_size=nr, max_size=nr
    ).map(SpMat.from_dense)


@given(mat_strategy(3, 3), mat_strategy(3, 3), mat_strategy(3, 3))
def test_matmul_associative(A, B, C):
    assert to_dense((A @ B) @ C) == to_dense(A @ (B @ C))


@given(mat_strategy(3, 4), mat_strategy(4, 2))
def test_transpose_antihomomorphism(A, B):
    assert to_dense((A @ B).transpose()) == to_dense(B.transpose() @ A.transpose())


@given(mat_strategy(4, 5))
def test_rank_transpose_invariant(A):
    assert A.rank() == A.transpose().rank()


def test_shape_checks_raise():
    with pytest.raises(LinAlgError, match="negative shape"):
        SpMat(-1, 2)
    with pytest.raises(LinAlgError, match="row 1 has 1 entries"):
        SpMat.from_dense([[1, 2], [3]])
    with pytest.raises(LinAlgError, match="outside 2x2"):
        SpMat.from_entries(2, 2, {(0, 2): 1})
    with pytest.raises(LinAlgError, match="outside 2x2"):
        SpMat.from_entries(2, 2, {(-1, 0): 0})
    with pytest.raises(LinAlgError, match="row counts"):
        SpMat.hstack([SpMat(2, 1), SpMat(3, 1)])
    with pytest.raises(LinAlgError, match="column counts"):
        SpMat.vstack([SpMat(1, 2), SpMat(1, 3)])
    for stack in (SpMat.hstack, SpMat.vstack):
        with pytest.raises(LinAlgError, match="no matrices"):
            stack([])


def test_stack_shape_check_survives_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "from artifact.linalg import LinAlgError, SpMat\n"
        "if sys.flags.optimize < 1: sys.exit(3)\n"
        "try:\n"
        "    SpMat.hstack([SpMat(2, 1), SpMat(3, 1)])\n"
        "except LinAlgError:\n"
        "    sys.exit(0)\n"
        "sys.exit(4)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)


def through(A, phi, ncols):
    """A placed through the column map phi: one assembler block."""
    return SpMat.assemble(A.nrows, ncols, [(0, phi, 1, A)])


@given(mat_strategy(3, 5), st.lists(st.integers(0, 2), min_size=5, max_size=5))
def test_column_map_is_matmul_by_index_map(A, phi):
    M = SpMat.from_entries(5, 3, {(q, c): Q(1) for q, c in enumerate(phi)})
    assert through(A, phi, 3) == A @ M == reference_merge_columns(A, phi, 3)
    assert stored_form(through(A, phi, 3))
    with pytest.raises(LinAlgError):
        through(A, phi[:-1], 3)


def test_column_map_shares_the_rows_it_leaves_in_place():
    """Under an identity map every output row is the input row itself; a row
    that a collision or a move touches is a new row, which the output owns."""
    A = SpMat.from_dense([[1, Q(1, 2), 0], [0, 0, 3], [2, 0, 5]])
    same = through(A, [0, 1, 2], 4)
    assert all(same.rows[i] is A.rows[i] for i in A.rows)
    assert same.dens == A.dens
    assert same == A @ SpMat.identity(3, 4)
    merged = through(A, [0, 1, 0], 2)
    assert merged.rows[1] is not A.rows[1] and merged.rows[2] is not A.rows[2]
    assert merged.rows[0] is A.rows[0]
    # a scaled block, or one under a map that moves a column, owns its rows
    assert SpMat.assemble(3, 3, [(0, [0, 1, 2], 3, A)]).rows[0] is not A.rows[0]
    assert through(A, [1, 0, 2], 3).rows[0] is not A.rows[0]


def test_column_map_sums_collisions_in_lowest_terms():
    A = SpMat.from_dense([[Q(1, 2), Q(1, 2), 0], [1, -1, 2], [Q(1, 3), Q(-1, 3), 0]])
    M = through(A, [0, 0, 1], 2)
    # 1/2 + 1/2 = 1 is an integral row; 1 - 1 leaves only the 2; 1/3 - 1/3 = 0
    assert (M.rows, M.dens) == ({0: {0: 1}, 1: {1: 2}}, {})
    assert stored_form(M)
    # a collision on top of a row another block wrote first
    S = SpMat.assemble(3, 2, [(0, 0, Q(1, 2), SpMat.identity(3, 2)), (0, [0, 0, 1], 1, A)])
    assert canon(S) == canon(reference_assemble(3, 2, [
        (0, 0, 1, reference_merge_columns(A, [0, 0, 1], 2)),
        (0, 0, Q(1, 2), SpMat.identity(3, 2)),
    ]))
    assert stored_form(S)


@pytest.mark.parametrize("phi", [[0, 1], [0, 1, 2, 0], [0, 1, 3], [-1, 0, 1]])
def test_column_map_is_checked(phi):
    A = SpMat.from_dense([[1, 2, 3]])
    with pytest.raises(LinAlgError, match="through a map of"):
        through(A, phi, 3)


def test_product_block_takes_no_column_map():
    A = SpMat.identity(2)
    with pytest.raises(LinAlgError, match="product block through a map"):
        SpMat.assemble(2, 2, [(0, [1, 0], 1, (A, A))])


# -- the integer kernels against the plain rational references ---------------

scalar = st.one_of(
    st.integers(-12, 12),
    st.builds(Q, st.integers(-12, 12), st.integers(1, 12)),  # integral Q too
)


@st.composite
def mixed_mat(draw, nrows=None, ncols=None):
    """A matrix built from drawn entries, int and Q mixed (integral Q too), so
    rows come out integral or over assorted denominators."""
    nr = draw(st.integers(0, 5)) if nrows is None else nrows
    nc = draw(st.integers(0, 6)) if ncols is None else ncols
    entries = {}
    if nr and nc:
        entries = draw(st.dictionaries(
            st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1)), scalar,
            max_size=nr * nc))
    return SpMat.from_entries(nr, nc, entries)


@st.composite
def product_pair(draw):
    n = draw(st.integers(0, 5))
    return draw(mixed_mat(ncols=n)), draw(mixed_mat(nrows=n))


@st.composite
def system(draw):
    A = draw(mixed_mat())
    return A, draw(mixed_mat(nrows=A.nrows))


def canon(M):
    return M.nrows, M.ncols, list(M.entries())


def stored_form(M):
    """The stored form: each row a dict of nonzero ints over a denominator
    > 1 kept in ``dens``, or over 1 and kept nowhere, with the gcd of the
    entries and the denominator 1; no empty row. Entries come out as an int
    when integral and as Q otherwise."""
    for i, r in M.rows.items():
        if not r or not 0 <= i < M.nrows:
            return False
        if any(type(v) is not int or not v or not 0 <= j < M.ncols for j, v in r.items()):
            return False
        if gcd(M.dens.get(i, 1), *r.values()) != 1:
            return False
    if any(i not in M.rows or type(d) is not int or d <= 1 for i, d in M.dens.items()):
        return False
    for _, _, v in M.entries():
        if not v or isinstance(v, float):
            return False
        if type(v) is not int and v.denominator == 1:
            return False
    return True


def snapshot(M):
    return M.nrows, M.ncols, [(i, j, type(v), v) for i, j, v in M.entries()]


@given(product_pair())
def test_matmul_matches_reference(pair):
    A, B = pair
    P = A @ B
    assert canon(P) == canon(reference_matmul(A, B))
    assert stored_form(P)


@given(mixed_mat())
def test_rref_matches_reference(A):
    R, pivots = A.rref()
    want, want_pivots = reference_rref(A)
    assert pivots == want_pivots
    assert canon(R) == canon(want)
    assert stored_form(R)
    assert A.rank() == len(want_pivots)


@given(system())
def test_kernel_and_solve_match_reference(sys_):
    A, rhs = sys_
    K = A.kernel_basis()
    assert canon(K) == canon(reference_kernel_basis(A))
    assert stored_form(K)
    try:
        want = reference_solve(A, rhs)
    except LinAlgError:
        with pytest.raises(LinAlgError, match="inconsistent"):
            A.solve(rhs)
    else:
        X = A.solve(rhs)
        assert canon(X) == canon(want)
        assert stored_form(X)


@given(product_pair(), system())
def test_kernels_do_not_mutate_inputs(pair, sys_):
    A, B = pair
    C, rhs = sys_
    before = [snapshot(M) for M in (A, B, C, rhs)]
    A @ B
    for M in (A, B, C):
        M.rref()
        M.rank()
        M.kernel_basis()
        M.column_space_basis()
        M.independent_columns()
    try:
        C.solve(rhs)
    except LinAlgError:
        pass
    assert [snapshot(M) for M in (A, B, C, rhs)] == before


def test_entries_are_stored_as_int_when_integral():
    A = SpMat.from_dense([[Q(2), Q(1, 2)], [Q(4, 2), 0]])
    assert [type(v) for _, _, v in A.entries()] == [int, type(Q(1, 2)), int]
    assert stored_form(SpMat.assemble(2, 2, [(0, 0, 2, A)]))
    assert stored_form(SpMat.assemble(2, 2, [(0, 0, 1, A), (0, 0, 1, A)]))
    assert stored_form(kron(A, A))
    assert stored_form(through(A, [0, 0], 1))
    assert stored_form(SpMat.diagonal([Q(3, 3), Q(1, 3)]))
    assert stored_form(SpMat.identity(3))


def test_spmat_is_unhashable():
    # __eq__ without __hash__: a mutable matrix cannot be a dict key
    with pytest.raises(TypeError):
        hash(SpMat(1, 1))


# -- the block assembler and the index-map helpers ----------------------------

@st.composite
def block_list(draw):
    """A target shape and blocks (row_off, col_off, coef, M) that fit in it;
    coefficients mix int, Q and integral Q, and include 0. Some blocks are
    repeated with the opposite coefficient, so that they cancel."""
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        mr, mc = draw(st.integers(0, nr)), draw(st.integers(0, nc))
        roff, coff = draw(st.integers(0, nr - mr)), draw(st.integers(0, nc - mc))
        c = draw(st.one_of(st.just(0), st.just(1), st.just(Q(2, 2)), scalar))
        M = draw(mixed_mat(mr, mc))
        blocks.append((roff, coff, c, M))
        if draw(st.booleans()):
            blocks.append((roff, coff, -c, M))
    return nr, nc, blocks


@given(block_list(), st.data())
def test_mapped_blocks_sum_with_placed_ones(case, data):
    """Blocks through column maps, summed in one assembly with blocks at
    offsets, in any order: the reference sum, and no input row changed."""
    nr, nc, blocks = case
    if not nc:
        return
    mapped = []
    for _ in range(data.draw(st.integers(1, 3))):
        M = data.draw(mixed_mat(data.draw(st.integers(0, nr)), data.draw(st.integers(0, 5))))
        phi = data.draw(st.lists(st.integers(0, nc - 1), min_size=M.ncols, max_size=M.ncols))
        c = data.draw(st.one_of(st.just(1), scalar))
        mapped.append((data.draw(st.integers(0, nr - M.nrows)), phi, c, M))
    order = data.draw(st.permutations(blocks + mapped))
    before = [snapshot(M) for *_, M in order]
    got = SpMat.assemble(nr, nc, order)
    assert [snapshot(M) for *_, M in order] == before
    want = reference_assemble(nr, nc, blocks + [
        (r, 0, c, reference_merge_columns(M, phi, nc)) for r, phi, c, M in mapped
    ])
    assert canon(got) == canon(want)
    assert got == want and stored_form(got)


def placed(nr, nc, roff, coff, c, M):
    """c * M placed at (roff, coff), with the existing stacking ops."""
    scaled = SpMat.from_entries(M.nrows, M.ncols, {(i, j): Q(c) * v for i, j, v in M.entries()})
    return SpMat.block_diag([
        SpMat(roff, coff), scaled, SpMat(nr - roff - M.nrows, nc - coff - M.ncols),
    ])


@given(block_list())
def test_assemble_is_the_sum_of_placed_blocks(case):
    nr, nc, blocks = case
    before = [snapshot(M) for *_, M in blocks]
    A = SpMat.assemble(nr, nc, blocks)
    assert [snapshot(M) for *_, M in blocks] == before
    assert (A.nrows, A.ncols) == (nr, nc)
    assert stored_form(A)  # no empty row is stored either
    # against dense rational sums, and against placed blocks added up
    dense = [[Q(0)] * nc for _ in range(nr)]
    for roff, coff, c, M in blocks:
        for i, j, v in M.entries():
            dense[roff + i][coff + j] += Q(c) * v
    assert to_dense(A) == dense
    total = SpMat.assemble(nr, nc, [(0, 0, 1, placed(nr, nc, *block)) for block in blocks])
    assert canon(A) == canon(total)


@given(block_list())
def test_cancelling_blocks_leave_nothing(case):
    nr, nc, blocks = case
    undo = [(roff, coff, -c, M) for roff, coff, c, M in blocks]
    assert SpMat.assemble(nr, nc, blocks + undo) == SpMat(nr, nc)
    assert SpMat.assemble(nr, nc, [(r, c, 0, M) for r, c, _, M in blocks]) == SpMat(nr, nc)


@st.composite
def dense_mat(draw, nrows, ncols):
    """A matrix with every entry drawn, int and Q mixed, about one in four
    of them zero: denser than ``mixed_mat``, so products rarely vanish."""
    vals = draw(st.lists(st.one_of(st.just(0), scalar, scalar, scalar),
                         min_size=nrows * ncols, max_size=nrows * ncols))
    return SpMat.from_entries(nrows, ncols, {
        divmod(p, ncols): v for p, v in enumerate(vals)
    })


@st.composite
def product_block_list(draw):
    """A target shape and blocks that fit in it, plain ones and product
    blocks (X, Y) with mixed int / rational factors; the inner dimension may
    be 0, which leaves an empty factor. Coefficients are as in ``block_list``. Some
    blocks repeat with the opposite coefficient, and some product blocks
    come with the plain product X @ Y at the opposite coefficient, so that
    the sum cancels exactly; the order is shuffled, so a product row lands
    in rows other blocks wrote first, and the other way round."""
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        mr, mc = draw(st.integers(1, nr)), draw(st.integers(1, nc))
        roff, coff = draw(st.integers(0, nr - mr)), draw(st.integers(0, nc - mc))
        c = draw(st.one_of(st.just(1), st.just(Q(2, 2)), scalar))
        if draw(st.booleans()):
            inner = draw(st.integers(0, 3))
            M = (draw(dense_mat(mr, inner)), draw(dense_mat(inner, mc)))
            if draw(st.booleans()):
                blocks.append((roff, coff, -c, reference_matmul(*M)))
        else:
            M = draw(dense_mat(mr, mc))
        blocks.append((roff, coff, c, M))
        if draw(st.integers(0, 3)) == 0:
            blocks.append((roff, coff, -c, M))
    return nr, nc, draw(st.permutations(blocks))


def plain_blocks(blocks):
    """The blocks with each product block (X, Y) replaced by the reference
    product of X and Y."""
    return [(r, c, v, reference_matmul(*M) if type(M) is tuple else M)
            for r, c, v, M in blocks]


@given(product_block_list())
def test_product_blocks_match_the_references(case):
    nr, nc, blocks = case
    factors = [X for *_, M in blocks for X in (M if type(M) is tuple else (M,))]
    before = [snapshot(X) for X in factors]
    A = SpMat.assemble(nr, nc, blocks)
    assert [snapshot(X) for X in factors] == before
    want = reference_assemble(nr, nc, plain_blocks(blocks))
    assert canon(A) == canon(want)
    assert A == want and stored_form(A)
    # the whole sum, less itself through the references, is exactly zero
    undo = [(r, c, -v, M) for r, c, v, M in plain_blocks(blocks)]
    assert SpMat.assemble(nr, nc, blocks + undo).is_zero()


def test_product_blocks_reject_factors_that_do_not_chain():
    with pytest.raises(LinAlgError, match="product block"):
        SpMat.assemble(2, 2, [(0, 0, 1, (SpMat.identity(2), SpMat.identity(3)))])
    # the product's shape, not a factor's, must fit
    with pytest.raises(LinAlgError, match="outside 2x2"):
        SpMat.assemble(2, 2, [(0, 0, 1, (SpMat.identity(2), SpMat(2, 3)))])
    assert SpMat.assemble(2, 3, [(0, 0, 1, (SpMat.identity(2), SpMat(2, 3)))]).is_zero()


def test_assemble_denominator_paths_match_the_reference():
    """Each way a row of the output is hit again, against reference_assemble:
    a shared row (a plain block's own row) hit over an equal denominator and
    over a different one, by a plain block and by a product block's row;
    rows that cancel in part, and rows that cancel to zero. No input row is
    changed, though the output shares them."""
    A = SpMat.from_dense([[Q(1, 2), Q(3, 2), 0], [1, 2, 3]])
    # row 0 over A's denominator 2, row 1 over 3 against A's 1
    B = SpMat.from_dense([[Q(5, 2), 0, Q(1, 2)], [Q(1, 3), 0, 1]])
    C = SpMat.from_dense([[Q(-1, 2), 0, 0], [-1, -2, 0]])
    I2 = SpMat.identity(2)
    cases = [
        [(0, 0, 1, A), (0, 0, 1, B)],
        [(0, 0, 1, A), (0, 0, 1, (I2, B))],
        [(0, 0, 1, (I2, B)), (0, 0, 1, A)],
        [(0, 0, 1, A), (0, 0, 1, C)],
        [(0, 0, 1, A), (0, 0, -1, A)],
        [(0, 0, 1, A), (0, 0, -1, (I2, A))],
        [(0, 0, 1, A), (0, 0, 1, B), (0, 0, -1, (I2, B)), (0, 0, -1, A)],
    ]
    before = [snapshot(M) for M in (A, B, C)]
    for blocks in cases:
        got = SpMat.assemble(2, 3, blocks)
        assert got == reference_assemble(2, 3, plain_blocks(blocks))
        assert stored_form(got)
    assert [snapshot(M) for M in (A, B, C)] == before
    assert SpMat.assemble(2, 3, cases[4]) == SpMat(2, 3)
    partial = SpMat.assemble(2, 3, cases[3])
    assert (partial.rows, partial.dens) == ({0: {1: 3}, 1: {2: 3}}, {0: 2})


def test_assemble_rejects_blocks_that_do_not_fit():
    M = SpMat.identity(2)
    for roff, coff in [(2, 0), (0, 2), (-1, 0), (0, -1)]:
        with pytest.raises(LinAlgError, match="outside 3x3"):
            SpMat.assemble(3, 3, [(roff, coff, 1, M)])
    # a zero coefficient does not excuse a block that does not fit
    with pytest.raises(LinAlgError):
        SpMat.assemble(3, 3, [(2, 2, 0, M)])


def test_assemble_shape_check_survives_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "from artifact.linalg import LinAlgError, SpMat\n"
        "if sys.flags.optimize < 1: sys.exit(3)\n"
        "try:\n"
        "    SpMat.assemble(2, 2, [(1, 1, 1, SpMat.identity(2))])\n"
        "except LinAlgError:\n"
        "    sys.exit(0)\n"
        "sys.exit(4)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)


@st.composite
def rows_and_index(draw):
    """A stored-form matrix and distinct row indices, one per row, into a
    taller matrix."""
    M = draw(mixed_mat())
    n = M.nrows + draw(st.integers(0, 3))
    idx = draw(st.permutations(range(n)))[:M.nrows]
    return M, list(idx), n


@given(rows_and_index())
def test_gather_and_place_invert_each_other(case):
    M, idx, n = case
    before = snapshot(M)
    P = M.place_rows(idx, n)
    assert (P.nrows, P.ncols) == (n, M.ncols)
    assert P.gather_rows(idx) == M
    for p, i in enumerate(idx):
        assert [P.get(i, j) for j in range(M.ncols)] == [M.get(p, j) for j in range(M.ncols)]
    assert nnz(P) == nnz(M)
    # gathering first keeps exactly the rows idx
    G = P.gather_rows(idx).place_rows(idx, n)
    assert G == P
    assert snapshot(M) == before


def test_index_helpers_reject_bad_indices():
    M = SpMat.identity(2)
    with pytest.raises(LinAlgError):
        M.gather_rows([0, 2])
    with pytest.raises(LinAlgError):
        M.place_rows([0, 0], 3)
    with pytest.raises(LinAlgError):
        M.place_rows([0, 3], 3)
    with pytest.raises(LinAlgError):
        M.place_rows([0], 3)
    with pytest.raises(LinAlgError):
        SpMat.from_columns(2, [{2: 1}])


@given(mixed_mat())
def test_from_columns_matches_entries(M):
    cols = [M.col_dict(j) for j in range(M.ncols)]
    C = SpMat.from_columns(M.nrows, cols)
    assert canon(C) == canon(M)
    assert C == M
    assert stored_form(C)


# -- the stored row form -------------------------------------------------------

def test_rows_are_integers_over_one_denominator():
    A = SpMat.from_dense([[Q(1, 2), Q(1, 3), 0], [2, 4, 0], [0, Q(2, 3), Q(4, 3)]])
    assert A.rows == {0: {0: 3, 1: 2}, 1: {0: 2, 1: 4}, 2: {1: 2, 2: 4}}
    assert A.dens == {0: 6, 2: 3}  # an integral row keeps no denominator
    assert stored_form(A)
    # a sum whose common denominator cancels stores an integral row
    B = SpMat.assemble(1, 2, [
        (0, 0, 1, SpMat.from_dense([[Q(1, 2), Q(3, 2)]])),
        (0, 0, 1, SpMat.from_dense([[Q(1, 2), Q(1, 2)]])),
    ])
    assert (B.rows, B.dens) == ({0: {0: 1, 1: 2}}, {})
    assert SpMat.from_dense([[Q(1, 2)]]) == SpMat.from_dense([[Q(2, 4)]])


@st.composite
def kernel_inputs(draw):
    """Mixed int / rational operands for every integer kernel at once."""
    A, B = draw(product_pair())
    C, rhs = draw(system())
    phi = draw(st.lists(st.integers(0, 3), min_size=C.ncols, max_size=C.ncols))
    K = draw(mixed_mat(draw(st.integers(0, 3)), draw(st.integers(0, 3))))
    return A, B, C, rhs, phi, K, draw(block_list())


@given(kernel_inputs())
def test_kernels_match_fraction_references(case):
    A, B, C, rhs, phi, K, (nr, nc, blocks) = case
    inputs = [A, B, C, rhs, K] + [M for *_, M in blocks]
    before = [snapshot(M) for M in inputs]
    results = [
        (A @ B, reference_matmul(A, B)),
        (SpMat.assemble(nr, nc, blocks), reference_assemble(nr, nc, blocks)),
        (through(C, phi, 4), reference_merge_columns(C, phi, 4)),
        (C.transpose(), reference_transpose(C)),
        (kron(C, K), reference_kron(C, K)),
        (kron(K, C), reference_kron(K, C)),
        (C.rref()[0], reference_rref(C)[0]),
        (C.kernel_basis(), reference_kernel_basis(C)),
    ]
    assert C.rref()[1] == reference_rref(C)[1]
    assert C.rank() == len(reference_rref(C)[1])
    try:
        want = reference_solve(C, rhs)
    except LinAlgError:
        with pytest.raises(LinAlgError, match="inconsistent"):
            C.solve(rhs)
    else:
        results.append((C.solve(rhs), want))
    for got, want in results:
        assert canon(got) == canon(want)
        assert got == want  # the stored form is canonical
        assert stored_form(got)
    assert [snapshot(M) for M in inputs] == before


def test_kernels_build_no_Q(monkeypatch):
    """The kernels run on ints: on rational inputs, a product, an assembly
    with and without product blocks, a block through a column map, a row
    reduction and a rank construct no Q at all."""
    A = SpMat.from_dense([[Q(1, 2), Q(2, 3), 0], [Q(-3, 4), 1, Q(5, 6)], [0, Q(7, 5), 2]])
    B = SpMat.from_dense([[Q(1, 3), 0], [Q(2, 5), Q(-1, 7)], [4, Q(3, 2)]])
    made = []

    def counting_q(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linalg, "Q", counting_q)
    P = A @ B
    S = SpMat.assemble(3, 5, [(0, 0, Q(2, 3), A), (0, 2, Q(-5, 4), B), (0, 1, 1, A)])
    M = through(S, [0, 1, 0, 1, 2], 3)
    R, pivots = S.rref()
    blocks = [(0, 0, Q(-7, 3), (A, B)), (0, 1, 2, (A, A @ B)), (0, 0, Q(1, 2), B)]
    PB = SpMat.assemble(3, 3, blocks)
    zero = SpMat.assemble(3, 2, [(0, 0, Q(3, 5), (A, B)), (0, 0, Q(-3, 5), P)])
    rank = S.rank()
    assert made == []
    # the boundary still builds Q, so the wrapper is the live one
    assert P.get(0, 0) == Q(1, 2) * Q(1, 3) + Q(2, 3) * Q(2, 5)
    assert made
    monkeypatch.undo()
    assert canon(P) == canon(reference_matmul(A, B))
    assert canon(M) == canon(reference_merge_columns(S, [0, 1, 0, 1, 2], 3))
    assert (canon(R), pivots) == (canon(reference_rref(S)[0]), reference_rref(S)[1])
    assert canon(PB) == canon(reference_assemble(3, 3, plain_blocks(blocks)))
    assert zero.is_zero() and rank == len(pivots)
