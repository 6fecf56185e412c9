"""Exact sparse linear algebra."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artifact.linalg import EchelonSpan, LinAlgError, Q, SpMat, qparse, qstr

RNG = random.Random(20240817)


def rand_mat(nr, nc, density=0.6, rng=RNG):
    m = SpMat(nr, nc)
    for i in range(nr):
        for j in range(nc):
            if rng.random() < density:
                m.set(i, j, Q(rng.randint(-4, 4), rng.randint(1, 3)))
    return m


def test_qstr_qparse_roundtrip():
    for v in [Q(0), Q(3), Q(-3), Q(1, 2), Q(-7, 3), Q(22, 4)]:
        assert qparse(qstr(v)) == v
    assert qstr(Q(5)) == "5"
    assert qstr(Q(-1, 2)) == "-1/2"


def test_basic_ops_match_dense():
    A = rand_mat(4, 5)
    B = rand_mat(4, 5)
    C = rand_mat(5, 3)
    da, db, dc = A.to_dense(), B.to_dense(), C.to_dense()
    assert (A + B).to_dense() == [
        [da[i][j] + db[i][j] for j in range(5)] for i in range(4)
    ]
    assert (A - B).to_dense() == [
        [da[i][j] - db[i][j] for j in range(5)] for i in range(4)
    ]
    assert (A.scale(Q(-3, 2))).to_dense() == [
        [Q(-3, 2) * da[i][j] for j in range(5)] for i in range(4)
    ]
    assert (A @ C).to_dense() == [
        [sum(da[i][k] * dc[k][j] for k in range(5)) for j in range(3)]
        for i in range(4)
    ]
    assert A.transpose().to_dense() == [
        [da[i][j] for i in range(4)] for j in range(5)
    ]


def test_identity_and_zero():
    I = SpMat.identity(4)
    A = rand_mat(4, 4)
    assert (I @ A).to_dense() == A.to_dense()
    assert (A @ I).to_dense() == A.to_dense()
    assert SpMat.zeros(3, 4).is_zero()
    assert not A.is_zero() or A.nnz() == 0


def test_rectangular_identity_is_a_prefix():
    # truncation to the first two coordinates, and inclusion as them
    assert SpMat.identity(2, 4).to_dense() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert SpMat.identity(3, 2).to_dense() == [[1, 0], [0, 1], [0, 0]]
    assert SpMat.identity(2, 4) @ SpMat.identity(4, 2) == SpMat.identity(2)


def test_kron_shapes_and_values():
    A = rand_mat(2, 3)
    B = rand_mat(3, 2)
    K = SpMat.kron(A, B)
    assert (K.nrows, K.ncols) == (6, 6)
    da, db = A.to_dense(), B.to_dense()
    for i in range(6):
        for j in range(6):
            assert K.get(i, j) == da[i // 3][j // 2] * db[i % 3][j % 2]


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
    assert (A @ S).to_dense() == B.to_dense()
    # loaded full-rank column outside a rank-deficient image
    bad = SpMat.zeros(2, 1)
    bad.set(1, 0, 1)
    M = SpMat.zeros(2, 1)
    M.set(0, 0, 1)
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
    assert S.to_dense() == [
        [A.get(1, 0), A.get(1, 2)],
        [A.get(3, 0), A.get(3, 2)],
    ]
    C = A.select_columns([2, 0])
    assert C.get(1, 0) == A.get(1, 2)
    assert C.get(1, 1) == A.get(1, 0)


def test_column_space_basis_spans():
    A = rand_mat(5, 6, density=0.4)
    B = A.column_space_basis()
    assert B.rank() == B.ncols == A.rank()
    # every column of A solvable against the basis
    B.solve(A)


def test_echelon_span():
    span = EchelonSpan(5)
    v1 = {0: Q(1), 2: Q(2)}
    v2 = {0: Q(2), 2: Q(4)}
    v3 = {1: Q(1)}
    assert span.add(dict(v1))
    assert not span.add(dict(v2))
    assert span.contains(dict(v1))
    assert not span.contains(dict(v3))
    assert span.add(dict(v3))
    assert span.rank == 2
    assert span.basis_matrix().rank() == 2


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
    assert ((A @ B) @ C).to_dense() == (A @ (B @ C)).to_dense()


@given(mat_strategy(3, 4), mat_strategy(4, 2))
def test_transpose_antihomomorphism(A, B):
    assert (A @ B).transpose().to_dense() == (
        B.transpose() @ A.transpose()
    ).to_dense()


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


@given(mat_strategy(3, 5), st.lists(st.integers(0, 2), min_size=5, max_size=5))
def test_merge_columns_is_matmul_by_index_map(A, phi):
    M = SpMat(5, 3, {q: {c: Q(1)} for q, c in enumerate(phi)})
    assert A.merge_columns(phi, 3) == A @ M
    with pytest.raises(LinAlgError):
        A.merge_columns(phi[:-1], 3)
