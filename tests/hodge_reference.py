"""Reference cochain matrices and Hodge split.

``artifact.hodge`` builds every cochain matrix from the unit wedges eps_a and
their transposes iota_a. The references here are the decomposable formulas
it replaced, each walking the wedge basis and sorting index tuples with a
sign of its own: the level actions (the exterior power of p_+, one entry at
a time), d, dstar, the unit wedges and the inner products. The tests compare
the two matrix by matrix.

``artifact.hodge.hodge_decompose`` builds no Laplacian: it takes the harmonic
part of each weight as ker d ∩ ker dstar, and only on the weights the two
images leave uncovered. ``reference_hodge_decompose`` is the construction it
replaced: the whole Laplacian box = d dstar + dstar d of the level is built
once, and every weight block of it is eliminated. It returns the three
bases of the split placed in C^n, which the pipeline never assembles, and
``reference_harmonic_projection`` gets pi_H from them by one solve against
the whole Hodge basis, where ``Cohomology.harmonic_projection`` solves one
weight block at a time.

``check_weight_blocks`` certifies an assembled basis from its entries alone:
it reads each column's weight off its support and cuts the square weight
blocks back out before it ranks them. ``hodge_decompose`` ranks the blocks
it builds instead; the reference split, and the tests' tampered bases, are
certified here.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

from artifact.gradedla import GradedLieAlgebra
from artifact.hodge import CochainComplex, ComplexNotCertified
from artifact.linalg import Q, QONE, SpMat
from linalg_reference import reference_kron
from artifact.repmod import PModule, positions_by_weight
from repmod_reference import tensor
from artifact.rootspace import Weight


def pplus_module(g: GradedLieAlgebra) -> PModule:
    """p_+ with the restricted adjoint action of p (`g.pplus_action`)."""
    roots = g.pplus_roots
    return PModule(
        g=g,
        dim=len(roots),
        actions=dict(g.pplus_action),
        weights=tuple(g.rs.root_to_weight(r) for r in roots),
    )


def _sort_sign(lst: list[int]) -> tuple[int, list[int]]:
    """Insertion sort sign; 0 on duplicates."""
    sign = 1
    out = list(lst)
    for a in range(1, len(out)):
        b = a
        while b > 0 and out[b - 1] > out[b]:
            out[b - 1], out[b] = out[b], out[b - 1]
            sign = -sign
            b -= 1
    for a in range(1, len(out)):
        if out[a - 1] == out[a]:
            return 0, out
    return sign, out


def exterior_power(m: PModule, n: int) -> PModule:
    """Lambda^n m on increasing index tuples in lex order: each entry of each
    action moves one index of a tuple, and the tuple is sorted back, one 1x1
    assembler block per entry."""
    tuples = list(combinations(range(m.dim), n))
    tidx = {t: k for k, t in enumerate(tuples)}
    unit = SpMat.identity(1)
    acts = {}
    for lab, A in m.actions.items():
        terms = []
        for k, t in enumerate(tuples):
            for pos in range(n):
                col = A.col_dict(t[pos])
                for i, v in col.items():
                    if i in t and i != t[pos]:
                        continue
                    lst = list(t)
                    lst[pos] = i
                    sign, srt = _sort_sign(lst)
                    if sign == 0:
                        continue
                    terms.append((tidx[tuple(srt)], k, sign * v, unit))
        acts[lab] = SpMat.assemble(len(tuples), len(tuples), terms)
    weights = tuple(
        tuple(sum(m.weights[i][j] for i in t) for j in range(m.g.rs.rank))
        for t in tuples
    )
    return PModule(g=m.g, dim=len(tuples), actions=acts, weights=weights)


def reference_level(cc: CochainComplex, n: int) -> PModule:
    """C^n = Lambda^n p_+ (x) V."""
    return tensor(exterior_power(pplus_module(cc.g), n), cc.V)


def reference_grades(cc: CochainComplex, n: int) -> tuple:
    """The E-grade of each coordinate of C^n, without its weight: the
    grades of the p_+ roots of the wedge, summed, plus the E-eigenvalue of
    the V coordinate."""
    g = cc.g
    grades = [g.grade_of(("e", r)) for r in g.pplus_roots]
    v_grades = [g.e_eigenvalue(mu) for mu in cc.V.weights]
    return tuple(
        sum(grades[a] for a in t) + e
        for t in combinations(range(len(grades)), n) for e in v_grades
    )


def _tuple_scale(cc: CochainComplex, t: tuple):
    out = QONE
    for a in t:
        out = out * cc.g.pairing_d[a]
    return out


def _brackets(g, roots, kind: str) -> dict[tuple[int, int], dict[int, object]]:
    """[x_a, x_b] for a < b, x_a = (kind, roots[a]), over root positions."""
    ridx = {r: a for a, r in enumerate(roots)}
    return {
        (a, b): {ridx[lab[1]]: c
                 for lab, c in g.bracket_labels((kind, roots[a]), (kind, roots[b])).items()}
        for a in range(len(roots)) for b in range(a + 1, len(roots))
    }


def reference_del(cc: CochainComplex, n: int) -> SpMat:
    """d: C^n -> C^{n+1} by value transport through S_n: each block (J, I)
    of the classical formula is scaled by S_n(I) / S_{n+1}(J)."""
    g, V, roots = cc.g, cc.V, cc.g.pplus_roots
    src_tuples = list(combinations(range(len(roots)), n))
    tgt_tuples = list(combinations(range(len(roots)), n + 1))
    dv = V.dim
    unit = SpMat.identity(dv)
    fbr = _brackets(g, roots, "f")
    src_idx = {t: k for k, t in enumerate(src_tuples)}
    s_src = [_tuple_scale(cc, t) / factorial(n) for t in src_tuples]
    blocks = []
    for J_k, J in enumerate(tgt_tuples):
        row0 = J_k * dv
        s_tgt = _tuple_scale(cc, J) / factorial(n + 1)
        for k in range(len(J)):
            I_k = src_idx[J[:k] + J[k + 1:]]
            blocks.append((row0, I_k * dv, (-1) ** k * s_src[I_k] / s_tgt,
                           V.actions[("f", roots[J[k]])]))
        for k in range(len(J)):
            for l in range(k + 1, len(J)):
                rest = tuple(x for ii, x in enumerate(J) if ii not in (k, l))
                for mm, c in fbr[(J[k], J[l])].items():
                    if mm in rest:
                        continue
                    merged = sorted(rest + (mm,))
                    pos = merged.index(mm)
                    I_k = src_idx[tuple(merged)]
                    sgn = ((-1) ** (k + l)) * ((-1) ** pos) * c
                    blocks.append((row0, I_k * dv, sgn * s_src[I_k] / s_tgt, unit))
    return SpMat.assemble(len(tgt_tuples) * dv, len(src_tuples) * dv, blocks)


def reference_delstar(cc: CochainComplex, n: int) -> SpMat:
    """dstar: C^{n+1} -> C^n, decomposable formula on the wedge basis:

      dstar(Z_0 ^ ... ^ Z_n (x) v) = sum_i (-1)^{i+1} (... ^ Z_i-hat ^ ...) (x) Z_i v
          + sum_{i<j} (-1)^{i+j} [Z_i, Z_j] ^ (... i-hat ... j-hat ...) (x) v."""
    g, V, roots = cc.g, cc.V, cc.g.pplus_roots
    src_tuples = list(combinations(range(len(roots)), n + 1))
    tgt_tuples = list(combinations(range(len(roots)), n))
    dv = V.dim
    unit = SpMat.identity(dv)
    ebr = _brackets(g, roots, "e")
    tgt_idx = {t: k for k, t in enumerate(tgt_tuples)}
    blocks = []
    for A_k, A in enumerate(src_tuples):
        col0 = A_k * dv
        for i in range(len(A)):
            rest = A[:i] + A[i + 1:]
            blocks.append((tgt_idx[rest] * dv, col0, (-1) ** (i + 1),
                           V.actions[("e", roots[A[i]])]))
        for i in range(len(A)):
            for j in range(i + 1, len(A)):
                rest = tuple(x for ii, x in enumerate(A) if ii not in (i, j))
                for mm, c in ebr[(A[i], A[j])].items():
                    if mm in rest:
                        continue
                    merged = sorted((mm,) + rest)
                    pos = merged.index(mm)
                    sgn = ((-1) ** (i + j)) * ((-1) ** pos) * c
                    blocks.append((tgt_idx[tuple(merged)] * dv, col0, sgn, unit))
    return SpMat.assemble(len(tgt_tuples) * dv, len(src_tuples) * dv, blocks)


def reference_wedge(cc: CochainComplex, n: int, a: int) -> SpMat:
    """eta_a ^ . : C^n -> C^{n+1}, by sorting a into each wedge tuple."""
    d = len(cc.g.pplus_roots)
    src_tuples = list(combinations(range(d), n))
    tgt_idx = {t: k for k, t in enumerate(combinations(range(d), n + 1))}
    dv = cc.V.dim
    unit = SpMat.identity(dv)
    blocks = []
    for k, t in enumerate(src_tuples):
        if a in t:
            continue
        merged = sorted(t + (a,))
        blocks.append((tgt_idx[tuple(merged)] * dv, k * dv, (-1) ** merged.index(a), unit))
    return SpMat.assemble(len(tgt_idx) * dv, len(src_tuples) * dv, blocks)


def reference_inner(cc: CochainComplex, n: int) -> SpMat:
    """G_n = ((-1)^n / n!) diag(prod_a d_a) (x) Gram_V."""
    d = len(cc.g.pplus_roots)
    lam = SpMat.diagonal([_tuple_scale(cc, t) for t in combinations(range(d), n)])
    return reference_kron(lam, cc.V.gram).scale(Q((-1) ** n, factorial(n)))


def laplacian(cc: CochainComplex, n: int) -> SpMat:
    """box = d dstar + dstar d on C^n (signs included in the maps), summed in
    one accumulation."""
    dim = cc.dim(n)
    blocks = []
    if n >= 1:
        blocks.append((0, 0, 1, (cc.dels[n - 1], cc.delstars[n - 1])))
    if n < cc.top:
        blocks.append((0, 0, 1, (cc.delstars[n], cc.dels[n])))
    return SpMat.assemble(dim, dim, blocks)


class ReferenceSplit:
    """C^n = im d + ker box + im dstar as three bases placed in C^n, and the
    weight of each ker box column."""

    def __init__(self, im_del: SpMat, ker_box: SpMat, im_delstar: SpMat,
                 harmonic_weights: tuple[Weight, ...]):
        self.im_del, self.ker_box, self.im_delstar = im_del, ker_box, im_delstar
        self.harmonic_weights = harmonic_weights

    @property
    def full_basis(self) -> SpMat:
        return SpMat.hstack([self.im_del, self.ker_box, self.im_delstar])


def reference_hodge_decompose(cc: CochainComplex, n: int) -> ReferenceSplit:
    """C^n = im d + ker box + im dstar, with ker box the kernel of every
    weight block of the Laplacian."""
    dim = cc.dim(n)
    by_weight = positions_by_weight(cc.weights[n])
    below = positions_by_weight(cc.weights[n - 1]) if n >= 1 else {}
    above = positions_by_weight(cc.weights[n + 1]) if n < cc.top else {}
    box = laplacian(cc, n)
    im_del_cols: list[SpMat] = []
    ker_cols: list[SpMat] = []
    im_ds_cols: list[SpMat] = []
    ker_weights = []

    for mu in sorted(by_weight):
        rows = by_weight[mu]
        if n >= 1:
            base = cc.dels[n - 1].submatrix(rows, below.get(mu, [])).column_space_basis()
            if base.ncols:
                im_del_cols.append(base.place_rows(rows, dim))
        kb = box.submatrix(rows, rows).kernel_basis()
        if kb.ncols:
            ker_cols.append(kb.place_rows(rows, dim))
            ker_weights.extend([mu] * kb.ncols)
        if n < cc.top:
            base = cc.delstars[n].submatrix(rows, above.get(mu, [])).column_space_basis()
            if base.ncols:
                im_ds_cols.append(base.place_rows(rows, dim))

    def cat(cols):
        return SpMat.hstack(cols) if cols else SpMat(dim, 0)

    split = ReferenceSplit(
        im_del=cat(im_del_cols),
        ker_box=cat(ker_cols),
        im_delstar=cat(im_ds_cols),
        harmonic_weights=tuple(ker_weights),
    )
    check_weight_blocks(cc.weights[n], split.full_basis, n)
    return split


def reference_harmonic_projection(split: ReferenceSplit) -> SpMat:
    """pi_H: C^n -> harmonic coordinates, the ker box rows of
    full_basis^{-1}: the P with P @ full_basis = [0 | 1 | 0], solved as
    full_basis^T @ P^T = the ker box columns of the identity."""
    dim = split.im_del.nrows
    off, h = split.im_del.ncols, split.ker_box.ncols
    unit = SpMat.identity(h).place_rows(list(range(off, off + h)), dim)
    return split.full_basis.transpose().solve(unit).transpose()


def check_weight_blocks(weights: tuple[Weight, ...], basis: SpMat, n: int) -> None:
    """Certify that the columns of ``basis`` are a basis of C^n, whose
    coordinates have the given weights: every column is supported on the
    rows of one weight, and for each weight its columns, restricted to its
    rows, form a square block of full rank. Up to a permutation of rows and
    columns, ``basis`` is then block diagonal with invertible blocks."""
    rows_of = positions_by_weight(weights)
    cols_of: dict[Weight, list[int]] = {}
    col_weights: dict[int, set[Weight]] = {}
    for i, c in basis.support():
        col_weights.setdefault(c, set()).add(weights[i])
    for c in range(basis.ncols):
        ws = col_weights.get(c, set())
        if len(ws) != 1:
            raise ComplexNotCertified(
                f"Hodge basis vector {c} of C^{n} is not a weight vector"
            )
        cols_of.setdefault(ws.pop(), []).append(c)
    blocks = []
    for mu, rows in rows_of.items():
        cols = cols_of.get(mu, [])
        if len(cols) != len(rows):
            raise ComplexNotCertified(f"Hodge splitting of C^{n} is not a basis")
        blocks.append(basis.submatrix(rows, cols))
    if SpMat.block_diag(blocks).rank() != len(weights):
        raise ComplexNotCertified(f"Hodge splitting of C^{n} is not a basis")
