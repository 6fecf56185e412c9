"""Lie algebra cohomology of g_- with module coefficients, Hodge theory.

Cochain spaces are C^n = Lambda^n p_+ (x) V with the wedge basis over the
p_+ roots in positive-root order and V's own basis, row-major. Wedges are
identified with alternating maps on g_- through the det-pairing with a 1/n!
prefactor; under that identification the differential is the classical
formula transported by the diagonal scaling S_n = diag(prod_a d_a / n!), and
plain exterior multiplication is the alternation of Z (x) f. The
codifferential acts on decomposables as

  dstar(Z_0 ^ ... ^ Z_n (x) v) = sum_i (-1)^{i+1} (... ^ Z_i-hat ^ ...) (x) Z_i v
      + sum_{i<j} (-1)^{i+j} [Z_i, Z_j] ^ (... i-hat ... j-hat ...) (x) v,

and the level inner products G_n = ((-1)^n / n!) diag(prod_a d_a) (x) Gram_V
make dstar the exact adjoint of d. The sign (-1)^n is forced by that
adjointness; the products are definite on each level, alternating in sign.

The Laplacian, the Hodge splitting im d + ker box + im dstar, harmonic
cohomology modules, and the weight-multiset oracle for their components all
live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import factorial

from .gradedla import DualBasisPair, GradedLieAlgebra
from .linalg import Q, QONE, QZERO, SpMat
from .repmod import PModule, exterior_power, pplus_module, tensor
from .rootspace import Weight, affine_dot_action, dominant_representative, parabolic_hasse


class DegreeOverflow(Exception):
    """Wedge insertion out of the top of the complex."""


class ComplexNotCertified(Exception):
    """A bracket left its part of g, or the Hodge splitting is not a basis."""


@dataclass
class CochainComplex:
    g: GradedLieAlgebra
    V: PModule
    dual: DualBasisPair
    levels: list[PModule] = field(repr=False)
    wedge_tuples: list[list[tuple]] = field(repr=False)
    dels: list[SpMat] = field(repr=False)  # dels[n]: C^n -> C^{n+1}
    delstars: list[SpMat] = field(repr=False)  # delstars[n]: C^{n+1} -> C^n
    inner: list[SpMat] = field(repr=False)  # G_n on C^n

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def dim(self, n: int) -> int:
        return self.levels[n].dim if 0 <= n <= self.top else 0


def _tuple_scale(dual: DualBasisPair, t: tuple):
    out = QONE
    for a in t:
        out = out * dual.d[a]
    return out


def build_cochain_complex(g: GradedLieAlgebra, V: PModule) -> CochainComplex:
    """All levels, differentials, codifferentials and inner products.

    V must carry g_- actions and a contravariant Gram (restrict_to_parabolic
    provides both).
    """
    if not V.has_gminus():
        raise ValueError("coefficient module lacks g_- actions")
    if V.gram is None:
        raise ValueError("coefficient module lacks a contravariant Gram")
    dual = g.dual_bases()
    d = len(dual.roots)
    pp = pplus_module(g)
    levels = [tensor(exterior_power(pp, n), V) for n in range(d + 1)]
    tuples = [list(combinations(range(d), n)) for n in range(d + 1)]

    dels = [
        _del_matrix(g, V, dual, tuples[n], tuples[n + 1]) if n < d
        else SpMat(0, levels[d].dim)
        for n in range(d + 1)
    ]
    delstars = [
        _delstar_matrix(g, V, dual, tuples[n + 1], tuples[n]) if n < d
        else SpMat(levels[d].dim, 0)
        for n in range(d + 1)
    ]
    inner = []
    for n in range(d + 1):
        scale = Q((-1) ** n, factorial(n))
        gram_lam = SpMat.diagonal(
            [_tuple_scale(dual, t) for t in tuples[n]]
        )
        inner.append(gram_lam.kron(V.gram).scale(scale))
    return CochainComplex(
        g=g, V=V, dual=dual, levels=levels, wedge_tuples=tuples,
        dels=dels, delstars=delstars, inner=inner,
    )


def _del_matrix(g, V, dual, src_tuples, tgt_tuples, ):
    """d: C^n -> C^{n+1} by value transport through S_n."""
    n = len(src_tuples[0]) if src_tuples else 0
    dv = V.dim
    roots = dual.roots
    f_act = {a: V.actions[("f", roots[a])] for a in range(len(roots))}
    # brackets [f_a, f_b] expanded over the f basis of g_-
    fbr: dict[tuple[int, int], dict[int, object]] = {}
    ridx = {r: a for a, r in enumerate(roots)}
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            out = {}
            for lab, c in g.bracket_labels(("f", roots[a]), ("f", roots[b])).items():
                if lab[0] != "f" or lab[1] not in ridx:
                    raise ComplexNotCertified(
                        f"[f_{a}, f_{b}] has a component {lab} outside g_-"
                    )
                out[ridx[lab[1]]] = c
            fbr[(a, b)] = out
    src_idx = {t: k for k, t in enumerate(src_tuples)}
    val = SpMat(len(tgt_tuples) * dv, len(src_tuples) * dv)
    for J_k, J in enumerate(tgt_tuples):
        row0 = J_k * dv
        for k in range(len(J)):
            I = J[:k] + J[k + 1:]
            col0 = src_idx[I] * dv
            sgn = (-1) ** k
            A = f_act[J[k]]
            for i, r in A.rows.items():
                for j, v in r.items():
                    val.set(row0 + i, col0 + j, val.get(row0 + i, col0 + j) + sgn * v)
        for k in range(len(J)):
            for l in range(k + 1, len(J)):
                rest = tuple(x for ii, x in enumerate(J) if ii not in (k, l))
                for mm, c in fbr[(J[k], J[l])].items():
                    if mm in rest:
                        continue
                    merged = sorted(rest + (mm,))
                    pos = merged.index(mm)
                    sgn = ((-1) ** (k + l)) * ((-1) ** pos) * c
                    col0 = src_idx[tuple(merged)] * dv
                    for i in range(dv):
                        val.set(
                            row0 + i, col0 + i, val.get(row0 + i, col0 + i) + sgn
                        )
    s_src = _scale_diag(dual, src_tuples, n, dv)
    s_tgt_inv = _scale_diag(dual, tgt_tuples, n + 1, dv, invert=True)
    return (s_tgt_inv @ val) @ s_src


def _scale_diag(dual, tuples, n, dv, invert=False):
    vals = []
    for t in tuples:
        s = _tuple_scale(dual, t) / factorial(n)
        if invert:
            s = QONE / s
        vals.extend([s] * dv)
    return SpMat.diagonal(vals)


def _delstar_matrix(g, V, dual, src_tuples, tgt_tuples):
    """dstar: C^{n+1} -> C^n, decomposable formula on the wedge basis."""
    dv = V.dim
    roots = dual.roots
    ridx = {r: a for a, r in enumerate(roots)}
    e_act = {a: V.actions[("e", roots[a])] for a in range(len(roots))}
    ebr: dict[tuple[int, int], dict[int, object]] = {}
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            out = {}
            for lab, c in g.bracket_labels(("e", roots[a]), ("e", roots[b])).items():
                if lab[0] != "e" or lab[1] not in ridx:
                    raise ComplexNotCertified(
                        f"[e_{a}, e_{b}] has a component {lab} outside p_+"
                    )
                out[ridx[lab[1]]] = c
            ebr[(a, b)] = out
    tgt_idx = {t: k for k, t in enumerate(tgt_tuples)}
    out = SpMat(len(tgt_tuples) * dv, len(src_tuples) * dv)
    for A_k, A in enumerate(src_tuples):
        col0 = A_k * dv
        for i in range(len(A)):
            rest = A[:i] + A[i + 1:]
            row0 = tgt_idx[rest] * dv
            sgn = (-1) ** (i + 1)
            M = e_act[A[i]]
            for r, rr in M.rows.items():
                for c, v in rr.items():
                    out.set(row0 + r, col0 + c, out.get(row0 + r, col0 + c) + sgn * v)
        for i in range(len(A)):
            for j in range(i + 1, len(A)):
                rest = tuple(x for ii, x in enumerate(A) if ii not in (i, j))
                for mm, c in ebr[(A[i], A[j])].items():
                    if mm in rest:
                        continue
                    merged = sorted((mm,) + rest)
                    pos = merged.index(mm)
                    sgn = ((-1) ** (i + j)) * ((-1) ** pos) * c
                    row0 = tgt_idx[tuple(merged)] * dv
                    for r in range(dv):
                        out.set(
                            row0 + r, col0 + r, out.get(row0 + r, col0 + r) + sgn
                        )
    return out


def laplacian(cc: CochainComplex, n: int) -> SpMat:
    """box = d dstar + dstar d on C^n (signs included in the maps)."""
    dim = cc.dim(n)
    box = SpMat(dim, dim)
    if n >= 1:
        box = box + cc.dels[n - 1] @ cc.delstars[n - 1]
    if n < cc.top:
        box = box + cc.delstars[n] @ cc.dels[n]
    return box


@dataclass
class HodgeSplit:
    n: int
    im_del: SpMat
    ker_box: SpMat
    im_delstar: SpMat
    harmonic_weights: tuple[Weight, ...]

    @property
    def full_basis(self) -> SpMat:
        return SpMat.hstack([self.im_del, self.ker_box, self.im_delstar])


def hodge_decompose(cc: CochainComplex, n: int) -> HodgeSplit:
    """C^n = im d + ker box + im dstar, bases blocked by full weight."""
    level = cc.levels[n]
    by_weight: dict[Weight, list[int]] = {}
    for k, w in enumerate(level.weights):
        by_weight.setdefault(w, []).append(k)
    box = laplacian(cc, n)
    im_del_cols: list[SpMat] = []
    ker_cols: list[SpMat] = []
    im_ds_cols: list[SpMat] = []
    ker_weights: list[Weight] = []
    for mu in sorted(by_weight):
        rows = by_weight[mu]
        lift = SpMat(level.dim, len(rows))
        for p, r in enumerate(rows):
            lift.set(r, p, 1)
        if n >= 1:
            src = [
                k for k, w in enumerate(cc.levels[n - 1].weights) if w == mu
            ]
            blk = cc.dels[n - 1].submatrix(rows, src)
            base = blk.column_space_basis()
            if base.ncols:
                im_del_cols.append(lift @ base)
        boxblk = box.submatrix(rows, rows)
        kb = boxblk.kernel_basis()
        if kb.ncols:
            ker_cols.append(lift @ kb)
            ker_weights.extend([mu] * kb.ncols)
        if n < cc.top:
            src = [
                k for k, w in enumerate(cc.levels[n + 1].weights) if w == mu
            ]
            blk = cc.delstars[n].submatrix(rows, src)
            base = blk.column_space_basis()
            if base.ncols:
                im_ds_cols.append(lift @ base)
    dim = level.dim

    def cat(cols):
        return SpMat.hstack(cols) if cols else SpMat(dim, 0)

    split = HodgeSplit(
        n=n,
        im_del=cat(im_del_cols),
        ker_box=cat(ker_cols),
        im_delstar=cat(im_ds_cols),
        harmonic_weights=tuple(ker_weights),
    )
    total = split.im_del.ncols + split.ker_box.ncols + split.im_delstar.ncols
    if total != dim or split.full_basis.rank() != dim:
        raise ComplexNotCertified(f"Hodge splitting of C^{n} is not a basis")
    return split


@dataclass
class Cohomology:
    """Harmonic model of H^n(g_-, V): a g_0-module with p_+ acting by zero,
    plus the embedding of the harmonic basis into C^n."""

    n: int
    module: PModule
    embedding: SpMat = field(repr=False)
    split: HodgeSplit = field(repr=False)


def cohomology_module(cc: CochainComplex, n: int) -> Cohomology:
    split = hodge_decompose(cc, n)
    K = split.ker_box
    level = cc.levels[n]
    acts = {}
    for lab in cc.g.p_labels():
        if cc.g.grade_of(lab) > 0:
            acts[lab] = SpMat(K.ncols, K.ncols)
        else:
            img = level.actions[lab] @ K
            acts[lab] = K.solve(img)  # consistent: g_0 preserves ker box
    e_grades = []
    E = cc.g.grading_element()
    rank = cc.g.rs.rank
    for mu in split.harmonic_weights:
        e_grades.append(
            sum((E.get(("h", j), QZERO)) * mu[j] for j in range(rank))
        )
    mod = PModule(
        g=cc.g,
        dim=K.ncols,
        e_grades=tuple(e_grades),
        actions=acts,
        weights=split.harmonic_weights,
    )
    return Cohomology(n=n, module=mod, embedding=K, split=split)


def wedge_insert_matrix(cc: CochainComplex, n: int, zco: dict[int, object]) -> SpMat:
    """Exterior multiplication e_Z ^ . : C^n -> C^{n+1}; zco maps p_+ root
    positions to coefficients."""
    if n >= cc.top:
        raise DegreeOverflow(f"cannot wedge out of level {n} (top {cc.top})")
    dv = cc.V.dim
    src = cc.wedge_tuples[n]
    tgt_idx = {t: k for k, t in enumerate(cc.wedge_tuples[n + 1])}
    out = SpMat(cc.dim(n + 1), cc.dim(n))
    for k, t in enumerate(src):
        for a, c in zco.items():
            if a in t:
                continue
            merged = sorted(t + (a,))
            sgn = (-1) ** merged.index(a)
            row0 = tgt_idx[tuple(merged)] * dv
            col0 = k * dv
            for i in range(dv):
                out.set(row0 + i, col0 + i, out.get(row0 + i, col0 + i) + sgn * c)
    return out


def unit_wedges(cc: CochainComplex, n: int) -> list[SpMat]:
    """eta_a ^ . : C^n -> C^{n+1} for every p_+ root position a."""
    return [wedge_insert_matrix(cc, n, {a: QONE}) for a in range(len(cc.dual))]


def twisted_matrix(cc: CochainComplex, n: int) -> SpMat:
    """(f0, Z (x) f1) -> del f0 + (n+1) Z ^ f1 on jet coordinates of C^n."""
    return SpMat.hstack(
        [cc.dels[n]] + [w.scale(Q(n) + 1) for w in unit_wedges(cc, n)]
    )


def kostant_oracle(g: GradedLieAlgebra, lam_mod: Weight) -> list[list[Weight]]:
    """Predicted component labels of H^n(g_-, V(lam_mod)) per level n.

    Level n collects w.(lam*) for the length-n elements of W^p, where lam* is
    the dominant representative of -lam_mod; sorted lexicographically.
    """
    lam_star = dominant_representative(g.rs, tuple(-x for x in lam_mod))
    levels = parabolic_hasse(g.par)
    return [
        sorted(affine_dot_action(w, lam_star) for w in lvl) for lvl in levels
    ]

