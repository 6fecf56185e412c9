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

The Hodge splitting im d + ker box + im dstar, harmonic cohomology modules,
and the weight-multiset oracle for their components live here. The
splitting builds no Laplacian: its harmonic part ker box is ker d ∩ ker dstar,
solved on the weights the two images leave uncovered (``hodge_decompose``).
The Laplacian box = d dstar + dstar d appears only restricted to a generated
submodule, where it is dstar d (``bggcore.GeneratedSubmodule.box_on_e``).
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

from .gradedla import DualBasisPair, GradedLieAlgebra
from .linalg import Q, QONE, SpMat
from .repmod import PModule, exterior_power, positions_by_weight, pplus_module, tensor
from .rootspace import Weight, affine_dot_action, dominant_representative_for, parabolic_hasse


class DegreeOverflow(Exception):
    """Wedge insertion out of the top of the complex."""


class ComplexNotCertified(Exception):
    """A bracket left its part of g, or the Hodge splitting is not a basis."""


class CochainComplex:
    """``dels[n]``: C^n -> C^{n+1}, ``delstars[n]``: C^{n+1} -> C^n, and
    ``inner[n]`` the inner product G_n on C^n."""

    def __init__(self, g: GradedLieAlgebra, V: PModule, dual: DualBasisPair,
                 levels: list[PModule], wedge_tuples: list[list[tuple]],
                 dels: list[SpMat], delstars: list[SpMat], inner: list[SpMat]):
        self.g, self.V, self.dual, self.levels, self.wedge_tuples = g, V, dual, levels, wedge_tuples
        self.dels, self.delstars, self.inner = dels, delstars, inner
        self._wedges: dict[int, list[SpMat]] = {}

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def dim(self, n: int) -> int:
        return self.levels[n].dim if 0 <= n <= self.top else 0

    def unit_wedges(self, n: int) -> list[SpMat]:
        """eta_a ^ . : C^n -> C^{n+1} for every p_+ root position a, built
        once per level and kept."""
        wedges = self._wedges.get(n)
        if wedges is None:
            wedges = self._wedges[n] = [
                wedge_insert_matrix(self, n, {a: QONE}) for a in range(len(self.dual))
            ]
        return wedges


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


def _bracket_table(g, roots, kind: str) -> dict[tuple[int, int], dict[int, object]]:
    """[x_a, x_b] for a < b over the x basis, where x_a = (kind, roots[a]):
    kind "f" spans g_-, kind "e" spans p_+."""
    part = "g_-" if kind == "f" else "p_+"
    ridx = {r: a for a, r in enumerate(roots)}
    table = {}
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            out = {}
            for lab, c in g.bracket_labels((kind, roots[a]), (kind, roots[b])).items():
                if lab[0] != kind or lab[1] not in ridx:
                    raise ComplexNotCertified(
                        f"[{kind}_{a}, {kind}_{b}] has a component {lab} outside {part}"
                    )
                out[ridx[lab[1]]] = c
            table[(a, b)] = out
    return table


def _del_matrix(g, V, dual, src_tuples, tgt_tuples):
    """d: C^n -> C^{n+1} by value transport through S_n: each block
    (J, I) of the classical formula is scaled by S_n(I) / S_{n+1}(J)."""
    n = len(src_tuples[0]) if src_tuples else 0
    dv = V.dim
    roots = dual.roots
    unit = SpMat.identity(dv)
    f_act = {a: V.actions[("f", roots[a])] for a in range(len(roots))}
    fbr = _bracket_table(g, roots, "f")
    src_idx = {t: k for k, t in enumerate(src_tuples)}
    s_src = [_tuple_scale(dual, t) / factorial(n) for t in src_tuples]
    blocks = []
    for J_k, J in enumerate(tgt_tuples):
        row0 = J_k * dv
        s_tgt = _tuple_scale(dual, J) / factorial(n + 1)
        for k in range(len(J)):
            I_k = src_idx[J[:k] + J[k + 1:]]
            blocks.append((row0, I_k * dv, (-1) ** k * s_src[I_k] / s_tgt, f_act[J[k]]))
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


def _delstar_matrix(g, V, dual, src_tuples, tgt_tuples):
    """dstar: C^{n+1} -> C^n, decomposable formula on the wedge basis."""
    dv = V.dim
    roots = dual.roots
    unit = SpMat.identity(dv)
    e_act = {a: V.actions[("e", roots[a])] for a in range(len(roots))}
    ebr = _bracket_table(g, roots, "e")
    tgt_idx = {t: k for k, t in enumerate(tgt_tuples)}
    blocks = []
    for A_k, A in enumerate(src_tuples):
        col0 = A_k * dv
        for i in range(len(A)):
            rest = A[:i] + A[i + 1:]
            blocks.append((tgt_idx[rest] * dv, col0, (-1) ** (i + 1), e_act[A[i]]))
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


class HodgeSplit:
    def __init__(self, n: int, im_del: SpMat, ker_box: SpMat, im_delstar: SpMat,
                 harmonic_weights: tuple[Weight, ...]):
        self.n, self.im_del, self.ker_box, self.im_delstar = n, im_del, ker_box, im_delstar
        self.harmonic_weights = harmonic_weights
        self._projection: SpMat | None = None

    @property
    def full_basis(self) -> SpMat:
        return SpMat.hstack([self.im_del, self.ker_box, self.im_delstar])

    def harmonic_projection(self) -> SpMat:
        """pi_H: C^n -> harmonic coordinates, the ker box rows of
        full_basis^{-1} (the basis is certified invertible), computed on
        first use and kept. P is the solution of P @ full_basis = [0 | 1 | 0],
        solved as full_basis^T @ P^T = the ker box columns of the identity."""
        if self._projection is None:
            dim = self.im_del.nrows
            off, h = self.im_del.ncols, self.ker_box.ncols
            unit = SpMat.identity(h).place_rows(list(range(off, off + h)), dim)
            self._projection = self.full_basis.transpose().solve(unit).transpose()
        return self._projection


def hodge_decompose(cc: CochainComplex, n: int) -> HodgeSplit:
    """C^n = im d + ker box + im dstar, bases blocked by full weight.

    No Laplacian is built. On each weight mu, the bases of im d_{n-1} and of
    im dstar_n are the independent columns of the two weight blocks, and
    the harmonic part ker box = ker d_n ∩ ker dstar_{n-1} is solved only on
    the room they leave, |mu| - rank(im d) - rank(im dstar), as the kernel
    of the stacked blocks [dstar_{n-1}; d_n] on the mu columns. A weight
    with no room has no harmonic part, and nothing is eliminated for it.

    Why skipping is exact: let v be in ker d_n ∩ ker dstar_{n-1} of weight
    mu. By adjointness, dstar_k^T G_k = G_{k+1} d_k, so v is G_n-orthogonal
    to im d_{n-1} and to im dstar_n. With no room, those two images span the
    weight space of mu (``check_weight_blocks`` certifies that their bases
    together are a basis). G_n = +-diag(prod_a d_a) (x) Gram_V pairs each
    weight space with itself, and its block there is nondegenerate, since
    ``build_irrep`` admits a basis word only on a nonzero Schur complement
    of the contravariant Gram. So v = 0.

    With room, the kernel must have exactly that many columns, or
    ``ComplexNotCertified`` is raised. ``kernel_basis`` is canonical (it
    depends only on the subspace), so the harmonic basis is the one the
    kernel of each Laplacian block gives."""
    level = cc.levels[n]
    dim = level.dim
    by_weight = positions_by_weight(level.weights)
    below = positions_by_weight(cc.levels[n - 1].weights) if n >= 1 else {}
    above = positions_by_weight(cc.levels[n + 1].weights) if n < cc.top else {}
    im_del_cols: list[SpMat] = []
    ker_cols: list[SpMat] = []
    im_ds_cols: list[SpMat] = []
    ker_weights: list[Weight] = []

    for mu in sorted(by_weight):
        rows = by_weight[mu]
        room = len(rows)
        conds: list[SpMat] = []
        if n >= 1:
            base = cc.dels[n - 1].submatrix(rows, below.get(mu, [])).column_space_basis()
            room -= base.ncols
            if base.ncols:
                im_del_cols.append(base.place_rows(rows, dim))
            conds.append(cc.delstars[n - 1].submatrix(below.get(mu, []), rows))
        if n < cc.top:
            base = cc.delstars[n].submatrix(rows, above.get(mu, [])).column_space_basis()
            room -= base.ncols
            if base.ncols:
                im_ds_cols.append(base.place_rows(rows, dim))
            conds.append(cc.dels[n].submatrix(above.get(mu, []), rows))
        if room < 0:
            raise ComplexNotCertified(
                f"im d and im dstar overfill weight {mu} of C^{n}"
            )
        if room:
            kb = SpMat.vstack(conds).kernel_basis()
            if kb.ncols != room:
                raise ComplexNotCertified(
                    f"harmonic part of weight {mu} of C^{n} has dimension "
                    f"{kb.ncols}, the images leave {room}"
                )
            ker_cols.append(kb.place_rows(rows, dim))
            ker_weights.extend([mu] * room)

    def cat(cols):
        return SpMat.hstack(cols) if cols else SpMat(dim, 0)

    split = HodgeSplit(
        n=n,
        im_del=cat(im_del_cols),
        ker_box=cat(ker_cols),
        im_delstar=cat(im_ds_cols),
        harmonic_weights=tuple(ker_weights),
    )
    check_weight_blocks(level.weights, split.full_basis, n)
    return split


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


class Cohomology:
    """Harmonic model of H^n(g_-, V): a g_0-module with p_+ acting by zero,
    plus the embedding of the harmonic basis into C^n."""

    def __init__(self, n: int, module: PModule, embedding: SpMat, split: HodgeSplit):
        self.n, self.module, self.embedding, self.split = n, module, embedding, split


def cohomology_module(cc: CochainComplex, n: int) -> Cohomology:
    split = hodge_decompose(cc, n)
    K = split.ker_box
    m = K.ncols
    level = cc.levels[n]
    labels = cc.g.p_labels()
    g0 = [lab for lab in labels if cc.g.grade_of(lab) <= 0]
    # one elimination of K against every g_0 image, side by side;
    # consistent: g_0 preserves ker box
    images = K.solve(SpMat.assemble(K.nrows, m * len(g0), [
        (0, t * m, 1, (level.actions[lab], K)) for t, lab in enumerate(g0)
    ]))
    solved = {lab: images.select_columns(list(range(t * m, (t + 1) * m)))
              for t, lab in enumerate(g0)}
    acts = {lab: solved[lab] if lab in solved else SpMat(m, m) for lab in labels}
    mod = PModule(
        g=cc.g,
        dim=K.ncols,
        e_grades=tuple(cc.g.e_eigenvalue(mu) for mu in split.harmonic_weights),
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
    unit = SpMat.identity(dv)
    tgt_idx = {t: k for k, t in enumerate(cc.wedge_tuples[n + 1])}
    blocks = []
    for k, t in enumerate(cc.wedge_tuples[n]):
        for a, c in zco.items():
            if a in t:
                continue
            merged = sorted(t + (a,))
            sgn = (-1) ** merged.index(a)
            blocks.append((tgt_idx[tuple(merged)] * dv, k * dv, sgn * c, unit))
    return SpMat.assemble(cc.dim(n + 1), cc.dim(n), blocks)


def twisted_matrix(cc: CochainComplex, n: int) -> SpMat:
    """(f0, Z (x) f1) -> del f0 + (n+1) Z ^ f1 on jet coordinates of C^n."""
    return SpMat.hstack(
        [cc.dels[n]] + [w.scale(Q(n) + 1) for w in cc.unit_wedges(n)]
    )


def kostant_oracle(g: GradedLieAlgebra, lam_mod: Weight) -> list[list[Weight]]:
    """Predicted component labels of H^n(g_-, V(lam_mod)) per level n.

    Level n collects w.(lam*) for the length-n elements of W^p, where lam* is
    the dominant representative of -lam_mod; sorted lexicographically.
    """
    rs = g.rs
    lam_star = dominant_representative_for(
        rs, range(1, rs.rank + 1), tuple(-x for x in lam_mod)
    )
    levels = parabolic_hasse(g.par)
    return [
        sorted(affine_dot_action(w, lam_star) for w in lvl) for lvl in levels
    ]

